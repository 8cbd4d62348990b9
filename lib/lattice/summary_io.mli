(** Text (de)serialization of lattice summaries.

    The format is line-oriented and self-contained: it embeds the label
    names so a summary written against one document can be reloaded and
    re-keyed against any interner.

    {v
    treelattice-summary v1 k=4 complete=true labels=3
    a
    b
    c
    0(1,2) 42
    ...
    v} *)

val save : names:string array -> Summary.t -> string
(** [names.(l)] must be the tag for label id [l] as used in the summary's
    twigs. *)

val save_file : names:string array -> string -> Summary.t -> unit
(** [save_file ~names path summary] writes {!save}'s text to a temporary
    file next to [path] and renames it over [path]: readers see the old
    file or the new one, never a cut one, and on failure (which
    re-raises) the old file is kept and the temporary file removed. *)

exception Format_error of string

val load : ?intern:(string -> int) -> string -> Summary.t * string array
(** Parse a serialized summary.  Label ids in the result are assigned by
    [intern] applied to each embedded name (defaulting to the file's own
    0..n-1 numbering); the returned array maps the {e file's} label order to
    names.  Raises {!Format_error} on malformed input. *)

val load_file : ?intern:(string -> int) -> string -> Summary.t * string array
