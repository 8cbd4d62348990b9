(** XML serialization.

    Used by the dataset generators to materialize synthetic documents (so
    Table 1 can report a file size and the parser can be exercised end to
    end) and by tests for parse/print round-trips. *)

val escape_text : string -> string
(** Escape [&], [<], [>] for character data, and CR as [&#13;]. *)

val escape_attr : string -> string
(** Escape [&], [<], [>], and double quotes for double-quoted attribute
    values, and tab, LF and CR as character references. *)

val to_string : ?indent:bool -> Xml_dom.t -> string
(** Serialize a document.  With [indent] (default [false]) elements are laid
    out one per line with two-space indentation — whitespace-significant
    mixed content is emitted verbatim, so indented output re-parses to a
    document with extra whitespace text nodes. *)

val to_file : ?indent:bool -> string -> Xml_dom.t -> unit

val serialized_size : Xml_dom.t -> int
(** Byte length of [to_string doc] without retaining the string. *)
