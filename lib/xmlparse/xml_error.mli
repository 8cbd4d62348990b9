(** Errors raised by the XML parser. *)

type position = { line : int; column : int; offset : int }
(** 1-based line and column; 0-based byte offset into the input after
    end-of-line normalization (a CR LF pair is one byte). *)

exception Parse_error of position * string
(** Malformed input, with the position where parsing failed and a
    human-readable reason. *)

val error : position -> string -> 'a
(** Raise {!Parse_error}. *)

val pp_position : position -> string
(** ["line 3, column 17"]. *)
