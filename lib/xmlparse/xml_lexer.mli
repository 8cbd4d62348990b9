(** Character-level cursor over an XML input string.

    The scanner in {!Xml_sax} runs over this cursor; the cursor tracks
    line/column for error reporting and owns the low-level scanning
    primitives (names, whitespace, references). *)

type t

val of_string : string -> t
(** A cursor at the start of the input, after XML end-of-line handling:
    ["\r\n"] and a lone ['\r'] read as ['\n'], so positions count
    lines of the normalized input. *)

val position : t -> Xml_error.position

val at_end : t -> bool

val peek : t -> char
(** Current character.  Raises {!Xml_error.Parse_error} at end of input. *)

val advance : t -> unit
(** Consume one character, updating line/column. *)

val next : t -> char
(** [peek] then [advance]. *)

val expect : t -> char -> unit
(** Consume exactly the given character or fail. *)

val expect_string : t -> string -> unit
(** Consume exactly the given literal or fail. *)

val looking_at : t -> string -> bool
(** True when the input at the cursor starts with the literal. *)

val skip_whitespace : t -> unit
(** Consume any run of space, tab, CR, LF. *)

val scan_name : t -> string
(** An XML Name: letters, digits, [-], [_], [.], [:], starting with a letter,
    [_], or [:].  Fails on an empty name. *)

val scan_until : t -> string -> string
(** [scan_until t stop] consumes and returns everything up to (not
    including) the literal [stop], then consumes [stop].  Fails at end of
    input if [stop] never occurs. *)

val scan_reference : t -> string
(** Scan an entity or character reference, cursor on ['&'].  Supports the
    five predefined entities and decimal/hex character references; unknown
    entity names fail. *)

val error : t -> string -> 'a
(** Fail at the current position. *)
