(** Event-based (SAX-style) XML parsing: the one XML scanner.

    Every document is read here.  {!Tl_tree.Tree_load} builds a data tree
    straight from the events, keeping peak memory at the size of the tree
    arrays; {!Xml_dom} folds the same events into a document when the text
    is needed.  Both therefore accept the same grammar and raise the same
    {!Xml_error.Parse_error}, position and message included. *)

type event =
  | Declaration of (string * string) list  (** [<?xml ...?>] pseudo-attributes *)
  | Start_element of string * (string * string) list
  | End_element of string
  | Text of string  (** one event per maximal run of character data *)
  | Comment of string
  | Pi of string * string

val parse_string : string -> (event -> unit) -> unit
(** Run the handler over every event of a complete document.  Raises
    {!Xml_error.Parse_error} on malformed input (unbalanced tags, bad
    references, duplicate attributes, content outside the root...) —
    events already delivered before the error are not retracted.  Each
    parse runs inside an [xml.parse] span; a successful one counts
    [xml.documents_parsed] and observes its length in [xml.input_bytes]. *)

val parse_file : string -> (event -> unit) -> unit
(** [parse_string] over the file's contents.  Raises [Sys_error] when the
    file cannot be read. *)

val events_of_string : string -> event list
(** Convenience for tests: collect all events. *)
