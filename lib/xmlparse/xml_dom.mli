(** In-memory XML documents.

    The document model is deliberately small: elements with attributes,
    text, comments, and processing instructions.  IDREFs and DTDs are out of
    scope — the paper models XML documents as rooted node-labeled trees and
    ignores values (§2.1); text is parsed faithfully but the data-tree layer
    drops it.

    Parsing is a fold over {!Xml_sax}'s events, so the DOM accepts exactly
    the grammar of the streaming route and fails with the same
    {!Xml_error.Parse_error}.  Code that needs only tags and nesting loads
    through {!Tl_tree.Tree_load} instead and never builds a DOM. *)

type node =
  | Element of element
  | Text of string  (** character data, entity references already resolved *)
  | Comment of string
  | Pi of string * string  (** target and content of [<?target content?>] *)

and element = { tag : string; attrs : (string * string) list; children : node list }

type t = { decl : (string * string) list option; root : element }
(** A document: the pseudo-attributes of the XML declaration, if present,
    and the single root element.  A [<!DOCTYPE ...>] before the root, and
    comments and PIs outside it, are accepted and discarded. *)

val element : ?attrs:(string * string) list -> string -> node list -> element
(** Convenience constructor. *)

val parse_string : string -> t
(** Parse a complete document.  Raises {!Xml_error.Parse_error} on
    malformed input, exactly as {!Xml_sax.parse_string} does. *)

val parse_file : string -> t
(** [parse_string] over the file's contents.  Raises [Sys_error] when the
    file cannot be read. *)

val equal_element : element -> element -> bool
(** Structural equality (attribute order significant, as parsed). *)

val count_elements : t -> int
(** Number of element nodes in the document, the paper's "Elements" column
    of Table 1. *)

val tags : t -> string list
(** Distinct element tags, in document order of first appearance. *)

val depth : t -> int
(** Maximum element nesting depth; the root alone has depth 1. *)
