(** Data trees with leaf values — the substrate for the paper's first
    future-work item ("extend the TreeLattice approach to work on the
    selectivity estimation for the twig queries with value predicates").

    The paper's data model observes that "in practice, values are almost
    always associated with leaf nodes" (§2.1); accordingly a node carries a
    value when its element has character data and no element children.
    Node ids coincide with the wrapped {!Tl_tree.Data_tree.t}'s ids, so all
    structural machinery keeps working unchanged. *)

type t

val of_element : Tl_xml.Xml_dom.element -> t

val of_xml : Tl_xml.Xml_dom.t -> t

val of_file : string -> t
(** Parse the file into a DOM, which keeps the text that values need.
    Raises {!Tl_xml.Xml_error.Parse_error} on malformed input and
    [Sys_error] when the file cannot be read. *)

val tree : t -> Tl_tree.Data_tree.t
(** The underlying structural tree. *)

val value : t -> Tl_tree.Data_tree.node -> string option
(** The node's value: its element's concatenated, whitespace-trimmed
    character data — [None] for interior elements and empty leaves. *)

val valued_nodes : t -> int
(** Number of nodes carrying a value. *)
