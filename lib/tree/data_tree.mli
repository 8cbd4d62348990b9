(** The rooted node-labeled data tree (the paper's [T = (V_D, E_D)], §2.1).

    This is the structure every other layer works over: the exact matcher,
    the lattice miner, and the TreeSketches builder all traverse it.  Nodes
    are dense integer ids in preorder (the root is 0); labels are interned
    element tags.  Values (text) are not modeled, following the paper.

    The representation is array-backed and immutable after construction.
    A flat child index answers "children of [v] labeled [l]" — the hot
    query of every counting algorithm here — in [O(log fanout + answers)]:
    one array holds every node's children, each node's run sorted by
    (label, document order), with [n + 1] offsets delimiting the runs and a
    parallel array of the entries' labels for the binary search.  It is
    built in [O(n)] without comparisons, by appending each label's nodes,
    in label order, to their parents' runs. *)

type t

type node = int
(** Dense node id; [0 <= id < size t]. *)

type label = int
(** Interned label id; [0 <= label < label_count t]. *)

val of_xml : Tl_xml.Xml_dom.t -> t
(** Build from a parsed document, dropping text, comments, and processing
    instructions.  Attribute structure is ignored (tags only), as in the
    paper's data model.  To load an XML file, use {!Tl_tree.Tree_load},
    which streams it without a DOM. *)

val of_element : Tl_xml.Xml_dom.element -> t
(** [of_xml] from a bare element: its preorder walk feeds {!of_preorder}. *)

val of_preorder : tags:string array -> parents:int array -> t
(** Build from a preorder node sequence: node [i] has tag [tags.(i)] and
    parent [parents.(i)], with [parents.(0) = -1] and [0 <= parents.(i) < i]
    for every other node; sibling order is index order.  Every other
    constructor ends here: {!Tl_tree.Tree_load} feeds it from SAX events
    and {!of_element} from a DOM walk.  Raises [Invalid_argument] on
    malformed input (length mismatch, empty, bad parent indices). *)

val root : t -> node

val size : t -> int
(** Number of nodes. *)

val label : t -> node -> label

val label_name : t -> label -> string

val label_of_string : t -> string -> label option
(** [None] when the tag never occurs in the document. *)

val label_count : t -> int
(** Number of distinct labels. *)

val label_names : t -> string array
(** All tag names indexed by label id (includes any extra labels added with
    {!intern_label}). *)

val intern_label : t -> string -> label
(** Id for the tag, allocating a fresh one if the tag does not occur in the
    document.  Fresh ids have no occurrences ([nodes_with_label] returns
    [[||]]); they exist so summaries over a wider label space (e.g. after
    incremental maintenance across documents) can share this tree's ids. *)

val parent : t -> node -> node option
(** [None] for the root. *)

val children : t -> node -> node array
(** Children in document order.  The returned array is owned by the tree;
    callers must not mutate it. *)

val fanout : t -> node -> int

val children_with_label : t -> node -> label -> node array
(** Fresh array of the children of [v] carrying [l], in document order. *)

val count_children_with_label : t -> node -> label -> int

val fold_children_with_label : t -> node -> label -> ('a -> node -> 'a) -> 'a -> 'a
(** Fold without allocating the answer array. *)

val nodes_with_label : t -> label -> node array
(** All nodes labeled [l], in preorder.  Owned by the tree; do not mutate. *)

val edge_label_pairs : t -> (label * label) list
(** Distinct (parent label, child label) pairs occurring in the tree —
    the occurring 2-twigs, which seed candidate generation in the miner. *)

val has_edge_labels : t -> label -> label -> bool
(** [has_edge_labels t lp lc] is true when some [lp]-labeled node has an
    [lc]-labeled child. *)

val postorder : t -> node array
(** Nodes in postorder (children before parents), for bottom-up DPs. *)

val iter_nodes : t -> (node -> unit) -> unit
(** Iterate all nodes in preorder. *)

val depth : t -> int
(** Height of the tree in nodes (root alone = 1). *)
