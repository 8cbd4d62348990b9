(** Exact twig selectivity — the number of matches of Definition 1.

    A match of twig [Q] in data tree [T] is a 1-1 mapping from [Q]'s nodes
    to [T]'s nodes preserving labels and parent-child edges.  The count is
    computed by a top-down dynamic program: for data node [v] and query
    node [q] with equal labels, the number of matches of [q]'s subtree
    rooted at [v] is the product, over [q]'s child sibling groups that share
    a label, of the number of weighted injective assignments of that group
    into [v]'s equally-labeled children (a permanent, evaluated by a
    subset-mask DP — sibling groups are at most twig-width wide, so the mask
    stays tiny).  A group whose members are all childless is counted in
    closed form, [c (c - 1) ... (c - m + 1)] over its [c] matching
    children.  Nothing is memoized: each (data node, query node) pair is
    reached only from its two parents, so a count visits it at most once,
    and a group's mask DP reads sub-counts computed once per data child.
    Starting from the nodes carrying the root label and recursing only
    through label-matching edges keeps counting cheap even for patterns
    containing very frequent leaf labels.

    This engine provides the ground truth for every experiment, and the
    per-pattern counts stored in the lattice summary. *)

type ctx
(** Reusable counting context over one data tree.  It holds only the
    buffer in which {!count_over} gathers matching roots, so repeated
    counting — the miner's hot loop — does not reallocate it. *)

val create_ctx : Tl_tree.Data_tree.t -> ctx

val clone_ctx : ctx -> ctx
(** A fresh context over the same (immutable, shareable) data tree with
    its own root buffer — one per domain when counting in parallel:
    contexts are single-domain mutable state and must never be shared
    across domains. *)

val tree : ctx -> Tl_tree.Data_tree.t

val count_over :
  ctx -> Twig.t -> Tl_tree.Data_tree.node array -> keep_roots:bool -> int * Tl_tree.Data_tree.node array
(** [count_over ctx twig roots ~keep_roots] is the number of matches whose
    root maps to a node of [roots] (distinct nodes; those not carrying the
    twig's root label contribute 0), paired, when [keep_roots], with the
    nodes of [roots] whose rooted count is non-zero, in input order — the
    twig's root occurrence list when [roots] holds every candidate root.
    When every root matches, that array is [roots] itself, so callers
    must treat both as read-only.  Without [keep_roots] the array is
    empty.  The other entry points are this loop over all or one root. *)

val selectivity : ctx -> Twig.t -> int
(** Number of matches of the twig in the whole document: {!count_over}
    every node carrying the root label. *)

val selectivity_rooted : ctx -> Twig.t -> Tl_tree.Data_tree.node -> int
(** Matches whose root maps to the given data node. *)

val count : Tl_tree.Data_tree.t -> Twig.t -> int
(** One-shot convenience: [selectivity (create_ctx tree) twig]. *)

val injective_assignments : members:int -> int array -> int
(** [injective_assignments ~members:m subs] is the permanent behind every
    sibling group of [m >= 1] members: the weighted number of ways to
    place the [m] query children on distinct data children, where
    [subs.(row * m + i)] is the match count of query child [i] at the
    group's [row]-th data child ([subs] holds whole rows).  Evaluated by
    a descending subset-mask DP in O(rows * m * 2{^m}). *)
