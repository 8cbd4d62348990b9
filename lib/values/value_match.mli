(** Exact counting of value-twig matches.

    Extends {!Tl_twig.Match_count}'s semantics: a match additionally maps
    every value-constrained query node to a data node carrying exactly that
    value.  Same top-down DP, without a memo, with the value check folded into
    the per-node label test. *)

val selectivity : Value_tree.t -> Value_query.t -> int
(** Number of matches in the whole document. *)

val selectivity_rooted : Value_tree.t -> Value_query.t -> Tl_tree.Data_tree.node -> int
