(** Selectivity estimation for twig queries with value predicates.

    The estimate factorizes, mirroring how the paper factorizes structure:

    {v sigma(twig with preds) ~ sigma_structural(twig)
                                * prod over preds P(value | label) v}

    under the assumption that values are independent of the surrounding
    structure and of each other given their labels — the value-side
    analogue of tree-growing independence.  Structural estimation is any
    {!Tl_core.Estimator.scheme} over the ordinary lattice summary; the
    per-predicate factors come from {!Value_summary}.

    Exact on documents where the independence holds (tested); the known
    failure mode — correlated values — is the value analogue of IMDB's
    correlated structure. *)

type t

val create :
  ?k:int -> ?top:int -> Value_tree.t -> t
(** Build both summaries over the document ([k] lattice depth, default 4;
    [top] histogram width, default 32). *)

val vtree : t -> Value_tree.t

val structural : t -> Tl_lattice.Summary.t

val values : t -> Value_summary.t

val estimate : ?scheme:Tl_core.Estimator.scheme -> t -> Value_query.t -> float

val exact : t -> Value_query.t -> int
(** Exact count by full matching (delegates to {!Value_match}). *)

val estimate_string : ?scheme:Tl_core.Estimator.scheme -> t -> string -> (float, string) result
(** Parse the value-twig syntax against the document's tags and estimate.
    Unknown tags yield [Ok 0.] *)

val exact_string : t -> string -> (int, string) result
