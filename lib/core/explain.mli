(** Explain traces: the full decomposition behind one estimate.

    {!run} estimates a twig through {!Estimator.estimate} with a probe
    attached and reconstructs everything the estimator did — every
    sub-twig lookup (hit against the summary, the [?extra] source, a
    known true zero, or a further decomposition), every evaluated
    leaf-pair with its numerator/denominator estimates, every fixed-size
    cover step, and the first-level voting spread.  The recorded numbers
    are the estimator's own (one implementation, observed — not a
    re-derivation), so [estimate] here always equals what
    {!Estimator.estimate} returns for the same inputs.

    Sub-twigs are keyed by canonical encoding; because a compiled plan
    holds one slot per distinct sub-twig, the trace is a DAG — a shared
    sub-twig is looked up once and referenced by later steps, so the
    lookup totals count exactly the evaluated nodes.  Render with {!to_text} or
    {!Tl_viz.Dot.explain}. *)

type source =
  | Extra_cache  (** served by the [?extra] exact-count source *)
  | Summary_hit  (** resident in the lattice summary *)
  | True_zero  (** missing at a level the summary is complete for *)
  | Decomposed  (** estimated through further decomposition *)
  | Not_evaluated  (** referenced by a short-circuited pair, never needed *)

type pair = {
  t1 : string;
  t2 : string;
  cap : string;
  twin : bool;
  e1 : float;
  e2 : float;
  ec : float;  (** [nan] when short-circuiting skipped the estimate *)
  value : float;
}

type cover_step = {
  block : string;
  overlap : string option;  (** [None] for the first block *)
  twins : int;
  num : float;
  den : float;
  running : float;  (** running product after this step; [0.] = short-circuit *)
}

type node = {
  twig : Tl_twig.Twig.t;
  size : int;
  mutable source : source;
  mutable value : float;
  mutable pairs : pair list;  (** non-empty only for [Decomposed] nodes *)
}

type t = {
  scheme : Estimator.scheme;
  root_key : string;
  estimate : float;  (** identical to [Estimator.estimate] on the same inputs *)
  nodes : (string, node) Hashtbl.t;  (** every sub-twig touched, by canonical key *)
  order : string list;  (** keys in first-touch order (deterministic) *)
  cover : cover_step list;  (** fixed-size schemes only *)
  votes : float list;  (** {!Estimator.first_level_votes} of the root *)
  summary_hits : int;
  extra_hits : int;
  true_zeros : int;
  decompositions : int;
}

val run :
  ?extra:(string -> float option) ->
  Tl_lattice.Summary.t ->
  Estimator.scheme ->
  Tl_twig.Twig.t ->
  t

val node : t -> string -> node option

val to_text : names:(int -> string) -> t -> string
(** Indented decomposition tree (shared sub-twigs expanded once), cover
    steps for fixed-size schemes, the voting spread, and lookup totals. *)
