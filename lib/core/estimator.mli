(** The decomposition-based selectivity estimators (§3).

    Both schemes estimate the selectivity of a twig [T] that is larger than
    the lattice depth [k] by expressing it through lattice-resident
    subtwigs under the tree-growing conditional-independence assumption
    (Theorem 1):

    {v sigma(T1 + T2) ~ sigma(T1) * sigma(T2) / sigma(T1 n T2) v}

    - {e Recursive decomposition} (Fig. 4): remove one of two degree-1
      nodes, recurse on the two (n-1)-node subtwigs and their common
      (n-2)-node part, down to the brim of the lattice.
    - {e Fixed-size decomposition} (Fig. 5, Lemma 3): cover [T] with
      [n - k + 1] k-subtrees overlapping on (k-1)-subtrees in one preorder
      sweep, then multiply/divide their stored counts.
    - {e Voting} (§3.2): at every recursive step, average the estimates
      over all admissible leaf-pair choices; for the fixed-size scheme,
      average over several randomized covers.

    Estimates are exact for any pattern stored in the summary.  With a
    {e pruned} summary a missing small pattern is transparently
    re-estimated by recursive decomposition, which is what makes
    0-derivable pruning lossless (Lemma 5). *)

type scheme =
  | Recursive  (** deterministic leaf-pair choice *)
  | Recursive_voting
      (** average over all leaf pairs at every level.  A twig whose voting
          decomposition needs more than 4,096 distinct sub-twigs (every
          star of up to 12 leaves and every twig of up to 12 nodes needs
          fewer) is compiled under [Recursive] instead: it gets that
          plan's estimate, bit for bit, and one first-level vote. *)
  | Fixed_size  (** deterministic preorder cover *)
  | Fixed_size_voting of int
      (** average over this many randomized covers (>= 1); seeded
          deterministically from the query *)

val all_schemes : scheme list
(** The four schemes with [Fixed_size_voting 8]. *)

val scheme_name : scheme -> string

(** {2 Estimation probes}

    A probe observes every step an estimation takes — without perturbing
    any number.  All keys are canonical twig encodings
    ({!Tl_twig.Twig.encode}); {!Explain} rebuilds the decomposition DAG
    from these events for the [treelattice explain] subcommand.  Each
    distinct sub-twig is looked up (and reported) at most once per
    evaluation, however many decomposition pairs or cover steps share it. *)

(** Outcome of one sub-twig lookup. *)
type lookup_result =
  | Found_extra of float  (** served by the [?extra] source (e.g. the adaptive cache) *)
  | Found_summary of int  (** stored in the lattice summary *)
  | Assumed_zero
      (** missing at a level the summary is known complete for — a true zero *)
  | Decomposing  (** not resident: about to decompose *)

type probe = {
  on_lookup : string -> lookup_result -> unit;
  on_pair :
    parent:string ->
    t1:string ->
    t2:string ->
    cap:string ->
    twin:bool ->
    e1:float ->
    e2:float ->
    ec:float ->
    value:float ->
    unit;
      (** One evaluated leaf-pair of a recursive decomposition:
          [value ~ e1 * e2 / ec] (with the twin-edge correction when
          [twin]).  Short-circuited sub-estimates are reported as [nan]. *)
  on_value : string -> float -> unit;
      (** The averaged value a [Decomposing] key settled on. *)
  on_cover_step :
    block:string -> overlap:string option -> twins:int -> num:float -> den:float -> acc:float -> unit;
      (** One fixed-size cover step: running product [acc] after
          multiplying by [num/den - twins] ([den] is [nan] for the first
          block; [acc = 0] marks a short-circuit). *)
}

val estimate :
  ?extra:(Tl_twig.Twig.Key.t -> float option) ->
  ?probe:probe ->
  Tl_lattice.Summary.t ->
  scheme ->
  Tl_twig.Twig.t ->
  float
(** Estimated selectivity (>= 0, fractional in general).  Exact lookups are
    returned as-is; a twig whose label set cannot occur estimates to 0.

    This is [Plan.eval ?extra ?probe (Plan.compile summary scheme twig)]:
    the compiled plan is the only evaluator.  A one-shot call compiles a
    fresh plan; repeated queries should go through {!Plan_cache}.

    [extra] is an auxiliary count source keyed by interned canonical key,
    consulted {e before} the summary at every lookup (including the
    sub-twig lookups inside a decomposition).  {!Adaptive} uses it to let
    workload-observed exact counts anchor future decompositions.  A
    string-keyed source can be adapted with
    [fun k -> f (Tl_twig.Twig.Key.encode k)] — the encoding is cached, so
    the adapter costs one field read ({!Explain.run} does exactly this). *)

val first_level_votes :
  ?extra:(Tl_twig.Twig.Key.t -> float option) ->
  Tl_lattice.Summary.t ->
  Tl_twig.Twig.t ->
  float list
(** The estimates contributed by each admissible leaf-pair choice at the
    {e top} level of the recursive decomposition — the root pairs of the
    [Recursive_voting] plan — with each side estimated under [Recursive].
    A singleton for lattice-resident twigs, for twigs past the voting
    budget (see {!Recursive_voting}),
    or for twigs the [extra] feedback source answers at the top level; the
    source is also consulted inside every sub-estimate, mirroring
    {!estimate}.  This isolates the sensitivity of the scheme to the pair
    choice — the quantity the voting extension averages away (used by the
    pair-choice ablation). *)

type interval = { low : float; best : float; high : float }
(** A sensitivity interval around an estimate. *)

val estimate_interval :
  ?extra:(Tl_twig.Twig.Key.t -> float option) ->
  Tl_lattice.Summary.t ->
  Tl_twig.Twig.t ->
  interval
(** [best] is the voting estimate; [low]/[high] bound the spread of the
    admissible top-level decompositions ({!first_level_votes}).  The paper
    lists a formal error bound as future work; this interval is the
    practical proxy — when all decompositions agree the independence
    assumption is locally consistent and the estimate is trustworthy, and
    a wide interval flags correlation.  Lattice-resident twigs collapse to
    a point (the count is exact).

    [extra] is threaded into the votes {e and} the best estimate, so the
    interval always contains what [estimate ?extra] returns with the same
    source (the seed dropped it from the votes, which could leave the
    adaptive estimate outside its own interval). *)

val cover : Tl_twig.Twig.t -> k:int -> (Tl_twig.Twig.t * Tl_twig.Twig.t option) list
(** The deterministic fixed-size cover of a twig of size [> k]: the list
    [(B1, None); (B2, Some I2); ...] of k-subtrees with their (k-1)-subtree
    overlaps, per Lemma 2.  Exposed for tests and the worked examples. *)

(** {2 Compiled estimation plans}

    {!compile} runs the decomposition of a query {e once} — twig
    canonicalization, sub-twig enumeration, summary lookups, zero rules,
    twin-edge detection, and (for the fixed-size schemes) the full cover
    construction including its deterministic rng draws — and freezes the
    result as a flat array of int-indexed slots.  {!eval} is then a tight
    sweep over those slots: no twig rebuilding, no hashing of twig keys, no
    summary access.  Summaries are immutable after construction, which is
    what makes compile-time resolution sound.

    For any summary, scheme, twig, and [?extra] source,
    [eval ?extra (compile summary scheme twig)] returns the {e bit-identical}
    float of [estimate ?extra summary scheme twig], by construction: that
    is how {!estimate} is defined.  The independent check is the
    string-keyed test oracle under [test/oracle], which the differential
    tests and the fuzz harness hold every scheme to.  Plans with no
    feedback source collapse further: the result is a compile-time
    constant and [eval] without [?extra] is a field read — the fast path
    the plan cache and the batch engine serve from.

    A compiled plan is immutable and safe to share across domains. *)
module Plan : sig
  type t

  val compile : Tl_lattice.Summary.t -> scheme -> Tl_twig.Twig.t -> t
  (** Compile the query against the summary under the given scheme.  This
      is nearly all of the cost of one {!estimate} call; amortize it
      through {!Plan_cache} for repeated queries. *)

  val eval : ?extra:(Tl_twig.Twig.Key.t -> float option) -> ?probe:probe -> t -> float
  (** The estimate, consulting [extra] before each slot's compiled
      resolution and reporting each evaluated slot's probe events once.
      Without [extra] and [probe] this returns the precomputed constant
      without evaluating anything. *)

  val eval_flagged : ?extra:(Tl_twig.Twig.Key.t -> float option) -> t -> float * bool
  (** [eval] plus the feedback-hit flag the serving audit log records:
      [true] when the [extra] source answered at least one lookup of this
      evaluation.  The float is bit-identical to [eval ?extra]; without
      [extra] this is the const-result fast path and the flag is
      [false]. *)

  val scheme : t -> scheme

  val root_key : t -> Tl_twig.Twig.Key.t
  (** The canonical interned key of the compiled query. *)

  val summary_stamp : t -> int
  (** {!Tl_lattice.Summary.stamp} of the summary this plan was compiled
      against.  Serving layers use it to assert a plan is never evaluated
      under a summary it was not built for. *)

  val slot_count : t -> int
  (** Number of distinct sub-twig slots in the program (a size proxy). *)
end
