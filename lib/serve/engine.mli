(** The batched estimation engine — the serving front of the library.

    An engine owns a {!Tl_core.Plan_cache} over one summary and answers
    query batches: dedupe on interned canonical keys, compile-or-reuse a
    plan per distinct query, evaluate across a {!Tl_util.Pool} with
    cost-aware chunking, scatter back in input order.  Results are
    {e bit-identical} to calling {!Tl_core.Estimator.estimate} per query
    — warm or cold, sequential or parallel, deduped or not — with one
    deliberate exception: a non-finite per-query result (possible only
    when an [?extra] feedback source injects nan/infinity or overflows a
    product) is clamped to [0.0] and counted under the
    [tl_estimates_nonfinite] metric, so the serving surface never leaks
    nan or infinity to a client.

    Thread safety: one engine may serve many threads and domains
    concurrently.  Only the thread that calls {!batch} or {!estimate}
    touches the plan cache: it takes the cache's lock once to look up the
    batch's plans and once more to add the plans it compiled, and pool
    workers compile and evaluate without touching the cache.  The serving
    stack is safe by default end to end — {!Tl_core.Adaptive} locks internally,
    so [batch ~pool ~extra:(Tl_core.Adaptive.lookup a)] composes without
    caller-side synchronization.  A hand-written [?extra] source is
    called from every evaluating domain and must itself be domain-safe
    (a pure function, or a lock- or atomic-guarded structure); the
    differential fuzz harness and the stress tests in
    [test/test_serve.ml] exercise both shapes. *)

type t

val create : ?scheme:Tl_core.Estimator.scheme -> ?plan_capacity:int -> Tl_lattice.Summary.t -> t
(** An engine estimating with [scheme] by default
    ({!Tl_core.Treelattice.default_scheme}) and caching up to
    [plan_capacity] compiled plans (see {!Tl_core.Plan_cache.create}).
    The engine serves one summary for its whole life, and its plan cache
    asserts (in debug builds) that every served plan was compiled against
    that summary: a plan can never be evaluated under a summary it was not
    built for.  Which summary is current is the {!Registry}'s business. *)

val scheme : t -> Tl_core.Estimator.scheme

val estimate :
  ?scheme:Tl_core.Estimator.scheme ->
  ?extra:(Tl_twig.Twig.Key.t -> float option) ->
  t ->
  Tl_twig.Twig.t ->
  float
(** One query through the plan cache: the per-call path for callers that
    do not batch but still repeat queries ({!Tl_harness.Experiments} runs
    every figure through this).  It leaves no {!Audit} record. *)

val batch :
  ?pool:Tl_util.Pool.t ->
  ?extra:(Tl_twig.Twig.Key.t -> float option) ->
  ?audit:Audit.t ->
  ?monitor:Monitor.t ->
  t ->
  Tl_twig.Twig.t array ->
  float array
(** Estimates in input order, under the engine's scheme.  Distinct queries (after canonicalization)
    are evaluated once each; with a [pool], distinct queries spread across
    its domains, chunked by a per-query size hint so one deep twig does
    not serialize the tail of a skewed batch.

    With [?audit], every distinct evaluation leaves an audit record (key
    id, scheme, estimate, latency, plan-cache hit, feedback hit, clamp
    flag), from whichever domain ran it — recording is lock-free.  Without
    it no clock is read.  With [?monitor],
    the drift monitor draws its sampling decisions and replays the exact
    oracle on the {e caller} domain before the parallel phase, and folds
    the observations in afterwards, also on the caller — so a non-domain-
    safe oracle ({!Monitor.oracle_of_tree}, {!Monitor.oracle_of_adaptive})
    is safe here, and the monitor's window is deterministic for a fixed
    seed and query sequence regardless of the pool. *)

val stats : t -> Tl_core.Plan_cache.stats
(** The underlying plan-cache counters (see {!Tl_core.Plan_cache.stats}). *)

val plan_cache : t -> Tl_core.Plan_cache.t
(** The engine's own plan cache, for inspecting what it holds. *)
