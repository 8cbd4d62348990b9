(** A domain-sharded cache of compiled estimation plans.

    Serving workloads repeat queries; compiling a plan is nearly all of
    the cost of a one-shot {!Estimator.estimate}, so the win is entirely
    in reuse.
    The cache interns plans in a shared {!Tl_util.Lru} table — the same
    O(1) eviction structure behind {!Adaptive}, so the two adaptive
    layers age their state under one coordinated policy — and fronts it
    with a private per-domain read-through shard in domain-local storage:
    a warm lookup is one unsynchronized hash probe, no lock, no atomics.

    Hits, misses (= compiles), and evictions are published to
    {!Tl_obs.Metrics} under [plan_cache.*]. *)

type t

val create : ?capacity:int -> ?shard_capacity:int -> ?epoch:int -> Tl_lattice.Summary.t -> t
(** A cache of at most [capacity] interned plans (default 1024; raises
    [Invalid_argument] below 1) over a fixed summary.  Each domain's
    read-through shard holds at most [shard_capacity] entries (default:
    [capacity]) and refills from the shared table after being dropped.
    [epoch] (default 0) tags the cache with the serving epoch of the
    summary it wraps; the cache itself only reports it back via {!epoch}.
    Every plan served is asserted (in debug builds) to carry the
    {!Tl_lattice.Summary.stamp} of this cache's summary, so a plan
    compiled against another summary can never leak through. *)

val summary : t -> Tl_lattice.Summary.t

val epoch : t -> int
(** The serving epoch this cache was created for. *)

val plan : t -> Estimator.scheme -> Tl_twig.Twig.t -> Estimator.Plan.t
(** The compiled plan for the query under the scheme: served from this
    domain's shard, then the shared table, compiled only on a true miss.
    Safe to call concurrently from any domain; racing first requests may
    compile redundantly but always return the single interned plan. *)

val plan_key : t -> Estimator.scheme -> Tl_twig.Twig.Key.t -> Estimator.Plan.t
(** {!plan} for an already-interned canonical key (skips
    re-canonicalization — the batch engine's path). *)

val plan_key_hit : t -> Estimator.scheme -> Tl_twig.Twig.Key.t -> Estimator.Plan.t * bool
(** {!plan_key} plus the cache-hit flag the serving audit log records:
    [true] when the plan was served from a shard or the shared table,
    [false] when this call compiled it. *)

type stats = {
  size : int;  (** plans interned in the shared table *)
  capacity : int;
  hits : int;  (** lookups served without compiling (shard or shared) *)
  misses : int;  (** lookups that compiled *)
  evictions : int;  (** plans displaced from the shared table *)
  local_hits : int;  (** the subset of [hits] served lock-free by a shard *)
}

val stats : t -> stats
(** Aggregated counters.  Takes the shared-table lock; call between
    batches, not inside one. *)
