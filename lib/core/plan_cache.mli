(** A domain-sharded cache of compiled estimation plans.

    Serving workloads repeat queries; compiling a plan is nearly all of
    the cost of a one-shot {!Estimator.estimate}, so the win is entirely
    in reuse.
    The cache interns plans in a shared {!Tl_util.Lru} table — the same
    O(1) eviction structure behind {!Adaptive}, so the two adaptive
    layers age their state under one coordinated policy — and fronts it
    with a private per-domain read-through shard that the cache owns
    ({!Tl_util.Per_domain}): a warm lookup is one atomic load and one
    unsynchronized hash probe, no lock.  The shards are collected with the
    cache, so a replaced serving bundle frees every plan it compiled.

    Hits, misses (= compiles), and evictions are published to
    {!Tl_obs.Metrics} under [plan_cache.*]: evictions as they happen,
    hits and misses by the callers of {!plan_key_hit}, once per batch
    ({!count_lookups}). *)

type t

val create : ?capacity:int -> Tl_lattice.Summary.t -> t
(** A cache of at most [capacity] interned plans (default 1024; raises
    [Invalid_argument] below 1) over a fixed summary.  Each domain's
    read-through shard holds at most [capacity] entries too, and refills
    from the shared table after being dropped.  Every plan served is
    asserted (in debug builds) to carry the
    {!Tl_lattice.Summary.stamp} of this cache's summary, so a plan
    compiled against another summary can never leak through. *)

val plan_key_hit : t -> Estimator.scheme -> Tl_twig.Twig.Key.t -> Estimator.Plan.t * bool
(** The compiled plan for the canonical key under the scheme, with the
    cache-hit flag the serving audit log records: served from this
    domain's shard, then the shared table ([true]), and compiled only on
    a true miss ([false]).  Safe to call concurrently from any domain;
    racing first requests may compile redundantly but always return the
    single interned plan.  It publishes no hit or miss: the caller adds
    its lookups with {!count_lookups}. *)

val count_lookups : hits:int -> misses:int -> unit
(** Add to the [plan_cache.hits] and [plan_cache.misses] counters (a
    counter with nothing to add is left untouched). *)

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
