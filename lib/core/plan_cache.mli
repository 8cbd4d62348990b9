(** A cache of compiled estimation plans.

    Serving workloads repeat queries; compiling a plan is nearly all of
    the cost of a one-shot {!Estimator.estimate}, so the win is entirely
    in reuse.
    The cache interns plans in one {!Tl_util.Lru} table behind one mutex —
    the same O(1) eviction structure behind {!Adaptive}, so the two
    adaptive layers age their state under one coordinated policy.  A
    caller takes the lock once per batch: {!find} looks up every distinct
    key of the batch, the caller compiles the misses outside the lock (in
    parallel if it likes), and {!add} interns them.  A replaced serving
    bundle frees every plan its cache holds.

    Hits, misses (= compiles), and evictions are published to
    {!Tl_obs.Metrics} under [plan_cache.*]: evictions as they happen,
    hits and misses by the callers of {!find}, once per batch
    ({!count_lookups}). *)

type t

val create : ?capacity:int -> Tl_lattice.Summary.t -> t
(** A cache of at most [capacity] interned plans (default 1024; raises
    [Invalid_argument] below 1) over a fixed summary.  Every plan served is
    asserted (in debug builds) to carry the
    {!Tl_lattice.Summary.stamp} of this cache's summary, so a plan
    compiled against another summary can never leak through. *)

val find : t -> Estimator.scheme -> Tl_twig.Twig.Key.t array -> Estimator.Plan.t option array
(** The cached plan of each canonical key under the scheme, under one
    lock.  Each key counts a hit or a miss, and a hit marks its plan most
    recently used.  Safe to call from any thread or domain. *)

val add : t -> Estimator.scheme -> (Tl_twig.Twig.Key.t * Estimator.Plan.t) list -> unit
(** Intern plans the caller compiled against this cache's summary, under
    one lock.  Where a racing caller added a plan for the same key first,
    the cache keeps that one; both give the same estimate. *)

val plan_key_hit : t -> Estimator.scheme -> Tl_twig.Twig.Key.t -> Estimator.Plan.t * bool
(** The one-key case of {!find} and {!add}: the compiled plan for the
    canonical key under the scheme, with the cache-hit flag ([false]
    when it compiled).  It publishes no hit or miss: the caller adds
    its lookups with {!count_lookups}. *)

val count_lookups : hits:int -> misses:int -> unit
(** Add to the [plan_cache.hits] and [plan_cache.misses] counters (a
    counter with nothing to add is left untouched). *)

type stats = {
  size : int;  (** plans interned *)
  capacity : int;
  hits : int;  (** lookups answered from the cache *)
  misses : int;  (** lookups that found no plan *)
  evictions : int;  (** plans displaced by newer ones *)
}

val stats : t -> stats
(** The cache's counters, under its lock. *)
