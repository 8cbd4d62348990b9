(** A fixed-size OCaml 5 domain pool for data-parallel maps.

    The pool owns [domains - 1] worker domains (the caller is the remaining
    participant); work is claimed chunk-by-chunk from a shared atomic
    cursor, so uneven per-element costs balance automatically.  Results are
    written into their input slot, which makes every map {e deterministic}:
    output order never depends on scheduling, only on input order.  A pool
    created with [~domains:1] spawns nothing and runs every map on the
    caller's own sequential path, so results are bit-identical with or
    without a pool.

    Maps may be issued from any thread of the domain that created the
    pool; concurrent maps serialize on an internal (non-reentrant) lock,
    so the TCP server's worker threads and the CLI loop can share one
    pool without caller-side coordination.  Nesting a map inside a mapped
    function still deadlocks.  Worker domains idle cheaply between calls
    (blocked on a condition variable), so one pool can and should be
    reused across a whole run. *)

type t

val default_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core for
    the rest of the process, never less than one participant. *)

val create : ?domains:int -> unit -> t
(** A pool with [domains] total participants (default
    {!default_domains}; values [< 1] are clamped to 1).  [domains - 1]
    worker domains are spawned immediately. *)

val domains : t -> int
(** Total participants, including the calling domain. *)

val parallel_map : t -> ?cutoff:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] is [Array.map f arr] with elements evaluated
    across the pool's domains.  [f] must not touch mutable state shared
    with other elements.  The first exception raised by any [f] is
    re-raised in the caller (with its backtrace) after all participants
    stop claiming work.  See {!parallel_chunked_map} for [cutoff]. *)

val parallel_chunked_map :
  t ->
  ?cutoff:int ->
  ?chunk_size:int ->
  ?cost:('a -> int) ->
  init:(unit -> 's) ->
  ('s -> 'a -> 'b) ->
  'a array ->
  'b array
(** Like {!parallel_map}, but each participant first creates private local
    state with [init] (at most once, lazily) and threads it through every
    element it processes — the shape needed when the per-element function
    wants a reusable scratch structure, e.g. a {!Tl_twig.Match_count}
    context cloned per domain.  [chunk_size] overrides the number of
    consecutive elements claimed per cursor fetch (default: scaled to
    roughly eight chunks per participant).

    [cost] is a per-item relative cost hint for skewed workloads (values
    [< 1] are clamped to 1; it overrides [chunk_size]): chunk boundaries
    are cut so each chunk carries a roughly equal cost share rather than
    an equal item count, which stops one expensive item — claimed late,
    bundled with a long run of cheap ones — from serializing the tail of
    the map.  Hints only shape chunking; results are identical with or
    without them.

    [cutoff] is the work-size floor for going parallel: inputs with fewer
    than [cutoff] items run on the caller's sequential path (identical
    results — the qcheck property in [test/test_pool.ml] holds for every
    cutoff).  Waking helpers, contending the chunk cursor, and the
    end-of-map rendezvous cost real time that a small batch of cheap
    elements never earns back; callers that know their per-item cost
    should scale the floor accordingly (the serving engine uses a fixed
    small floor; the miner skips the pool when a batch's summed cost is
    small).  The default keeps every multi-element input parallel.

    Degenerate inputs are safe: an empty array returns [[||]] without
    calling [init], [cost], or [f], and an all-zero or negative cost
    function can never produce a zero divisor or an empty chunk. *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent; mapping on a shut-down pool
    raises [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
