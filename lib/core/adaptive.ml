module Twig = Tl_twig.Twig

(* The feedback cache keys on interned canonical ids and keeps recency in
   Tl_util.Lru's intrusive list, so observe-time eviction is O(1) instead
   of the seed's full-table scan for the oldest entry.  The plan cache
   (Plan_cache) sits on the same structure — one eviction mechanism, one
   stats shape, shared between the two workload-adaptive layers. *)
module Cache = Tl_util.Lru.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

(* Every cache operation — including the recency splice inside a read —
   runs under [lock].  [Lru.find] mutates the intrusive list and the
   hit/miss counters, so an unguarded concurrent [lookup] can corrupt
   links or lose counts; serving batches evaluate across a domain pool
   with [Engine.batch ~extra:(lookup a)], which makes the safe-by-default
   contract non-negotiable.  The lock is taken per operation, not once
   per batch as Plan_cache's is, because lookups come from inside a
   plan's evaluation, on whichever domain runs it; each is a handful of
   int hashes and pointer splices, and the critical section never
   allocates on the hit path. *)
type t = { tl : Treelattice.t; lock : Mutex.t; cache : int Cache.t }

let create ?(capacity = 256) tl =
  if capacity < 1 then invalid_arg "Adaptive.create: capacity must be >= 1";
  { tl; lock = Mutex.create (); cache = Cache.create ~capacity }

let base t = t.tl

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let lookup t key =
  let id = Twig.Key.id key in
  locked t (fun () -> Option.map float_of_int (Cache.find t.cache id))

let observe t twig count =
  if count < 0 then invalid_arg "Adaptive.observe: negative count";
  let key = Twig.key twig in
  (* The lattice already stores every pattern within its depth exactly;
     caching those would only waste capacity. *)
  if Twig.Key.size key > Tl_lattice.Summary.k (Treelattice.summary t.tl) then begin
    let id = Twig.Key.id key in
    locked t (fun () -> Cache.add t.cache id count)
  end

let observe_exact t twig =
  let count = Treelattice.exact t.tl twig in
  observe t twig count;
  count

let estimate ?(scheme = Treelattice.default_scheme) t twig =
  Estimator.estimate ~extra:(lookup t) (Treelattice.summary t.tl) scheme twig

let estimate_interval t twig =
  Estimator.estimate_interval ~extra:(lookup t) (Treelattice.summary t.tl) twig

let cached_patterns t = locked t (fun () -> Cache.size t.cache)

let hit_count t = locked t (fun () -> (Cache.stats t.cache).Cache.hits)

type stats = { size : int; capacity : int; hits : int; misses : int; evictions : int }

let stats t =
  let s = locked t (fun () -> Cache.stats t.cache) in
  {
    size = s.Cache.size;
    capacity = s.Cache.capacity;
    hits = s.Cache.hits;
    misses = s.Cache.misses;
    evictions = s.Cache.evictions;
  }

let check_integrity t = locked t (fun () -> Cache.validate t.cache)
