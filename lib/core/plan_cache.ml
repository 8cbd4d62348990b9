module Twig = Tl_twig.Twig
module Summary = Tl_lattice.Summary
module Metrics = Tl_obs.Metrics

(* Plans are keyed on (scheme, interned canonical id): two queries that
   canonicalize to the same twig share one compiled program per scheme. *)
module K = struct
  type t = Estimator.scheme * int

  let equal (s1, i1) (s2, i2) = Int.equal i1 i2 && s1 = s2

  let hash = Hashtbl.hash
end

module Shared = Tl_util.Lru.Make (K)
module Tbl = Hashtbl.Make (K)

(* Each domain reads through a private unsynchronized shard first, so the
   steady-state path of a warm batch never touches the mutex.  A shard is
   a plain bounded hash table, not an LRU: when it outgrows its capacity
   it is dropped wholesale and refills from the shared table.  A shard may
   briefly serve a plan the shared LRU has already evicted — harmless,
   since plans are immutable and eviction is about memory, not
   correctness.  The shards belong to the cache ([Tl_util.Per_domain]),
   so they are collected with it. *)
type shard = { stbl : Estimator.Plan.t Tbl.t; mutable local_hits : int }

type t = {
  summary : Summary.t;
  capacity : int;
  mutex : Mutex.t;
  shared : Estimator.Plan.t Shared.t;  (* guarded by [mutex] *)
  shards : shard Tl_util.Per_domain.t;
}

let create ?(capacity = 1024) summary =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  {
    summary;
    capacity;
    mutex = Mutex.create ();
    shared = Shared.create ~capacity;
    shards = Tl_util.Per_domain.create (fun () -> { stbl = Tbl.create 64; local_hits = 0 });
  }

(* Every plan leaving the cache must carry the stamp of the cache's own
   summary: a violation means a plan compiled under another summary leaked
   in (or the cache was rebound), which would silently serve estimates for
   the wrong dataset.  The check is one int compare per lookup. *)
let check_plan t plan =
  assert (Estimator.Plan.summary_stamp plan = Summary.stamp t.summary);
  plan

let store_local t shard k plan =
  if Tbl.length shard.stbl >= t.capacity then Tbl.reset shard.stbl;
  Tbl.replace shard.stbl k plan

(* Record shared-LRU displacements into the metrics stream as they happen
   (the LRU itself only keeps a cumulative counter). *)
let add_shared t k plan =
  let before = (Shared.stats t.shared).Shared.evictions in
  Shared.add t.shared k plan;
  let displaced = (Shared.stats t.shared).Shared.evictions - before in
  if displaced > 0 then Metrics.add "plan_cache.evictions" displaced

let plan_key_hit t scheme key =
  let k = (scheme, Twig.Key.id key) in
  let shard = Tl_util.Per_domain.get t.shards in
  match Tbl.find_opt shard.stbl k with
  | Some plan ->
    shard.local_hits <- shard.local_hits + 1;
    (check_plan t plan, true)
  | None ->
    Mutex.lock t.mutex;
    let shared = Shared.find t.shared k in
    (match shared with
    | Some plan ->
      Mutex.unlock t.mutex;
      store_local t shard k plan;
      (check_plan t plan, true)
    | None ->
      (* Compile outside the lock: concurrent first requests for the same
         query may compile twice, but the loser's plan is dropped in favor
         of the interned one, so every caller shares a single program. *)
      Mutex.unlock t.mutex;
      let plan = Estimator.Plan.compile t.summary scheme (Twig.Key.twig key) in
      Mutex.lock t.mutex;
      let plan =
        match Shared.peek t.shared k with
        | Some existing ->
          Shared.add t.shared k existing;
          existing
        | None ->
          add_shared t k plan;
          plan
      in
      Mutex.unlock t.mutex;
      store_local t shard k plan;
      (check_plan t plan, false))

(* Lookups are published by the caller, so a batch pays two counter
   updates rather than one per distinct query. *)
let count_lookups ~hits ~misses =
  if hits > 0 then Metrics.add "plan_cache.hits" hits;
  if misses > 0 then Metrics.add "plan_cache.misses" misses

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  local_hits : int;
}

let stats t =
  let local_hits =
    List.fold_left (fun acc (sh : shard) -> acc + sh.local_hits) 0 (Tl_util.Per_domain.all t.shards)
  in
  Mutex.lock t.mutex;
  let s = Shared.stats t.shared in
  Mutex.unlock t.mutex;
  {
    size = s.Shared.size;
    capacity = s.Shared.capacity;
    hits = s.Shared.hits + local_hits;
    misses = s.Shared.misses;
    evictions = s.Shared.evictions;
    local_hits;
  }
