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

module Lru = Tl_util.Lru.Make (K)

(* One LRU behind one mutex.  Its callers take the lock once per batch
   for [find] and once more for [add], never per key, and compile outside
   it, so a pool can compile a batch's misses in parallel. *)
type t = {
  summary : Summary.t;
  mutex : Mutex.t;
  lru : Estimator.Plan.t Lru.t;  (* guarded by [mutex] *)
}

let create ?(capacity = 1024) summary =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  { summary; mutex = Mutex.create (); lru = Lru.create ~capacity }

(* Every plan leaving the cache must carry the stamp of the cache's own
   summary: a violation means a plan compiled under another summary leaked
   in (or the cache was rebound), which would silently serve estimates for
   the wrong dataset.  The check is one int compare per lookup. *)
let check_plan t plan = assert (Estimator.Plan.summary_stamp plan = Summary.stamp t.summary)

let find t scheme keys =
  Mutex.lock t.mutex;
  let plans = Array.map (fun key -> Lru.find t.lru (scheme, Twig.Key.id key)) keys in
  Mutex.unlock t.mutex;
  Array.iter (Option.iter (check_plan t)) plans;
  plans

(* A plan another caller added first stays: it is only marked recent.
   Displacements are published as they happen (the LRU itself only keeps
   a cumulative counter). *)
let add t scheme compiled =
  if compiled <> [] then begin
    Mutex.lock t.mutex;
    let before = (Lru.stats t.lru).evictions in
    List.iter
      (fun (key, plan) ->
        let k = (scheme, Twig.Key.id key) in
        Lru.add t.lru k (Option.value (Lru.peek t.lru k) ~default:plan))
      compiled;
    let displaced = (Lru.stats t.lru).evictions - before in
    Mutex.unlock t.mutex;
    if displaced > 0 then Metrics.add "plan_cache.evictions" displaced
  end

let plan_key_hit t scheme key =
  match (find t scheme [| key |]).(0) with
  | Some plan -> (plan, true)
  | None ->
    let plan = Estimator.Plan.compile t.summary scheme (Twig.Key.twig key) in
    add t scheme [ (key, plan) ];
    (plan, false)

(* Lookups are published by the caller, so a batch pays two counter
   updates rather than one per distinct query. *)
let count_lookups ~hits ~misses =
  if hits > 0 then Metrics.add "plan_cache.hits" hits;
  if misses > 0 then Metrics.add "plan_cache.misses" misses

type stats = Lru.stats = { size : int; capacity : int; hits : int; misses : int; evictions : int }

let stats t =
  Mutex.lock t.mutex;
  let s = Lru.stats t.lru in
  Mutex.unlock t.mutex;
  s
