module Twig = Tl_twig.Twig
module Estimator = Tl_core.Estimator
module Plan_cache = Tl_core.Plan_cache
module Pool = Tl_util.Pool
module Metrics = Tl_obs.Metrics

type t = { scheme : Estimator.scheme; summary : Tl_lattice.Summary.t; cache : Plan_cache.t }

let create ?(scheme = Tl_core.Treelattice.default_scheme) ?plan_capacity summary =
  { scheme; summary; cache = Plan_cache.create ?capacity:plan_capacity summary }

let scheme t = t.scheme

let stats t = Plan_cache.stats t.cache

let plan_cache t = t.cache

(* Per-unique-query work for the pool's cost-aware chunking: decomposition
   work grows superlinearly with twig size, and a batch that mixes a few
   deep twigs into a sea of small ones is exactly the skew the hint is
   for.  Quadratic is a deliberate overestimate — too coarse only costs a
   few extra chunk boundaries. *)
let eval_cost key =
  let s = Twig.Key.size key in
  s * s

(* Below this many distinct queries a batch evaluates on the caller: a
   warm evaluation is nanoseconds per query, so the pool's wake/rendezvous
   overhead dwarfs a tiny batch — the common shape of one TCP client
   flushing a handful of lines.  Kept low so multi-domain stress tests
   (which use ~a dozen distinct queries) still exercise the pooled path. *)
let eval_parallel_cutoff = 8

(* The estimates of distinct keys under one scheme: the one path that
   looks up a plan, compiles a missing one, evaluates it and clamps the
   result.  The cache lock is taken once to find every key's plan and
   once more to add the plans compiled for the misses; in between,
   [eval_one] runs on the caller or across the pool and touches no
   cache, so a batch's misses compile in parallel.

   An estimate is a count: always finite and >= 0.  A division-by-zero
   inside a decomposition is short-circuited by the estimator itself, but
   an [?extra] feedback source is caller code and can inject nan/infinity
   (or a huge count that overflows a product).  The serving layer is the
   boundary clients trust, so it clamps instead of leaking: non-finite
   results become 0.0 and are counted under [estimates.nonfinite]
   (Prometheus [tl_estimates_nonfinite]).  Metrics shards are per-domain,
   so clamping inside a pooled batch is race-free.

   Only with an audit log is the clock read and a record left, so the
   <= 5% overhead budget is spent only when someone is listening.
   [exacts.(u)], when present, is the drift monitor's replayed truth for
   key [u]. *)
let eval ~scheme ?pool ?extra ?audit ?(exacts = [||]) t keys =
  let n = Array.length keys in
  let cached = Plan_cache.find t.cache scheme keys in
  let eval_one u =
    let key = keys.(u) in
    let t0 = if Option.is_some audit then Tl_util.Mono_clock.now_ns () else 0 in
    let plan =
      match cached.(u) with
      | Some plan -> plan
      | None -> Estimator.Plan.compile t.summary scheme (Twig.Key.twig key)
    in
    let raw, feedback_hit = Estimator.Plan.eval_flagged ?extra plan in
    let clamped = not (Float.is_finite raw) in
    let v =
      if clamped then begin
        Metrics.incr "estimates.nonfinite";
        0.0
      end
      else raw
    in
    (match audit with
    | None -> ()
    | Some audit ->
      let rel_error =
        match if u < Array.length exacts then exacts.(u) else None with
        | None -> Float.nan
        | Some exact -> Float.abs (v -. exact) /. Float.max 1.0 (Float.abs exact)
      in
      Audit.record audit ~key_id:(Twig.Key.id key)
        ~scheme:(Estimator.scheme_name scheme) ~estimate:v
        ~latency_ns:(Tl_util.Mono_clock.now_ns () - t0)
        ~plan_hit:(Option.is_some cached.(u)) ~feedback_hit ~clamped ~rel_error);
    (v, plan)
  in
  let results =
    match pool with
    | Some pool when Pool.domains pool > 1 ->
      Pool.parallel_chunked_map pool ~cutoff:eval_parallel_cutoff
        ~cost:(fun u -> eval_cost keys.(u))
        ~init:(fun () -> ())
        (fun () -> eval_one)
        (Array.init n Fun.id)
    | _ -> Array.init n eval_one
  in
  let compiled = ref [] and hits = ref 0 in
  for u = n - 1 downto 0 do
    if Option.is_some cached.(u) then incr hits
    else compiled := (keys.(u), snd results.(u)) :: !compiled
  done;
  Plan_cache.add t.cache scheme !compiled;
  Plan_cache.count_lookups ~hits:!hits ~misses:(n - !hits);
  Array.map fst results

let estimate ?scheme ?extra t twig =
  let scheme = Option.value scheme ~default:t.scheme in
  (eval ~scheme ?extra t [| Twig.key (Twig.canonicalize twig) |]).(0)

let batch ?pool ?extra ?audit ?monitor t twigs =
  let n = Array.length twigs in
  (* Serving batches repeat queries; evaluate each distinct key once and
     scatter.  Dedup keys on interned ids — O(n) int hashing.  Distinct
     key [u] is [uniques.(u)]. *)
  let slot_of = Array.make n 0 in
  let index_of : (int, int) Hashtbl.t = Hashtbl.create (2 * n) in
  let rev_uniques = ref [] in
  let n_uniques = ref 0 in
  for i = 0 to n - 1 do
    let key = Twig.key (Twig.canonicalize twigs.(i)) in
    let id = Twig.Key.id key in
    match Hashtbl.find_opt index_of id with
    | Some u -> slot_of.(i) <- u
    | None ->
      let u = !n_uniques in
      Hashtbl.replace index_of id u;
      rev_uniques := key :: !rev_uniques;
      incr n_uniques;
      slot_of.(i) <- u
  done;
  let uniques = Array.of_list (List.rev !rev_uniques) in
  (* Drift sampling happens here, on the caller domain, before the
     parallel evaluation: [Monitor.consider] replays the exact oracle,
     and neither Match_count contexts nor the adaptive layer are
     domain-safe.  Workers only read the resulting array. *)
  let exacts =
    match monitor with None -> [||] | Some m -> Array.map (Monitor.consider m) uniques
  in
  let values = eval ~scheme:t.scheme ?pool ?extra ?audit ~exacts t uniques in
  if Option.is_some audit then Audit.count_records !n_uniques;
  (* Monitor observations run after the batch, on the caller domain, in
     unique order: window contents, gauges, and the alarm are then
     deterministic for a fixed seed and query sequence even when the
     evaluation itself ran on a pool. *)
  (match monitor with
  | None -> ()
  | Some m ->
    Array.iteri
      (fun u exact ->
        match exact with
        | None -> ()
        | Some exact -> ignore (Monitor.observe m ~exact ~estimate:values.(u)))
      exacts);
  Array.map (fun u -> values.(u)) slot_of
