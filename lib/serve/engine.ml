module Twig = Tl_twig.Twig
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Plan_cache = Tl_core.Plan_cache
module Pool = Tl_util.Pool
module Metrics = Tl_obs.Metrics

type t = { scheme : Estimator.scheme; epoch : int; cache : Plan_cache.t }

let create ?(scheme = Tl_core.Treelattice.default_scheme) ?plan_capacity ?(epoch = 0) summary =
  { scheme; epoch; cache = Plan_cache.create ?capacity:plan_capacity ~epoch summary }

let scheme t = t.scheme

let epoch t = t.epoch

let summary t = Plan_cache.summary t.cache

let stats t = Plan_cache.stats t.cache

let plan_cache t = t.cache

(* An estimate is a count: always finite and >= 0.  A division-by-zero
   inside a decomposition is short-circuited by the estimator itself, but
   an [?extra] feedback source is caller code and can inject nan/infinity
   (or a huge count that overflows a product).  The serving layer is the
   boundary clients trust, so it clamps instead of leaking: non-finite
   results become 0.0 and are counted under [estimates.nonfinite]
   (Prometheus [tl_estimates_nonfinite]).  Metrics shards are per-domain,
   so clamping inside a pooled batch is race-free. *)
let sanitize v =
  if Float.is_finite v then v
  else begin
    Metrics.incr "estimates.nonfinite";
    0.0
  end

(* One distinct query's answer and whether its plan was cached.  The
   lookup counters are the caller's to publish ([publish]).  Without an
   audit log nothing else is recorded. *)
let eval_plain ~scheme ?extra t key =
  assert (Plan_cache.epoch t.cache = t.epoch);
  let plan, plan_hit = Plan_cache.plan_key_hit t.cache scheme key in
  (sanitize (Estimator.Plan.eval ?extra plan), plan_hit)

(* The audited evaluation path.  It exists alongside the bare path (not
   instead of it) so an engine without an audit log pays for no clock
   reads or records — the <= 5% overhead budget is spent only when
   someone is listening.  [exact] is the drift monitor's replayed truth
   for this query, when it sampled it. *)
let eval_audited ~scheme ?extra ?exact t audit key =
  let t0 = Tl_util.Mono_clock.now_ns () in
  assert (Plan_cache.epoch t.cache = t.epoch);
  let plan, plan_hit = Plan_cache.plan_key_hit t.cache scheme key in
  let raw, feedback_hit = Estimator.Plan.eval_flagged ?extra plan in
  let clamped = not (Float.is_finite raw) in
  let v =
    if clamped then begin
      Metrics.incr "estimates.nonfinite";
      0.0
    end
    else raw
  in
  let latency_ns = Tl_util.Mono_clock.now_ns () - t0 in
  let rel_error =
    match exact with
    | None -> Float.nan
    | Some exact -> Float.abs (v -. exact) /. Float.max 1.0 (Float.abs exact)
  in
  Audit.record audit ~key_id:(Twig.Key.id key)
    ~scheme:(Estimator.scheme_name scheme) ~estimate:v ~latency_ns ~plan_hit ~feedback_hit
    ~clamped ~rel_error;
  (v, plan_hit)

(* The counters of [evaluated] distinct queries, [hits] of them served
   from cached plans: one update per counter per call, not per query. *)
let publish ?audit ~evaluated ~hits () =
  Plan_cache.count_lookups ~hits ~misses:(evaluated - hits);
  if Option.is_some audit then Audit.count_records evaluated

let estimate_key ?scheme ?extra ?audit t key =
  let scheme = Option.value scheme ~default:t.scheme in
  let v, hit =
    match audit with
    | None -> eval_plain ~scheme ?extra t key
    | Some audit -> eval_audited ~scheme ?extra t audit key
  in
  publish ?audit ~evaluated:1 ~hits:(Bool.to_int hit) ();
  v

let estimate ?scheme ?extra ?audit t twig =
  estimate_key ?scheme ?extra ?audit t (Twig.key (Twig.canonicalize twig))

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

let batch_keys ?pool ?scheme ?extra ?audit ?monitor t keys =
  let scheme = Option.value scheme ~default:t.scheme in
  let n = Array.length keys in
  (* Serving batches repeat queries; evaluate each distinct key once and
     scatter.  Dedup keys on interned ids — O(n) int hashing.  Each
     distinct key carries its slot [u]. *)
  let slot_of = Array.make n 0 in
  let index_of : (int, int) Hashtbl.t = Hashtbl.create (2 * n) in
  let rev_uniques = ref [] in
  let n_uniques = ref 0 in
  for i = 0 to n - 1 do
    let id = Twig.Key.id keys.(i) in
    match Hashtbl.find_opt index_of id with
    | Some u -> slot_of.(i) <- u
    | None ->
      let u = !n_uniques in
      Hashtbl.replace index_of id u;
      rev_uniques := (u, keys.(i)) :: !rev_uniques;
      incr n_uniques;
      slot_of.(i) <- u
  done;
  let uniques = Array.of_list (List.rev !rev_uniques) in
  (* Drift sampling happens here, on the caller domain, before the
     parallel evaluation: [Monitor.consider] replays the exact oracle,
     and neither Match_count contexts nor the adaptive layer are
     domain-safe.  Workers only read the resulting array. *)
  let exacts =
    match monitor with
    | None -> [||]
    | Some m -> Array.map (fun (_, key) -> Monitor.consider m key) uniques
  in
  let eval =
    match audit with
    | None -> fun (_, key) -> eval_plain ~scheme ?extra t key
    | Some audit ->
      fun (u, key) ->
        let exact = if u < Array.length exacts then exacts.(u) else None in
        eval_audited ~scheme ?extra ?exact t audit key
  in
  let unique_results =
    match pool with
    | Some pool when Pool.domains pool > 1 ->
      Pool.parallel_chunked_map pool ~cutoff:eval_parallel_cutoff
        ~cost:(fun (_, key) -> eval_cost key)
        ~init:(fun () -> ())
        (fun () -> eval)
        uniques
    | _ -> Array.map eval uniques
  in
  let hits = Array.fold_left (fun acc (_, hit) -> if hit then acc + 1 else acc) 0 unique_results in
  publish ?audit ~evaluated:!n_uniques ~hits ();
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
        | Some exact -> ignore (Monitor.observe m ~exact ~estimate:(fst unique_results.(u))))
      exacts);
  Array.map (fun u -> fst unique_results.(u)) slot_of

let batch ?pool ?scheme ?extra ?audit ?monitor t twigs =
  batch_keys ?pool ?scheme ?extra ?audit ?monitor t
    (Array.map (fun tw -> Twig.key (Twig.canonicalize tw)) twigs)
