(* Tests for compiled plans, the plan cache, and the batch engine.  The
   load-bearing property is bit-identity: a compiled plan (cold or
   cached, sequential or parallel, with or without feedback) must return
   the exact float of the direct estimator — not merely a close one. *)

module Twig = Tl_twig.Twig
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Plan = Tl_core.Estimator.Plan
module Plan_cache = Tl_core.Plan_cache
module Engine = Tl_serve.Engine
module Pool = Tl_util.Pool

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits name a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %h = %h" name a b) true (same_float a b)

let schemes =
  [
    Estimator.Recursive;
    Estimator.Recursive_voting;
    Estimator.Fixed_size;
    Estimator.Fixed_size_voting 1;
    Estimator.Fixed_size_voting 5;
  ]

(* A deterministic feedback source covering both hit and miss paths;
   keyed on interned ids so both estimation paths see identical answers
   within one property evaluation. *)
let extra key =
  let id = Twig.Key.id key in
  if id mod 3 = 0 then Some (0.5 +. float_of_int (Twig.Key.size key)) else None

(* --- plan vs direct estimator ------------------------------------------------ *)

let prop_plan_matches_direct =
  Helpers.qcheck_case ~name:"plan eval is bit-identical to direct estimate" ~count:40
    QCheck2.Gen.(pair (Helpers.tree_gen ~max_nodes:24) (Helpers.twig_gen ~nlabels:6 ~max_nodes:9 ()))
    (fun (tree, twig) ->
      List.for_all
        (fun k ->
          let summary = Summary.build ~k tree in
          List.for_all
            (fun scheme ->
              let plan = Plan.compile summary scheme twig in
              same_float (Estimator.estimate summary scheme twig) (Plan.eval plan)
              && same_float
                   (Estimator.estimate ~extra summary scheme twig)
                   (Plan.eval ~extra plan)
              (* A second eval must not be perturbed by the first. *)
              && same_float (Estimator.estimate summary scheme twig) (Plan.eval plan))
            schemes)
        [ 2; 3 ])

let test_plan_accessors () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  let plan = Plan.compile summary Estimator.Recursive_voting twig in
  Alcotest.(check bool) "scheme" true (Plan.scheme plan = Estimator.Recursive_voting);
  Alcotest.(check bool)
    "root key" true
    (Twig.Key.id (Plan.root_key plan) = Twig.Key.id (Twig.key (Twig.canonicalize twig)));
  Alcotest.(check bool) "has slots" true (Plan.slot_count plan >= 1);
  (* The worked fig11 value survives compilation. *)
  check_bits "voting value" 7.0 (Plan.eval plan)

let test_plan_probe_reports_without_perturbing () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d),b)" in
  let plan = Plan.compile summary Estimator.Recursive_voting twig in
  let events = ref 0 in
  let probe =
    {
      Estimator.on_lookup = (fun _ _ -> incr events);
      on_pair = (fun ~parent:_ ~t1:_ ~t2:_ ~cap:_ ~twin:_ ~e1:_ ~e2:_ ~ec:_ ~value:_ -> incr events);
      on_value = (fun _ _ -> incr events);
      on_cover_step = (fun ~block:_ ~overlap:_ ~twins:_ ~num:_ ~den:_ ~acc:_ -> incr events);
    }
  in
  check_bits "probe does not change the value" (Plan.eval plan) (Plan.eval ~probe plan);
  Alcotest.(check bool) "probe saw the evaluation" true (!events > 0)

(* --- plan cache ------------------------------------------------------------- *)

let test_plan_cache_interns () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let cache = Plan_cache.create ~capacity:8 (Summary.build ~k:3 tree) in
  let key = Twig.key (Helpers.twig_of_string tree "a(b(c,d))") in
  let p1, hit1 = Plan_cache.plan_key_hit cache Estimator.Recursive key in
  let p2, hit2 = Plan_cache.plan_key_hit cache Estimator.Recursive key in
  Alcotest.(check bool) "same compiled plan" true (p1 == p2);
  Alcotest.(check (pair bool bool)) "compiled, then hit" (false, true) (hit1, hit2);
  let p3, _ = Plan_cache.plan_key_hit cache Estimator.Fixed_size key in
  Alcotest.(check bool) "schemes keyed apart" true (p1 != p3);
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "two plans interned" 2 s.Plan_cache.size;
  Alcotest.(check int) "one reuse" 1 s.Plan_cache.hits;
  Alcotest.(check int) "two compiles" 2 s.Plan_cache.misses

let test_plan_cache_eviction_bounded () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let cache = Plan_cache.create ~capacity:2 (Summary.build ~k:3 tree) in
  let queries = [ "a(b(c,d))"; "a(b(c),b(d))"; "a(b,b,b,b)"; "a(b(c,c,d))" ] in
  List.iter
    (fun q ->
      let key = Twig.key (Helpers.twig_of_string tree q) in
      ignore (Plan_cache.plan_key_hit cache Estimator.Recursive key))
    queries;
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "bounded" 2 s.Plan_cache.size;
  Alcotest.(check int) "evictions recorded" 2 s.Plan_cache.evictions

(* A hit marks its plan most recently used, so the next compile into a
   full cache evicts the other plan: with capacity 2, looking up a, b, a,
   c leaves a cached. *)
let test_plan_cache_hit_keeps_plan () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let cache = Plan_cache.create ~capacity:2 (Summary.build ~k:3 tree) in
  let hit q =
    snd (Plan_cache.plan_key_hit cache Estimator.Recursive (Twig.key (Helpers.twig_of_string tree q)))
  in
  Alcotest.(check (list bool))
    "a, b, a hit, c compiled, a hit again" [ false; false; true; false; true ]
    (List.map hit [ "a(b(c,d))"; "a(b(c),b(d))"; "a(b(c,d))"; "a(b,b,b,b)"; "a(b(c,d))" ])

(* --- batch engine ------------------------------------------------------------ *)

let fig11_queries = [ "a(b(c,d))"; "a(b(c),b(d))"; "a(b,b)"; "b(c,d)"; "a(b(c,d),b)" ]

let test_batch_matches_direct () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let engine = Engine.create summary in
  let distinct = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  (* A skewed batch: every query appears many times. *)
  (* A skewed batch hitting every distinct query (7 generates mod 5). *)
  let batch = Array.init 60 (fun i -> distinct.(i * 7 mod Array.length distinct)) in
  let results = Engine.batch engine batch in
  Array.iteri
    (fun i twig ->
      check_bits
        (Printf.sprintf "query %d" i)
        (Estimator.estimate summary Tl_core.Treelattice.default_scheme twig)
        results.(i))
    batch;
  let s = Engine.stats engine in
  Alcotest.(check int) "distinct compiles only" (Array.length distinct) s.Plan_cache.misses;
  (* A warm re-run is served entirely from the cache. *)
  let again = Engine.batch engine batch in
  Alcotest.(check bool) "warm = cold" true (Array.for_all2 same_float results again);
  Alcotest.(check bool) "cache hits recorded" true ((Engine.stats engine).Plan_cache.hits > 0)

let prop_parallel_batch_matches_sequential =
  Helpers.qcheck_case ~name:"parallel warm/cold batches match sequential" ~count:12
    QCheck2.Gen.(
      pair (Helpers.tree_gen ~max_nodes:20)
        (array_size (return 40) (Helpers.twig_gen ~nlabels:6 ~max_nodes:7 ())))
    (fun (tree, batch) ->
      let summary = Summary.build ~k:2 tree in
      let sequential = Engine.batch (Engine.create summary) batch in
      Pool.with_pool ~domains:4 (fun pool ->
          let cold_engine = Engine.create summary in
          let cold = Engine.batch ~pool cold_engine batch in
          let warm = Engine.batch ~pool cold_engine batch in
          Array.for_all2 same_float sequential cold && Array.for_all2 same_float sequential warm))

let test_batch_with_extra_matches_direct () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let engine = Engine.create summary in
  let batch = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let results = Engine.batch ~extra engine batch in
  Array.iteri
    (fun i twig ->
      check_bits
        (Printf.sprintf "query %d with feedback" i)
        (Estimator.estimate ~extra summary Tl_core.Treelattice.default_scheme twig)
        results.(i))
    batch

(* The safe-by-default contract of the tentpole fix: a multi-domain batch
   may feed from a live Adaptive cache with no caller-side lock.  Against
   the pre-lock Adaptive this test corrupts the intrusive LRU (dangling
   splices) and loses hit/miss increments; with the internal lock every
   repetition must return the reference floats, the stats must account
   for every lookup exactly, and the recency list must stay well-formed. *)
let test_parallel_adaptive_feedback_stress () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let tl = Tl_core.Treelattice.build ~k:3 tree in
  let adaptive = Tl_core.Adaptive.create ~capacity:4 tl in
  let observed =
    [ "a(b(c,d))"; "a(b(c),b(d))"; "a(b,b,b,b)"; "a(b(c,c,d))"; "a(b(c,d),b)"; "a(b(c,d,d))" ]
  in
  (* More observed patterns than capacity, so recency churn and evictions
     happen while workers race on the list. *)
  List.iter
    (fun q -> ignore (Tl_core.Adaptive.observe_exact adaptive (Helpers.twig_of_string tree q)))
    observed;
  let engine = Engine.create (Tl_core.Treelattice.summary tl) in
  let batch =
    let distinct = Array.of_list (List.map (Helpers.twig_of_string tree) (observed @ fig11_queries)) in
    Array.init 88 (fun i -> distinct.(i mod Array.length distinct))
  in
  (* Lookups mutate only recency and counters, never cached contents, so a
     sequential reference run pins the floats every parallel run must
     reproduce. *)
  let reference = Engine.batch ~extra:(Tl_core.Adaptive.lookup adaptive) engine batch in
  let lookups = Atomic.make 0 in
  let extra key =
    Atomic.incr lookups;
    Tl_core.Adaptive.lookup adaptive key
  in
  let before = Tl_core.Adaptive.stats adaptive in
  Pool.with_pool ~domains:4 (fun pool ->
      for _ = 1 to 25 do
        let results = Engine.batch ~pool ~extra engine batch in
        Alcotest.(check bool)
          "parallel batch = sequential reference" true
          (Array.for_all2 same_float reference results)
      done);
  let after = Tl_core.Adaptive.stats adaptive in
  (match Tl_core.Adaptive.check_integrity adaptive with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "corrupt LRU after parallel feedback: %s" msg);
  Alcotest.(check bool) "size bounded" true (after.Tl_core.Adaptive.size <= after.Tl_core.Adaptive.capacity);
  Alcotest.(check int) "hits + misses = lookups" (Atomic.get lookups)
    (after.Tl_core.Adaptive.hits + after.Tl_core.Adaptive.misses
    - (before.Tl_core.Adaptive.hits + before.Tl_core.Adaptive.misses))

(* The server's workers are system threads on one domain.  Four of them
   batch on one engine whose cache holds 4 of the 12 distinct queries,
   while the main thread runs pooled batches on it: every answer is
   [Estimator.estimate]'s float, and the cache counts exactly one lookup
   per distinct query of each batch. *)
let test_threads_share_one_engine () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let engine = Engine.create ~plan_capacity:4 summary in
  let distinct =
    Array.of_list
      (List.map (Helpers.twig_of_string tree)
         (fig11_queries
         @ [ "a(b,b,b,b)"; "a(b(c,c,d))"; "a(b(c,d,d))"; "a(b(d),b(c,c))"; "a(b,b,b)"; "b(c,c,d)"; "a(b(c))" ]))
  in
  let n = Array.length distinct in
  let expected = Array.map (Estimator.estimate summary Tl_core.Treelattice.default_scheme) distinct in
  let lookups = Atomic.make 0 and wrong = Atomic.make 0 in
  let run ?pool seed =
    (* [5 * i] visits every query mod 12, so a batch of [len] lines holds
       [min len 12] distinct queries: some below the pool's cutoff, some
       above. *)
    let idx = Array.init (4 + (seed mod 21)) (fun i -> ((5 * i) + seed) mod n) in
    let results = Engine.batch ?pool engine (Array.map (fun i -> distinct.(i)) idx) in
    Array.iteri (fun j i -> if not (same_float expected.(i) results.(j)) then Atomic.incr wrong) idx;
    ignore (Atomic.fetch_and_add lookups (min (Array.length idx) n))
  in
  let before = Engine.stats engine in
  let threads =
    List.init 4 (fun t ->
        Thread.create
          (fun () ->
            for r = 1 to 200 do
              run ((1000 * t) + r);
              Thread.yield ()
            done)
          ())
  in
  Pool.with_pool ~domains:4 (fun pool ->
      for r = 1 to 100 do
        run ~pool r
      done);
  List.iter Thread.join threads;
  Alcotest.(check int) "answers unlike Estimator.estimate" 0 (Atomic.get wrong);
  let s = Engine.stats engine in
  Alcotest.(check int) "hits + misses = distinct lookups" (Atomic.get lookups)
    (s.Plan_cache.hits + s.Plan_cache.misses - (before.Plan_cache.hits + before.Plan_cache.misses));
  Alcotest.(check bool) "size bounded" true (s.Plan_cache.size <= 4)

(* The serving layer must never leak nan/infinity, whatever a feedback
   source injects: non-finite per-query results clamp to 0 and are counted
   under estimates.nonfinite. *)
let nonfinite_count () =
  match List.assoc_opt "estimates.nonfinite" (Tl_obs.Metrics.snapshot ()).Tl_obs.Metrics.counters with
  | Some n -> n
  | None -> 0

let test_batch_clamps_nonfinite () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let engine = Engine.create summary in
  let twig = Helpers.twig_of_string tree "a(b(c,d),b)" in
  let root_id = Twig.Key.id (Twig.key (Twig.canonicalize twig)) in
  (* nan straight from the source at the root lookup. *)
  let poison key = if Twig.Key.id key = root_id then Some Float.nan else None in
  (* finite-but-huge counts for every sub-twig: the decomposition's
     product overflows to infinity even though the source never returns a
     non-finite float itself. *)
  let overflow key = if Twig.Key.id key = root_id then None else Some 1e308 in
  let direct = Estimator.estimate ~extra:overflow summary Tl_core.Treelattice.default_scheme twig in
  Alcotest.(check bool) "direct path does overflow" true (direct = Float.infinity);
  let before = nonfinite_count () in
  let results = Engine.batch ~extra:poison engine [| twig |] in
  check_bits "nan clamps to 0" 0.0 results.(0);
  let results = Engine.batch ~extra:overflow engine [| twig |] in
  check_bits "overflow clamps to 0" 0.0 results.(0);
  Alcotest.(check int) "both clamps counted" (before + 2) (nonfinite_count ());
  (* A finite batch does not touch the counter. *)
  let before = nonfinite_count () in
  ignore (Engine.batch ~extra engine [| twig |]);
  Alcotest.(check int) "finite batch uncounted" before (nonfinite_count ())

(* --- audit log ---------------------------------------------------------- *)

module Audit = Tl_serve.Audit
module Monitor = Tl_serve.Monitor

let test_audit_ring_and_views () =
  let a = Audit.create ~capacity:4 () in
  let record ~key_id ~latency_ns ~clamped ~rel_error =
    Audit.record a ~key_id ~scheme:"test" ~estimate:1.0 ~latency_ns ~plan_hit:true
      ~feedback_hit:false ~clamped ~rel_error
  in
  record ~key_id:0 ~latency_ns:500 ~clamped:false ~rel_error:Float.nan;
  record ~key_id:1 ~latency_ns:900 ~clamped:false ~rel_error:0.25;
  record ~key_id:2 ~latency_ns:100 ~clamped:true ~rel_error:Float.nan;
  record ~key_id:3 ~latency_ns:700 ~clamped:false ~rel_error:2.0;
  record ~key_id:4 ~latency_ns:300 ~clamped:false ~rel_error:Float.nan;
  (* capacity 4: key 0 aged out of the ring, but total keeps counting *)
  Alcotest.(check int) "total counts all admissions" 5 (Audit.total a);
  Alcotest.(check int) "ring holds capacity" 4 (Audit.size a);
  Alcotest.(check (list int)) "records oldest first" [ 1; 2; 3; 4 ]
    (List.map (fun r -> r.Audit.key_id) (Audit.records a));
  Alcotest.(check (list int)) "recent newest first" [ 4; 3 ]
    (List.map (fun r -> r.Audit.key_id) (Audit.recent ~limit:2 a));
  Alcotest.(check (list int)) "top_slow by latency desc" [ 1; 3 ]
    (List.map (fun r -> r.Audit.key_id) (Audit.top_slow ~k:2 a));
  (* worst confidence: the clamp outranks any finite error; unsampled
     unclamped records never appear *)
  Alcotest.(check (list int)) "top_uncertain clamp first, then error desc" [ 2; 3; 1 ]
    (List.map (fun r -> r.Audit.key_id) (Audit.top_uncertain ~k:5 a));
  let json = Audit.record_json (List.hd (Audit.records a)) in
  Alcotest.(check bool) "unsampled rel_error is JSON null" true
    (Tl_util.Prelude.string_contains ~needle:{|"rel_error":0.25|} json);
  let clamped_json = Audit.record_json (List.nth (Audit.records a) 1) in
  Alcotest.(check bool) "clamped flag serialized" true
    (Tl_util.Prelude.string_contains ~needle:{|"clamped":true|} clamped_json);
  Alcotest.(check bool) "nan rel_error serialized as null" true
    (Tl_util.Prelude.string_contains ~needle:{|"rel_error":null|} clamped_json);
  Audit.reset a;
  Alcotest.(check int) "reset drops held records" 0 (Audit.size a);
  Alcotest.(check int) "reset keeps total" 5 (Audit.total a)

(* The deterministic-merge property: a parallel audited batch leaves the
   same multiset of records as the sequential one, once the fields that
   legitimately vary (admission order, wall-clock latency) are projected
   out.  The engine is warmed first so every record's plan_hit is
   [true] in both runs. *)
let audit_projection a =
  List.sort compare
    (List.map
       (fun r ->
         ( r.Audit.key_id,
           r.Audit.scheme,
           Int64.bits_of_float r.Audit.estimate,
           r.Audit.plan_hit,
           r.Audit.feedback_hit,
           r.Audit.clamped ))
       (Audit.records a))

let prop_parallel_audit_matches_sequential =
  Helpers.qcheck_case ~name:"audit: parallel batch records = sequential multiset" ~count:10
    QCheck2.Gen.(
      pair (Helpers.tree_gen ~max_nodes:20)
        (array_size (return 48) (Helpers.twig_gen ~nlabels:6 ~max_nodes:7 ())))
    (fun (tree, batch) ->
      let summary = Summary.build ~k:2 tree in
      let engine = Engine.create summary in
      ignore (Engine.batch ~extra engine batch);
      let seq_audit = Audit.create () in
      let seq = Engine.batch ~extra ~audit:seq_audit engine batch in
      let par_audit = Audit.create () in
      let par =
        Pool.with_pool ~domains:4 (fun pool ->
            Engine.batch ~pool ~extra ~audit:par_audit engine batch)
      in
      Array.for_all2 same_float seq par
      && audit_projection seq_audit = audit_projection par_audit)

let test_audit_captures_clamp_and_feedback () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let engine = Engine.create summary in
  let twig = Helpers.twig_of_string tree "a(b(c,d),b)" in
  let root_id = Twig.Key.id (Twig.key (Twig.canonicalize twig)) in
  let audit = Audit.create () in
  let poison key = if Twig.Key.id key = root_id then Some Float.nan else None in
  ignore (Engine.batch ~extra:poison ~audit engine [| twig |]);
  (match Audit.records audit with
  | [ r ] ->
    Alcotest.(check bool) "clamp flagged" true r.Audit.clamped;
    Alcotest.(check bool) "feedback hit flagged" true r.Audit.feedback_hit;
    check_bits "clamped estimate recorded as served" 0.0 r.Audit.estimate;
    Alcotest.(check int) "key id recorded" root_id r.Audit.key_id
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
  (* Without feedback the same query is finite and unflagged. *)
  ignore (Engine.batch ~audit engine [| twig |]);
  match Audit.recent ~limit:1 audit with
  | [ r ] ->
    Alcotest.(check bool) "no clamp" false r.Audit.clamped;
    Alcotest.(check bool) "no feedback" false r.Audit.feedback_hit;
    Alcotest.(check bool) "plan cache hit recorded" true r.Audit.plan_hit
  | rs -> Alcotest.failf "expected 1 recent record, got %d" (List.length rs)

(* --- drift monitor ------------------------------------------------------- *)

let test_monitor_window_quantiles_and_alarm () =
  let oracle _ = 100.0 in
  let m = Monitor.create ~sample_rate:1.0 ~window:8 ~threshold:0.5 ~min_samples:4 ~oracle () in
  Alcotest.(check bool) "no alarm before min_samples" false (Monitor.alarm m);
  (* Three accurate observations: rel error 0.1 each. *)
  for _ = 1 to 3 do
    ignore (Monitor.observe m ~exact:100.0 ~estimate:110.0)
  done;
  Alcotest.(check bool) "still below min_samples" false (Monitor.alarm m);
  (* A fourth accurate one: window full enough, p90 = 0.1 < 0.5. *)
  ignore (Monitor.observe m ~exact:100.0 ~estimate:110.0);
  Alcotest.(check bool) "accurate window does not alarm" false (Monitor.alarm m);
  Alcotest.(check (float 1e-9)) "p50 of identical errors" 0.1 (Monitor.quantile m 0.5);
  (* Flood with terrible estimates: p90 crosses, alarm latches. *)
  for _ = 1 to 8 do
    ignore (Monitor.observe m ~exact:100.0 ~estimate:400.0)
  done;
  Alcotest.(check bool) "drifted window alarms" true (Monitor.alarm m);
  let s = Monitor.stats m in
  Alcotest.(check int) "observations counted" 12 s.Monitor.samples;
  Alcotest.(check int) "window is sliding" 8 s.Monitor.window_n;
  Alcotest.(check (float 1e-9)) "window now all-bad: p90 = 3" 3.0 s.Monitor.p90;
  Alcotest.(check int) "one raise transition" 1 s.Monitor.alarm_transitions;
  (* Recovery: accurate estimates push the bad errors out of the window. *)
  for _ = 1 to 8 do
    ignore (Monitor.observe m ~exact:100.0 ~estimate:100.0)
  done;
  Alcotest.(check bool) "alarm clears on recovery" false (Monitor.alarm m);
  Alcotest.(check (float 1e-9)) "perfect estimates: p99 = 0" 0.0 (Monitor.quantile m 0.99)

(* The golden determinism contract: same seed, same query sequence, same
   sampling trace — regardless of whether evaluation ran on a pool. *)
let test_monitor_sampling_deterministic () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let distinct = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let batch = Array.init 40 (fun i -> distinct.(i mod Array.length distinct)) in
  let run ~pool () =
    let engine = Engine.create summary in
    ignore (Engine.batch engine batch);
    let oracle = Monitor.oracle_of_tree tree in
    let m = Monitor.create ~sample_rate:0.5 ~seed:42 ~oracle () in
    (match pool with
    | None -> ignore (Engine.batch ~monitor:m engine batch)
    | Some pool -> ignore (Engine.batch ~pool ~monitor:m engine batch));
    Monitor.stats m
  in
  let a = run ~pool:None () in
  let b = run ~pool:None () in
  let c = Pool.with_pool ~domains:4 (fun pool -> run ~pool:(Some pool) ()) in
  Alcotest.(check bool) "two sequential runs identical" true (a = b);
  Alcotest.(check bool) "parallel run identical to sequential" true (a = c);
  Alcotest.(check bool) "something was sampled at rate 0.5" true (a.Monitor.samples > 0);
  Alcotest.(check bool) "not everything was sampled at rate 0.5" true
    (a.Monitor.samples < Array.length distinct)

(* End-to-end golden: rate 1.0 over the fig11 batch samples every distinct
   query exactly once per batch, and the window errors equal the
   independently computed |estimate - exact| / max 1 exact. *)
let test_monitor_engine_golden () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let distinct = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let engine = Engine.create summary in
  ignore (Engine.batch engine distinct);
  let ctx = Tl_twig.Match_count.create_ctx tree in
  let m = Monitor.create ~sample_rate:1.0 ~oracle:(Monitor.oracle_of_tree tree) () in
  let estimates = Engine.batch ~monitor:m engine distinct in
  let s = Monitor.stats m in
  Alcotest.(check int) "every distinct query sampled" (Array.length distinct) s.Monitor.samples;
  let expected_errors =
    Array.to_list
      (Array.mapi
         (fun i twig ->
           let exact = float_of_int (Tl_twig.Match_count.selectivity ctx twig) in
           Float.abs (estimates.(i) -. exact) /. Float.max 1.0 exact)
         distinct)
  in
  let expected_sorted = List.sort compare expected_errors in
  let golden_p50 = List.nth expected_sorted (List.length expected_sorted / 2) in
  Alcotest.(check (float 1e-9)) "window p50 matches recomputation" golden_p50
    (Monitor.quantile m 0.5);
  (* The adaptive-backed oracle also records feedback: after monitoring
     through it, the engine's answers for sampled queries become exact. *)
  let tl = Tl_core.Treelattice.of_summary tree summary in
  let adaptive = Tl_core.Adaptive.create ~capacity:64 tl in
  let m2 = Monitor.create ~sample_rate:1.0 ~oracle:(Monitor.oracle_of_adaptive adaptive) () in
  ignore (Engine.batch ~monitor:m2 engine distinct);
  let with_feedback = Engine.batch ~extra:(Tl_core.Adaptive.lookup adaptive) engine distinct in
  Array.iteri
    (fun i twig ->
      check_bits
        (Printf.sprintf "feedback loop closes query %d" i)
        (float_of_int (Tl_twig.Match_count.selectivity ctx twig))
        with_feedback.(i))
    distinct

let test_engine_estimate_single () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let tl = Tl_core.Treelattice.build ~k:3 tree in
  let engine = Engine.create (Tl_core.Treelattice.summary tl) in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  check_bits "engine = front-end" (Tl_core.Treelattice.estimate tl twig) (Engine.estimate engine twig);
  check_bits "scheme override" 4.0 (Engine.estimate ~scheme:Estimator.Recursive engine twig)

let () =
  Alcotest.run "serve"
    [
      ( "plan",
        [
          prop_plan_matches_direct;
          Alcotest.test_case "accessors and fig11 value" `Quick test_plan_accessors;
          Alcotest.test_case "probe" `Quick test_plan_probe_reports_without_perturbing;
        ] );
      ( "plan_cache",
        [
          Alcotest.test_case "interning" `Quick test_plan_cache_interns;
          Alcotest.test_case "eviction bounded" `Quick test_plan_cache_eviction_bounded;
          Alcotest.test_case "a hit keeps its plan" `Quick test_plan_cache_hit_keeps_plan;
        ] );
      ( "engine",
        [
          Alcotest.test_case "batch = direct" `Quick test_batch_matches_direct;
          prop_parallel_batch_matches_sequential;
          Alcotest.test_case "batch with feedback" `Quick test_batch_with_extra_matches_direct;
          Alcotest.test_case "parallel adaptive feedback stress" `Quick
            test_parallel_adaptive_feedback_stress;
          Alcotest.test_case "threads on one domain share an engine" `Quick
            test_threads_share_one_engine;
          Alcotest.test_case "non-finite clamped" `Quick test_batch_clamps_nonfinite;
          Alcotest.test_case "single estimate" `Quick test_engine_estimate_single;
        ] );
      ( "audit",
        [
          Alcotest.test_case "ring capacity and views" `Quick test_audit_ring_and_views;
          prop_parallel_audit_matches_sequential;
          Alcotest.test_case "clamp and feedback flags" `Quick test_audit_captures_clamp_and_feedback;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "window quantiles and alarm" `Quick
            test_monitor_window_quantiles_and_alarm;
          Alcotest.test_case "sampling deterministic across pools" `Quick
            test_monitor_sampling_deterministic;
          Alcotest.test_case "engine golden errors" `Quick test_monitor_engine_golden;
        ] );
    ]
