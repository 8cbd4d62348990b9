(* Benchmark harness.

   Phase 1 regenerates every table and figure of the paper's evaluation
   through Tl_harness.Experiments (macro measurements: construction times,
   estimation errors, response times, pruning sweeps).

   Phase 2 runs bechamel micro-benchmarks — one Test.make per timed paper
   artifact — so per-operation costs (summary construction per dataset for
   Table 3, per-scheme estimation for Fig. 9, exact counting, mining) are
   measured with proper linear-regression timing rather than single-shot
   stopwatches.

   Between the phases, the parallel-build section times summary
   construction sequentially and across the -j N domain pool, checks the
   two summaries are identical, and reports the speedup; the throughput
   section then serves skewed query batches through Tl_serve.Engine and
   compares compiled-plan serving (cold and warm cache, batch-size sweep,
   domain scaling) against the per-call keyed estimator.

   Every measurement is also collected as a machine-readable row
   (experiment id, dataset, metric, value, unit, wall-clock ms) and
   written to BENCH_summary.json — and to --json FILE when given — so the
   perf trajectory is diffable across PRs.  A Prometheus-style snapshot
   of the library's internal metrics lands next to it in
   BENCH_metrics.prom (or --metrics FILE).

   Usage: main.exe [--quick] [--skip-micro] [--target N] [-j N] [--json FILE]
                   [--metrics FILE] [--trace FILE] [--log-level LEVEL] *)

open Bechamel
module Experiments = Tl_harness.Experiments
module Dataset = Tl_datasets.Dataset
module Data_tree = Tl_tree.Data_tree
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Twig = Tl_twig.Twig
module Pool = Tl_util.Pool
module Timer = Tl_util.Timer

let has_flag name = Array.exists (String.equal name) Sys.argv

let arg_value name =
  let result = ref None in
  Array.iteri
    (fun i a -> if String.equal a name && i + 1 < Array.length Sys.argv then result := Some Sys.argv.(i + 1))
    Sys.argv;
  !result

let int_arg name =
  Option.map
    (fun v ->
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        Printf.eprintf "%s expects an integer, got %S\n" name v;
        exit 2)
    (arg_value name)

(* --- machine-readable result rows ---------------------------------------- *)

(* schema_version history: 1 = rows without units; 2 = top-level
   schema_version + a unit string per row. *)
let schema_version = 2

type row = {
  experiment : string;
  dataset : string;
  metric : string;
  value : float;
  unit : string;
  ms : float;
}

let rows : row list ref = ref []

let record ~experiment ~dataset ~metric ~value ~unit ~ms =
  rows := { experiment; dataset; metric; value; unit; ms } :: !rows

let row_json { experiment; dataset; metric; value; unit; ms } =
  Printf.sprintf
    {|    {"experiment": %S, "dataset": %S, "metric": %S, "value": %.6f, "unit": %S, "wall_clock_ms": %.3f}|}
    experiment dataset metric value unit ms

let write_json ~jobs ~target ~quick path =
  match open_out path with
  | exception Sys_error msg -> Tl_obs.Log.err (fun m -> m "cannot write %s: %s" path msg)
  | oc ->
  Printf.fprintf oc
    "{\n  \"bench\": \"treelattice\",\n  \"schema_version\": %d,\n  \"jobs\": %d,\n  \"target\": %d,\n  \"quick\": %b,\n  \"rows\": [\n%s\n  ]\n}\n"
    schema_version jobs target quick
    (String.concat ",\n" (List.rev_map row_json !rows));
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n%!" path (List.length !rows)

let write_metrics path =
  match open_out path with
  | exception Sys_error msg -> Tl_obs.Log.err (fun m -> m "cannot write %s: %s" path msg)
  | oc ->
    output_string oc (Tl_obs.Metrics.to_prometheus (Tl_obs.Metrics.snapshot ()));
    close_out oc;
    Printf.printf "wrote %s\n%!" path

(* --- parallel summary construction --------------------------------------- *)

(* The tentpole measurement: lattice build time sequentially vs across the
   domain pool, with a structural identity check — the parallel summary
   must hold exactly the sequential pattern counts. *)
let summaries_equal a b =
  Summary.entries a = Summary.entries b
  && Summary.fold
       (fun twig count ok -> ok && Summary.find b twig = Some count)
       a true

let run_parallel_build ~jobs ~k pool suite =
  print_string
    (Tl_harness.Report.section "parallel-build"
       (Printf.sprintf "lattice build: sequential vs -j %d domain pool" jobs));
  List.iter
    (fun env ->
      let name = env.Experiments.dataset.Dataset.name in
      let tree = env.Experiments.tree in
      (* Interleaved best-of-7 after one discarded warm-up pair, with the
         measurement order flipped every round: alternating runs share
         cache and allocator state, keeping the best of each — a one-off
         warm-up or GC outlier on either side can no longer masquerade as
         a parallel slowdown (or speedup), and the order flip keeps GC
         debt left by one side from systematically taxing the other.
         Small documents take the sequential path on both sides (the
         pool's work-size cutoff), so their ratio is noise around 1.0 by
         construction. *)
      ignore (Summary.build ~k tree);
      ignore (Summary.build ~pool ~k tree);
      let built = ref None in
      let seq_ms = ref infinity and par_ms = ref infinity in
      for round = 1 to 7 do
        let time_seq () =
          let s, ms = Timer.time_ms (fun () -> Summary.build ~k tree) in
          seq_ms := Float.min !seq_ms ms;
          s
        in
        let time_par () =
          let p, ms = Timer.time_ms (fun () -> Summary.build ~pool ~k tree) in
          par_ms := Float.min !par_ms ms;
          p
        in
        let s, p =
          if round land 1 = 1 then
            let s = time_seq () in
            (s, time_par ())
          else
            let p = time_par () in
            (time_seq (), p)
        in
        built := Some (s, p)
      done;
      let seq, par = Option.get !built in
      let seq_ms = !seq_ms and par_ms = !par_ms in
      let speedup = seq_ms /. Float.max 1e-9 par_ms in
      let identical = summaries_equal seq par in
      Printf.printf "  %-8s seq %8.1f ms   par %8.1f ms   speedup %.2fx   identical: %b\n%!" name
        seq_ms par_ms speedup identical;
      if not identical then failwith ("parallel summary differs from sequential on " ^ name);
      record ~experiment:"parallel-build" ~dataset:name ~metric:"seq_build_ms" ~value:seq_ms
        ~unit:"ms" ~ms:seq_ms;
      record ~experiment:"parallel-build" ~dataset:name ~metric:"par_build_ms" ~value:par_ms
        ~unit:"ms" ~ms:par_ms;
      record ~experiment:"parallel-build" ~dataset:name ~metric:"speedup" ~value:speedup
        ~unit:"ratio" ~ms:(seq_ms +. par_ms))
    (Experiments.envs suite)

(* --- estimation latency: interned keys vs the seed string path ----------- *)

module Baseline = Tl_oracle.Baseline
module Workload = Tl_workload.Workload

(* Per-estimate latency over the Fig. 9 positive workloads, for every
   scheme, measured twice: against the hash-consed estimator and against
   {!Tl_oracle.Baseline} (the seed string-keyed path on its own twig type).
   One warm-up sweep precedes timing so the interned path is measured at
   steady state (keys cached on the workload twigs), which is the regime
   repeated estimation over a workload actually runs in; the recorded
   speedup is the headline number of this optimization. *)
let estimation_reps = 9

(* Best-of-interleaved-reps: repeated workload estimation is a steady-state
   regime, so the minimum sweep time is the signal and slower sweeps are GC
   pauses or scheduler noise.  The two paths' sweeps alternate so a noisy
   stretch of wall-clock hits both rather than biasing the ratio, and both
   start from one untimed warm-up sweep (caches in working state) and a
   clean GC point. *)
let paired_ns_per_estimate ~keyed ~baseline queries =
  let sweep estimate =
    Array.iter (fun (q : Workload.query) -> ignore (estimate q.Workload.twig)) queries
  in
  sweep keyed;
  sweep baseline;
  Gc.full_major ();
  let nq = float_of_int (Array.length queries) in
  let kbest = ref infinity and bbest = ref infinity in
  let ktotal = ref 0.0 and btotal = ref 0.0 in
  for _ = 1 to estimation_reps do
    let (), kms = Timer.time_ms (fun () -> sweep keyed) in
    let (), bms = Timer.time_ms (fun () -> sweep baseline) in
    if kms < !kbest then kbest := kms;
    if bms < !bbest then bbest := bms;
    ktotal := !ktotal +. kms;
    btotal := !btotal +. bms
  done;
  ((!kbest *. 1e6 /. nq, !ktotal), (!bbest *. 1e6 /. nq, !btotal))

let run_estimation_latency suite =
  print_string
    (Tl_harness.Report.section "estimation-latency"
       "fig9 workload: interned-key estimation vs seed string path (ns/estimate)");
  List.iter
    (fun env ->
      let name = env.Experiments.dataset.Dataset.name in
      let summary = env.Experiments.summary in
      let baseline = Baseline.of_summary summary in
      let queries =
        Array.concat (List.map (fun (wl : Workload.t) -> wl.Workload.queries) env.Experiments.workloads)
      in
      if Array.length queries > 0 then begin
        let speedups = ref [] in
        List.iter
          (fun scheme ->
            let sname = Estimator.scheme_name scheme in
            let (keyed_ns, keyed_ms), (base_ns, base_ms) =
              paired_ns_per_estimate
                ~keyed:(Estimator.estimate summary scheme)
                ~baseline:(fun twig -> Baseline.estimate baseline scheme twig)
                queries
            in
            let speedup = base_ns /. Float.max 1e-9 keyed_ns in
            Printf.printf "  %-8s %-22s keyed %9.0f ns   string %9.0f ns   speedup %5.2fx\n%!" name
              sname keyed_ns base_ns speedup;
            record ~experiment:"estimation-latency" ~dataset:name
              ~metric:(Printf.sprintf "ns_per_estimate/%s" sname)
              ~value:keyed_ns ~unit:"ns" ~ms:keyed_ms;
            record ~experiment:"estimation-latency" ~dataset:name
              ~metric:(Printf.sprintf "baseline_ns_per_estimate/%s" sname)
              ~value:base_ns ~unit:"ns" ~ms:base_ms;
            record ~experiment:"estimation-latency" ~dataset:name
              ~metric:(Printf.sprintf "speedup/%s" sname)
              ~value:speedup ~unit:"ratio" ~ms:(keyed_ms +. base_ms);
            speedups := speedup :: !speedups)
          Estimator.all_schemes;
        let geomean =
          exp (List.fold_left (fun acc s -> acc +. log s) 0.0 !speedups
              /. float_of_int (List.length !speedups))
        in
        Printf.printf "  %-8s %-22s speedup %5.2fx (geometric mean)\n%!" name "all schemes" geomean;
        record ~experiment:"estimation-latency" ~dataset:name ~metric:"speedup/geomean"
          ~value:geomean ~unit:"ratio" ~ms:0.0
      end)
    (Experiments.envs suite)

(* --- plan compilation: cold vs warm keys ---------------------------------- *)

(* One voting compile per workload query, timed on cold keys and on warm
   ones.  Every key caches its leaf-pair splits, so only the first compile
   of a sub-twig rebuilds it.  A cold sweep therefore needs keys no compile
   has touched: each rep shifts the summary's and the queries' labels into
   a range of their own before timing.  The warm sweep then recompiles the
   same queries.  Best of reps, in microseconds per compile. *)
let compile_reps = 5

let run_compile_latency suite =
  print_string
    (Tl_harness.Report.section "compile-latency"
       "fig9 workload: recursive+voting Plan.compile on cold vs warm keys (us/compile)");
  let scheme = Estimator.Recursive_voting in
  let next_base = ref 1_000_000 in
  List.iter
    (fun env ->
      let name = env.Experiments.dataset.Dataset.name in
      let patterns = Summary.fold (fun tw c acc -> (tw, c) :: acc) env.Experiments.summary [] in
      let queries =
        Array.concat (List.map (fun (wl : Workload.t) -> wl.Workload.queries) env.Experiments.workloads)
        |> Array.map (fun (q : Workload.query) -> q.Workload.twig)
      in
      let nq = Array.length queries in
      if nq > 0 then begin
        let cold_best = ref infinity and warm_best = ref infinity in
        let cold_total = ref 0.0 and warm_total = ref 0.0 in
        for _ = 1 to compile_reps do
          let base = !next_base in
          next_base := base + 100_000;
          let shift = Twig.map_labels (fun l -> l + base) in
          let summary =
            Summary.of_patterns ~k:(Summary.k env.Experiments.summary)
              ~complete:(Summary.is_complete env.Experiments.summary)
              (List.map (fun (tw, c) -> (shift tw, c)) patterns)
          in
          let shifted = Array.map shift queries in
          let sweep () = Array.iter (fun q -> ignore (Estimator.Plan.compile summary scheme q)) shifted in
          Gc.full_major ();
          let (), cold_ms = Timer.time_ms sweep in
          let (), warm_ms = Timer.time_ms sweep in
          cold_best := Float.min !cold_best cold_ms;
          warm_best := Float.min !warm_best warm_ms;
          cold_total := !cold_total +. cold_ms;
          warm_total := !warm_total +. warm_ms
        done;
        let us ms = ms *. 1000.0 /. float_of_int nq in
        Printf.printf "  %-8s cold keys %8.1f us   warm keys %8.1f us   (%d queries)\n%!" name
          (us !cold_best) (us !warm_best) nq;
        record ~experiment:"compile-latency" ~dataset:name ~metric:"compile_us/cold_keys"
          ~value:(us !cold_best) ~unit:"us" ~ms:!cold_total;
        record ~experiment:"compile-latency" ~dataset:name ~metric:"compile_us/warm_keys"
          ~value:(us !warm_best) ~unit:"us" ~ms:!warm_total
      end)
    (Experiments.envs suite)

(* --- batched throughput: compiled plans vs the per-call keyed path ------- *)

module Engine = Tl_serve.Engine
module Xorshift = Tl_util.Xorshift

let throughput_reps = 7
let throughput_batch = 4096
let throughput_sweep = [ 64; 256; 1024; 4096 ]

let qps n ms = float_of_int n /. (Float.max 1e-9 ms /. 1000.0)

(* Best-of-reps without a shared warm-up: [f] owns its warm/cold regime
   (cold callers rebuild their engine inside [f]). *)
let best_of_reps f =
  Gc.full_major ();
  let best = ref infinity and total = ref 0.0 in
  for _ = 1 to throughput_reps do
    let (), ms = Timer.time_ms f in
    if ms < !best then best := ms;
    total := !total +. ms
  done;
  (!best, !total)

(* Repeated-query serving: a zipf-skewed batch drawn from the workload's
   distinct twigs — the regime the plan cache exists for.  Three paths over
   the same batch: the per-call keyed estimator (compiled-away baseline), a
   cold engine (first batch pays plan compilation), and a warm engine
   (every query hits a compiled plan).  The warm/per-call ratio is the
   headline number of this optimization. *)
let run_throughput suite =
  print_string
    (Tl_harness.Report.section "throughput"
       (Printf.sprintf
          "batched serving: compiled plans vs per-call estimation (%d-query skewed batches)"
          throughput_batch));
  let scheme = Tl_core.Treelattice.default_scheme in
  List.iter
    (fun env ->
      let name = env.Experiments.dataset.Dataset.name in
      let summary = env.Experiments.summary in
      let distinct =
        Array.concat
          (List.map
             (fun (wl : Workload.t) ->
               Array.map (fun (q : Workload.query) -> q.Workload.twig) wl.Workload.queries)
             env.Experiments.workloads)
      in
      if Array.length distinct > 0 then begin
        let nd = Array.length distinct in
        let rng = Xorshift.create 97 in
        let batch =
          Array.init throughput_batch (fun _ -> distinct.(Xorshift.zipf rng ~n:nd ~s:1.1 - 1))
        in
        let n = Array.length batch in
        let percall_ms, percall_total =
          best_of_reps (fun () ->
              Array.iter (fun twig -> ignore (Estimator.estimate summary scheme twig)) batch)
        in
        let cold_ms, cold_total =
          best_of_reps (fun () ->
              let engine = Engine.create ~scheme summary in
              ignore (Engine.batch engine batch))
        in
        let engine = Engine.create ~scheme summary in
        ignore (Engine.batch engine batch);
        let warm_ms, warm_total = best_of_reps (fun () -> ignore (Engine.batch engine batch)) in
        let speedup = qps n warm_ms /. Float.max 1e-9 (qps n percall_ms) in
        Printf.printf
          "  %-8s per-call %9.0f qps   cold %9.0f qps   warm %9.0f qps   warm/per-call %5.2fx\n%!"
          name (qps n percall_ms) (qps n cold_ms) (qps n warm_ms) speedup;
        record ~experiment:"throughput" ~dataset:name ~metric:"qps_percall"
          ~value:(qps n percall_ms) ~unit:"qps" ~ms:percall_total;
        record ~experiment:"throughput" ~dataset:name ~metric:"qps_cold" ~value:(qps n cold_ms)
          ~unit:"qps" ~ms:cold_total;
        record ~experiment:"throughput" ~dataset:name ~metric:"qps_warm" ~value:(qps n warm_ms)
          ~unit:"qps" ~ms:warm_total;
        record ~experiment:"throughput" ~dataset:name ~metric:"warm_vs_percall_speedup"
          ~value:speedup ~unit:"ratio" ~ms:(warm_total +. percall_total);
        List.iter
          (fun bs ->
            let sub = Array.sub batch 0 (min bs n) in
            let ms, total = best_of_reps (fun () -> ignore (Engine.batch engine sub)) in
            Printf.printf "  %-8s batch %4d          warm %9.0f qps\n%!" name
              (Array.length sub) (qps (Array.length sub) ms);
            record ~experiment:"throughput" ~dataset:name
              ~metric:(Printf.sprintf "qps_warm/batch_%d" bs)
              ~value:(qps (Array.length sub) ms)
              ~unit:"qps" ~ms:total)
          throughput_sweep;
        let s = Engine.stats engine in
        let lookups = s.Tl_core.Plan_cache.hits + s.Tl_core.Plan_cache.misses in
        let hit_rate =
          if lookups = 0 then 0.0
          else float_of_int s.Tl_core.Plan_cache.hits /. float_of_int lookups
        in
        Printf.printf "  %-8s plan cache: %d plans, hit rate %.4f\n%!" name
          s.Tl_core.Plan_cache.size hit_rate;
        record ~experiment:"throughput" ~dataset:name ~metric:"plan_cache_hit_rate"
          ~value:hit_rate ~unit:"ratio" ~ms:0.0
      end)
    (Experiments.envs suite)

(* --- serving observability: audit overhead and drift-sampling cost ------- *)

module Audit = Tl_serve.Audit
module Monitor = Tl_serve.Monitor
module Metrics = Tl_obs.Metrics

let monitor_rates = [ 0.01; 0.10 ]

(* The same warm zipf-skewed batch as the throughput section, served three
   ways: bare, with the audit log attached (sample rate 0 — the cost of
   instrumentation alone, budgeted at <= 5%), and with the drift monitor
   sampling at each configured rate (the cost of buying ground truth).
   The audit ring then yields the serving-latency quantile rows through
   [Metrics.quantile] — the same interpolation the exporter's scrape
   consumers apply to [tl_serve_latency_ns_bucket]. *)
let run_observability suite =
  print_string
    (Tl_harness.Report.section "monitor_overhead"
       "audited serving: instrumentation overhead and drift-sampling cost");
  let scheme = Tl_core.Treelattice.default_scheme in
  List.iter
    (fun env ->
      let name = env.Experiments.dataset.Dataset.name in
      let summary = env.Experiments.summary in
      let distinct =
        Array.concat
          (List.map
             (fun (wl : Workload.t) ->
               Array.map (fun (q : Workload.query) -> q.Workload.twig) wl.Workload.queries)
             env.Experiments.workloads)
      in
      if Array.length distinct > 0 then begin
        let nd = Array.length distinct in
        let rng = Xorshift.create 97 in
        let batch =
          Array.init throughput_batch (fun _ -> distinct.(Xorshift.zipf rng ~n:nd ~s:1.1 - 1))
        in
        let n = Array.length batch in
        let engine = Engine.create ~scheme summary in
        ignore (Engine.batch engine batch);
        let plain_ms, plain_total = best_of_reps (fun () -> ignore (Engine.batch engine batch)) in
        let audit = Audit.create () in
        ignore (Engine.batch ~audit engine batch);
        let audit_ms, audit_total =
          best_of_reps (fun () -> ignore (Engine.batch ~audit engine batch))
        in
        let overhead_pct = (audit_ms -. plain_ms) /. Float.max 1e-9 plain_ms *. 100.0 in
        Printf.printf
          "  %-8s bare %9.0f qps   audited %9.0f qps   audit overhead %+6.2f%%\n%!" name
          (qps n plain_ms) (qps n audit_ms) overhead_pct;
        record ~experiment:"monitor_overhead" ~dataset:name ~metric:"qps_bare"
          ~value:(qps n plain_ms) ~unit:"qps" ~ms:plain_total;
        record ~experiment:"monitor_overhead" ~dataset:name ~metric:"qps_audited/sample_0"
          ~value:(qps n audit_ms) ~unit:"qps" ~ms:audit_total;
        record ~experiment:"monitor_overhead" ~dataset:name ~metric:"audit_overhead_pct"
          ~value:overhead_pct ~unit:"percent" ~ms:(plain_total +. audit_total);
        let h = Audit.latency_histogram audit in
        List.iter
          (fun (q, label) ->
            let v = Metrics.quantile h q in
            if Float.is_finite v then begin
              Printf.printf "  %-8s serve latency %s %9.0f ns\n%!" name label v;
              record ~experiment:"monitor_overhead" ~dataset:name
                ~metric:(Printf.sprintf "latency_%s_ns" label)
                ~value:v ~unit:"ns" ~ms:0.0
            end)
          [ (0.50, "p50"); (0.90, "p90"); (0.99, "p99") ];
        let oracle = Monitor.oracle_of_tree env.Experiments.tree in
        List.iter
          (fun rate ->
            let monitor = Monitor.create ~sample_rate:rate ~oracle () in
            ignore (Engine.batch ~audit ~monitor engine batch);
            let ms, total =
              best_of_reps (fun () -> ignore (Engine.batch ~audit ~monitor engine batch))
            in
            Printf.printf "  %-8s sampled %4.0f%%        %9.0f qps\n%!" name (rate *. 100.0)
              (qps n ms);
            record ~experiment:"monitor_overhead" ~dataset:name
              ~metric:(Printf.sprintf "qps_audited/sample_%g" rate)
              ~value:(qps n ms) ~unit:"qps" ~ms:total)
          monitor_rates
      end)
    (Experiments.envs suite)

(* --- registry: reload under load ----------------------------------------- *)

module Registry = Tl_serve.Registry

let registry_iters = 24

(* Serving throughput with and without a summary hot-swap before every
   batch.  Each swap rebuilds the whole bundle — label validation plus a
   fresh engine whose empty plan cache the next batch refills — so the
   reloading row prices both the swap and the recompilation it induces.
   Swapping before literally every batch is a worst case no deployment
   approaches; the steady/reloading ratio is an upper bound on what hot
   reload can cost. *)
let run_registry suite =
  print_string
    (Tl_harness.Report.section "registry"
       "dataset registry: serving throughput while summaries hot-swap");
  List.iter
    (fun env ->
      let name = env.Experiments.dataset.Dataset.name in
      let summary = env.Experiments.summary in
      let distinct =
        Array.concat
          (List.map
             (fun (wl : Workload.t) ->
               Array.map (fun (q : Workload.query) -> q.Workload.twig) wl.Workload.queries)
             env.Experiments.workloads)
      in
      if Array.length distinct > 0 then begin
        let nd = Array.length distinct in
        let rng = Xorshift.create 97 in
        let batch =
          Array.init 1024 (fun _ -> distinct.(Xorshift.zipf rng ~n:nd ~s:1.1 - 1))
        in
        let n = Array.length batch in
        let t = Registry.create () in
        let names = Data_tree.label_names env.Experiments.tree in
        ignore (Result.get_ok (Registry.install_summary t ~name ~names summary));
        let serve () =
          match Registry.find t name with
          | Some b -> ignore (Registry.batch b batch)
          | None -> ()
        in
        serve ();
        Gc.full_major ();
        let (), steady_ms =
          Timer.time_ms (fun () ->
              for _ = 1 to registry_iters do
                serve ()
              done)
        in
        let (), reloading_ms =
          Timer.time_ms (fun () ->
              for _ = 1 to registry_iters do
                ignore (Result.get_ok (Registry.swap t name summary));
                serve ()
              done)
        in
        let (), swaps_ms =
          Timer.time_ms (fun () ->
              for _ = 1 to registry_iters do
                ignore (Result.get_ok (Registry.swap t name summary))
              done)
        in
        let served = registry_iters * n in
        let steady = qps served steady_ms in
        let reloading = qps served reloading_ms in
        let swap_ms = swaps_ms /. float_of_int registry_iters in
        let ratio = steady /. Float.max 1e-9 reloading in
        Printf.printf
          "  %-8s steady %9.0f qps   reloading %9.0f qps   swap %7.3f ms   steady/reloading %5.2fx\n%!"
          name steady reloading swap_ms ratio;
        record ~experiment:"registry" ~dataset:name ~metric:"qps_steady" ~value:steady
          ~unit:"qps" ~ms:steady_ms;
        record ~experiment:"registry" ~dataset:name ~metric:"qps_reloading" ~value:reloading
          ~unit:"qps" ~ms:reloading_ms;
        record ~experiment:"registry" ~dataset:name ~metric:"swap_ms" ~value:swap_ms ~unit:"ms"
          ~ms:swaps_ms;
        record ~experiment:"registry" ~dataset:name ~metric:"reload_overhead" ~value:ratio
          ~unit:"ratio" ~ms:0.0
      end)
    (Experiments.envs suite)

(* --- server: the TCP front-end under concurrent clients ------------------- *)

module Server = Tl_serve.Server

let server_clients = 4

let server_batches_per_client = 8

let server_batch_size = 256

(* A small blocking line client: send one prebuilt batch request, count
   the answer lines up to the blank terminator (an EOF or a busy line
   terminates early). *)
let server_roundtrip ic oc request =
  output_string oc request;
  flush oc;
  let answers = ref 0 in
  let busy = ref false in
  (try
     let continue = ref true in
     while !continue do
       match input_line ic with
       | "" -> continue := false
       | line ->
         if String.length line >= 4 && String.sub line 0 4 = "busy" then begin
           busy := true;
           continue := false
         end
         else incr answers
     done
   with End_of_file -> ());
  (!answers, !busy)

let with_connection port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      f (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd))

(* Concurrent-client throughput through the full network stack (accept,
   admission, parse, batch evaluation, response write), then the
   admission-control saturation point: a one-worker one-slot server
   hammered by reconnecting clients must shed most arrivals with [busy]
   while staying healthy for the connection it serves. *)
let run_server pool suite =
  print_string
    (Tl_harness.Report.section "server"
       (Printf.sprintf "TCP front-end: %d concurrent clients, then shed at saturation"
          server_clients));
  let installed =
    List.filter_map
      (fun env ->
        let distinct =
          Array.concat
            (List.map
               (fun (wl : Workload.t) ->
                 Array.map (fun (q : Workload.query) -> q.Workload.twig) wl.Workload.queries)
               env.Experiments.workloads)
        in
        if Array.length distinct = 0 then None else Some (env, distinct))
      (Experiments.envs suite)
  in
  match installed with
  | [] -> ()
  | (first_env, first_distinct) :: _ ->
    let registry = Registry.create () in
    List.iter
      (fun (env, _) ->
        let name = env.Experiments.dataset.Dataset.name in
        let names = Data_tree.label_names env.Experiments.tree in
        ignore (Result.get_ok (Registry.install_summary registry ~name ~names env.Experiments.summary)))
      installed;
    (* One zipf-skewed request string per dataset, routed by NAME: prefix
       so a single server exercises registry routing on every line. *)
    let request_for env distinct =
      let name = env.Experiments.dataset.Dataset.name in
      let names i = Data_tree.label_name env.Experiments.tree i in
      let rng = Xorshift.create 131 in
      let nd = Array.length distinct in
      let buf = Buffer.create (server_batch_size * 24) in
      for _ = 1 to server_batch_size do
        let twig = distinct.(Xorshift.zipf rng ~n:nd ~s:1.1 - 1) in
        Buffer.add_string buf name;
        Buffer.add_char buf ':';
        Buffer.add_string buf (Twig.pp ~names twig);
        Buffer.add_char buf '\n'
      done;
      Buffer.add_char buf '\n';
      Buffer.contents buf
    in
    let server = Server.start ~pool registry in
    let port = Server.port server in
    List.iter
      (fun (env, distinct) ->
        let name = env.Experiments.dataset.Dataset.name in
        let request = request_for env distinct in
        let lost = Atomic.make 0 in
        let client _ =
          with_connection port @@ fun ic oc ->
          for _ = 1 to server_batches_per_client do
            let answers, busy = server_roundtrip ic oc request in
            if busy || answers <> server_batch_size then Atomic.incr lost
          done
        in
        let (), ms =
          Timer.time_ms (fun () ->
              let threads = List.init server_clients (fun i -> Thread.create client i) in
              List.iter Thread.join threads)
        in
        let served = server_clients * server_batches_per_client * server_batch_size in
        let rate = qps served ms in
        Printf.printf "  %-8s %d clients  %9.0f qps over tcp   (%d queries, %d incomplete)\n%!"
          name server_clients rate served (Atomic.get lost);
        if Atomic.get lost > 0 then failwith ("server bench lost batches on " ^ name);
        record ~experiment:"server" ~dataset:name ~metric:"qps_concurrent" ~value:rate
          ~unit:"qps" ~ms)
      installed;
    Server.stop server;
    (* Saturation: the worker model binds a worker to a connection until
       it closes, so with one worker and a one-slot queue, concurrent
       reconnecting clients force the acceptor to shed. *)
    let sat_config = { Server.default_config with Server.workers = 1; queue_capacity = 1 } in
    let sat = Server.start ~config:sat_config registry in
    let sat_port = Server.port sat in
    let name = first_env.Experiments.dataset.Dataset.name in
    let names i = Data_tree.label_name first_env.Experiments.tree i in
    let one_query =
      Printf.sprintf "%s:%s\n\n" name (Twig.pp ~names first_distinct.(0))
    in
    let sat_clients = 8 and sat_cycles = 25 in
    let sat_client _ =
      for _ = 1 to sat_cycles do
        try with_connection sat_port @@ fun ic oc -> ignore (server_roundtrip ic oc one_query)
        with Unix.Unix_error _ -> ()
      done
    in
    let (), sat_ms =
      Timer.time_ms (fun () ->
          let threads = List.init sat_clients (fun i -> Thread.create sat_client i) in
          List.iter Thread.join threads)
    in
    (* Health check after the storm: a fresh connection still serves. *)
    let healthy =
      try
        with_connection sat_port @@ fun ic oc ->
        fst (server_roundtrip ic oc one_query) = 1
      with Unix.Unix_error _ -> false
    in
    let stats = Server.stats sat in
    Server.stop sat;
    let shed_rate =
      float_of_int stats.Server.shed /. float_of_int (max 1 stats.Server.connections)
    in
    Printf.printf
      "  saturation: %d connection(s), %d shed (rate %.2f), healthy after storm: %b\n%!"
      stats.Server.connections stats.Server.shed shed_rate healthy;
    if not healthy then failwith "server unhealthy after saturation storm";
    if stats.Server.shed = 0 then failwith "saturation storm shed nothing";
    record ~experiment:"server" ~dataset:"all" ~metric:"shed_rate_at_saturation"
      ~value:shed_rate ~unit:"ratio" ~ms:sat_ms;
    record ~experiment:"server" ~dataset:"all" ~metric:"connections_at_saturation"
      ~value:(float_of_int stats.Server.connections) ~unit:"count" ~ms:sat_ms

(* --- phase 2: micro-benchmarks ------------------------------------------ *)

(* A small fixed environment so micro-benchmarks are quick and stable. *)
let micro_target = 6_000

let micro_tests () =
  let datasets = [ Dataset.nasa; Dataset.xmark ] in
  let prepared =
    List.map
      (fun d ->
        let tree = Dataset.tree d ~target:micro_target ~seed:11 in
        let ctx = Tl_twig.Match_count.create_ctx tree in
        let summary = Summary.build ~k:4 tree in
        let sketch = Tl_sketch.Sketch_build.build ~budget_bytes:(8 * 1024) tree in
        let wl =
          match Tl_workload.Workload.positive ~seed:13 ctx ~size:7 ~count:1 with
          | { queries = [||]; _ } -> None
          | { queries; _ } -> Some queries.(0).Tl_workload.Workload.twig
        in
        (d.Dataset.name, tree, ctx, summary, sketch, wl))
      datasets
  in
  let construction =
    List.concat_map
      (fun (name, tree, _, _, _, _) ->
        [
          Test.make
            ~name:(Printf.sprintf "table3/lattice-build/%s" name)
            (Staged.stage (fun () -> ignore (Summary.build ~k:4 tree)));
          Test.make
            ~name:(Printf.sprintf "table3/sketch-build/%s" name)
            (Staged.stage (fun () -> ignore (Tl_sketch.Sketch_build.build ~budget_bytes:(8 * 1024) tree)));
        ])
      prepared
  in
  let estimation =
    List.concat_map
      (fun (name, _, ctx, summary, sketch, wl) ->
        match wl with
        | None -> []
        | Some twig ->
          [
            Test.make
              ~name:(Printf.sprintf "fig9/recursive/%s" name)
              (Staged.stage (fun () -> ignore (Estimator.estimate summary Recursive twig)));
            Test.make
              ~name:(Printf.sprintf "fig9/voting/%s" name)
              (Staged.stage (fun () -> ignore (Estimator.estimate summary Recursive_voting twig)));
            Test.make
              ~name:(Printf.sprintf "fig9/fixed-size/%s" name)
              (Staged.stage (fun () -> ignore (Estimator.estimate summary Fixed_size twig)));
            Test.make
              ~name:(Printf.sprintf "fig9/treesketches/%s" name)
              (Staged.stage (fun () -> ignore (Tl_sketch.Sketch_estimate.estimate sketch twig)));
            Test.make
              ~name:(Printf.sprintf "exact-count/%s" name)
              (Staged.stage (fun () -> ignore (Tl_twig.Match_count.selectivity ctx twig)));
          ])
      prepared
  in
  let mining =
    List.map
      (fun (name, _, ctx, _, _, _) ->
        Test.make
          ~name:(Printf.sprintf "table2/mine-3-lattice/%s" name)
          (Staged.stage (fun () -> ignore (Tl_mining.Miner.mine ctx ~max_size:3))))
      prepared
  in
  (* Subsystems beyond the paper's tables: ingestion routes, the Markov
     path baseline, planning, and match enumeration. *)
  let extras =
    match prepared with
    | [] -> []
    | (name, tree, _, summary, _, wl) :: _ ->
      let xml =
        Tl_xml.Xml_writer.to_string
          { decl = None; root = (Dataset.xmark.Dataset.document ~target:micro_target ~seed:11) }
      in
      let markov = Tl_paths.Markov_table.build ~order:3 tree in
      let ingestion =
        [
          Test.make ~name:"ingest/dom-route"
            (Staged.stage (fun () ->
                 ignore (Data_tree.of_xml (Tl_xml.Xml_dom.parse_string xml))));
          Test.make ~name:"ingest/sax-route"
            (Staged.stage (fun () -> ignore (Tl_tree.Tree_load.of_string xml)));
        ]
      in
      let per_query =
        match wl with
        | None -> []
        | Some twig ->
          [
            Test.make
              ~name:(Printf.sprintf "plan/greedy/%s" name)
              (Staged.stage (fun () -> ignore (Tl_join.Plan.greedy summary twig)));
            Test.make
              ~name:(Printf.sprintf "execute/guided/%s" name)
              (Staged.stage
                 (let plan = Tl_join.Plan.greedy summary twig in
                  fun () -> ignore (Tl_join.Executor.run tree plan)));
            Test.make
              ~name:(Printf.sprintf "enumerate/limit64/%s" name)
              (Staged.stage (fun () -> ignore (Tl_twig.Match_enum.enumerate ~limit:64 tree twig)));
            Test.make
              ~name:(Printf.sprintf "markov-table/path/%s" name)
              (Staged.stage
                 (let path =
                    match Twig.path_labels (Twig.of_path (Twig.labels twig)) with
                    | Some p -> p
                    | None -> Twig.labels twig
                  in
                  fun () -> ignore (Tl_paths.Markov_table.estimate markov path)));
          ]
      in
      ingestion @ per_query
  in
  construction @ estimation @ mining @ extras

let run_micro () =
  let tests = Test.make_grouped ~name:"treelattice" (micro_tests ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  print_string (Tl_harness.Report.section "micro" "bechamel micro-benchmarks (per call)");
  let render (name, ols) =
    let nanos =
      match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> Float.nan
    in
    let pretty =
      if Float.is_nan nanos then "n/a"
      else if nanos > 1e9 then Printf.sprintf "%8.2f s " (nanos /. 1e9)
      else if nanos > 1e6 then Printf.sprintf "%8.2f ms" (nanos /. 1e6)
      else if nanos > 1e3 then Printf.sprintf "%8.2f us" (nanos /. 1e3)
      else Printf.sprintf "%8.2f ns" nanos
    in
    let r2 = match Analyze.OLS.r_square ols with Some r -> Printf.sprintf "%.4f" r | None -> "-" in
    Printf.printf "  %-44s %s  (r²=%s)\n" name pretty r2
  in
  List.iter render rows

(* --- main ----------------------------------------------------------------- *)

let () =
  let quick = has_flag "--quick" in
  (match arg_value "--log-level" with
  | None -> Tl_obs.Log.setup Tl_obs.Log.Info
  | Some s -> (
    match Tl_obs.Log.level_of_string s with
    | Ok level -> Tl_obs.Log.setup level
    | Error msg ->
      Printf.eprintf "--log-level: %s\n" msg;
      exit 2));
  let trace_file = arg_value "--trace" in
  Option.iter Tl_obs.Span.set_sink trace_file;
  let config = if quick then Experiments.quick_config else Experiments.default_config in
  let config =
    match int_arg "--target" with
    | Some t -> { config with Experiments.target = t }
    | None -> config
  in
  let jobs = match int_arg "-j" with Some j -> max 1 j | None -> 1 in
  Printf.printf
    "TreeLattice reproduction bench (target=%d elements/dataset, k=%d, %d queries/size, -j %d)\n%!"
    config.Experiments.target config.Experiments.k config.Experiments.queries_per_size jobs;
  (* The pool lives only for the phases that use it: idle domains still
     rendezvous at every stop-the-world minor collection, which would add
     jitter to the single-domain latency timings below. *)
  let suite =
    let pool = Pool.create ~domains:jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let suite, ms = Timer.time_ms (fun () -> Experiments.make_suite ~pool config) in
  Printf.printf "prepared 4 datasets in %.1f s\n%!" (ms /. 1000.0);
  record ~experiment:"prepare" ~dataset:"all" ~metric:"suite_prepare_ms" ~value:ms ~unit:"ms" ~ms;
  List.iter
    (fun env ->
      record ~experiment:"table3" ~dataset:env.Experiments.dataset.Dataset.name
        ~metric:"lattice_build_ms" ~value:env.Experiments.lattice_ms ~unit:"ms"
        ~ms:env.Experiments.lattice_ms;
      record ~experiment:"table3" ~dataset:env.Experiments.dataset.Dataset.name
        ~metric:"summary_bytes"
        ~value:(float_of_int (Summary.memory_bytes env.Experiments.summary))
        ~unit:"bytes" ~ms:0.0)
    (Experiments.envs suite);
  List.iter
    (fun (id, _, driver) ->
      let report, ms = Timer.time_ms (fun () -> driver suite) in
      print_string report;
      Printf.printf "  [%s completed in %.1f s]\n%!" id (ms /. 1000.0);
      record ~experiment:id ~dataset:"all" ~metric:"report_ms" ~value:ms ~unit:"ms" ~ms)
    Experiments.all_experiments;
    run_parallel_build ~jobs ~k:config.Experiments.k pool suite;
    run_throughput suite;
    run_observability suite;
    run_registry suite;
    run_server pool suite;
    suite
  in
  run_estimation_latency suite;
  run_compile_latency suite;
  if not (has_flag "--skip-micro") then run_micro ();
  write_json ~jobs ~target:config.Experiments.target ~quick "BENCH_summary.json";
  Option.iter (write_json ~jobs ~target:config.Experiments.target ~quick) (arg_value "--json");
  write_metrics (Option.value ~default:"BENCH_metrics.prom" (arg_value "--metrics"));
  match Tl_obs.Span.close_sink () with
  | Some (path, spans) ->
    Printf.printf "wrote %s (%d spans)\n%!" path spans;
    print_string (Tl_obs.Span.flame ())
  | None -> ()
