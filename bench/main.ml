(* Benchmark harness: the in-process half of the paper's evaluation.

   Phase 1 regenerates every table and figure through
   Tl_harness.Experiments (construction times, estimation errors, response
   times, pruning sweeps), then times what only an in-process run can
   see: summary build time per dataset, ns per estimate per scheme
   against the seed string-keyed path, plan compilation on cold and on
   warm keys, and batched serving through Tl_serve.Engine against
   per-call estimation.  The serving path over
   TCP, reload and build are measured out of process by perfbench/.

   Phase 2 runs bechamel micro-benchmarks, one Test.make per timed paper
   artifact (summary construction for Table 3, per-scheme estimation for
   Fig. 9, exact counting, mining).

   Every measurement is a row (experiment id, dataset, metric, median,
   quartiles, trial count, unit, wall-clock ms) in BENCH_summary.json,
   and in --json FILE when given.  A Prometheus-style snapshot of the
   library's metrics lands in BENCH_metrics.prom (or --metrics FILE).

   Usage: main.exe [--quick] [--skip-micro] [--target N] [-j N] [--json FILE]
                   [--metrics FILE] [--trace FILE] [--log-level LEVEL]
   -j N sizes the domain pool that prepares the suite and runs phase 1's
   experiments; every timed row runs on one domain. *)

open Bechamel
module Experiments = Tl_harness.Experiments
module Dataset = Tl_datasets.Dataset
module Data_tree = Tl_tree.Data_tree
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Twig = Tl_twig.Twig
module Pool = Tl_util.Pool
module Timer = Tl_util.Timer
module Baseline = Tl_oracle.Baseline
module Workload = Tl_workload.Workload
module Engine = Tl_serve.Engine
module Xorshift = Tl_util.Xorshift

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

(* --- trials --------------------------------------------------------------- *)

(* Every timed row is the median of [trials] trials, with the quartiles
   as its spread.  A trial times each sweep over a window of at least
   [min_window_ms], repeating the sweep when it is shorter, so the clock's
   resolution and a lone pause cannot set the figure.  [trials] is odd, so
   the median is one trial's figure. *)
let trials = 7

let min_window_ms = 10.0

type stat = { median : float; q1 : float; q3 : float; trials : int }

(* A one-shot value: its own median and quartiles. *)
let once v = { median = v; q1 = v; q3 = v; trials = 1 }

(* Linear interpolation between the order statistics of [sorted]. *)
let quantile sorted q =
  let last = Array.length sorted - 1 in
  let pos = q *. float_of_int last in
  let i = int_of_float pos in
  let j = min (i + 1) last in
  sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(j) -. sorted.(i)))

(* [f] must be monotone, so the quartiles of its image are its image of
   the quartiles (a decreasing [f] such as qps swaps them). *)
let stat ?(f = Fun.id) samples =
  let sorted = Array.map f samples in
  Array.sort Float.compare sorted;
  { median = quantile sorted 0.5; q1 = quantile sorted 0.25; q3 = quantile sorted 0.75;
    trials = Array.length sorted }

type sweep =
  | Once of (unit -> unit)  (** timed once per trial: a cold-key compile *)
  | Window of (unit -> unit)  (** repeated over a [min_window_ms] window *)

(* ms per sweep over one window, and the window's length. *)
let window_ms f =
  let rec go n elapsed =
    if elapsed >= min_window_ms then (elapsed /. float_of_int n, elapsed)
    else
      let (), ms = Timer.time_ms f in
      go (n + 1) (elapsed +. ms)
  in
  go 0 0.0

type samples = { per_sweep_ms : float array; timed_ms : float }

(* [run_trials prepare] runs [trials] trials.  Each calls [prepare ()]
   untimed for the trial's sweeps and times them in turn, so the paths a
   row compares alternate and a noisy stretch of clock hits all of them.
   Each sweep starts by finishing the major GC cycle, so the garbage one
   sweep leaves is not charged to the next.  Returns one [samples] per
   sweep, in [prepare]'s order. *)
let run_trials prepare =
  let time = function
    | Once f ->
      let (), ms = Timer.time_ms f in
      (ms, ms)
    | Window f -> window_ms f
  in
  let per_trial =
    Array.init trials (fun _ ->
        Array.of_list
          (List.map
             (fun sweep ->
               Gc.major ();
               time sweep)
             (prepare ())))
  in
  Array.init (Array.length per_trial.(0)) (fun s ->
      {
        per_sweep_ms = Array.map (fun t -> fst t.(s)) per_trial;
        timed_ms = Array.fold_left (fun acc t -> acc +. snd t.(s)) 0.0 per_trial;
      })

(* Per-trial ratio [num / den] of two sweeps timed in the same trials. *)
let ratio num den =
  Array.map2 (fun n d -> n /. Float.max 1e-9 d) num.per_sweep_ms den.per_sweep_ms

(* --- machine-readable result rows ---------------------------------------- *)

(* schema_version history: 1 = rows without units; 2 = top-level
   schema_version + a unit string per row; 3 = each row's value is a
   median, with its quartiles q1/q3 and its trial count. *)
let schema_version = 3

type row = {
  experiment : string;
  dataset : string;
  metric : string;
  stat : stat;
  unit : string;
  ms : float;
}

let rows : row list ref = ref []

let record ~experiment ~dataset ~metric ~unit ~ms stat =
  rows := { experiment; dataset; metric; stat; unit; ms } :: !rows

let row_json { experiment; dataset; metric; stat; unit; ms } =
  Printf.sprintf
    {|    {"experiment": %S, "dataset": %S, "metric": %S, "value": %.6f, "q1": %.6f, "q3": %.6f, "trials": %d, "unit": %S, "wall_clock_ms": %.3f}|}
    experiment dataset metric stat.median stat.q1 stat.q3 stat.trials unit ms

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

(* The Fig. 9 positive workload queries of one dataset. *)
let workload_twigs env =
  Array.concat
    (List.map
       (fun (wl : Workload.t) -> Array.map (fun (q : Workload.query) -> q.Workload.twig) wl.Workload.queries)
       env.Experiments.workloads)

(* --- estimation latency: interned keys vs the seed string path ----------- *)

(* Per-estimate latency over the Fig. 9 workload, for every scheme, against
   the hash-consed estimator and against {!Tl_oracle.Baseline} (the seed
   string-keyed path on its own twig type).  One untimed sweep of each
   path precedes the trials, so the interned path is measured at steady
   state (keys cached on the workload twigs), the regime repeated
   estimation over a workload runs in.  A speedup row is the median of
   the per-trial ratios. *)
let run_estimation_latency suite =
  print_string
    (Tl_harness.Report.section "estimation-latency"
       "fig9 workload: interned-key estimation vs seed string path (ns/estimate)");
  List.iter
    (fun env ->
      let name = env.Experiments.dataset.Dataset.name in
      let summary = env.Experiments.summary in
      let baseline = Baseline.of_summary summary in
      let queries = workload_twigs env in
      let nq = Array.length queries in
      if nq > 0 then begin
        let sweep estimate () = Array.iter (fun twig -> ignore (estimate twig)) queries in
        let paths =
          List.concat_map
            (fun scheme ->
              [ sweep (Estimator.estimate summary scheme); sweep (Baseline.estimate baseline scheme) ])
            Estimator.all_schemes
        in
        List.iter (fun sweep -> sweep ()) paths;
        let samples = run_trials (fun () -> List.map (fun sweep -> Window sweep) paths) in
        let ns = stat ~f:(fun ms -> ms *. 1e6 /. float_of_int nq) in
        let speedups =
          List.mapi
            (fun i scheme ->
              let sname = Estimator.scheme_name scheme in
              let keyed = samples.(2 * i) and base = samples.((2 * i) + 1) in
              let speedup = ratio base keyed in
              let keyed_ns = ns keyed.per_sweep_ms and base_ns = ns base.per_sweep_ms in
              let speedup_stat = stat speedup in
              Printf.printf "  %-8s %-22s keyed %9.0f ns   string %9.0f ns   speedup %5.2fx\n%!"
                name sname keyed_ns.median base_ns.median speedup_stat.median;
              record ~experiment:"estimation-latency" ~dataset:name
                ~metric:(Printf.sprintf "ns_per_estimate/%s" sname)
                ~unit:"ns" ~ms:keyed.timed_ms keyed_ns;
              record ~experiment:"estimation-latency" ~dataset:name
                ~metric:(Printf.sprintf "baseline_ns_per_estimate/%s" sname)
                ~unit:"ns" ~ms:base.timed_ms base_ns;
              record ~experiment:"estimation-latency" ~dataset:name
                ~metric:(Printf.sprintf "speedup/%s" sname)
                ~unit:"ratio" ~ms:(keyed.timed_ms +. base.timed_ms) speedup_stat;
              speedup)
            Estimator.all_schemes
        in
        let geomean =
          stat
            (Array.init trials (fun t ->
                 exp
                   (List.fold_left (fun acc s -> acc +. log s.(t)) 0.0 speedups
                   /. float_of_int (List.length speedups))))
        in
        Printf.printf "  %-8s %-22s speedup %5.2fx (geometric mean)\n%!" name "all schemes"
          geomean.median;
        record ~experiment:"estimation-latency" ~dataset:name ~metric:"speedup/geomean"
          ~unit:"ratio" ~ms:0.0 geomean
      end)
    (Experiments.envs suite)

(* Every key caches its leaf-pair splits, and keys are interned
   process-wide, so a twig some earlier sweep compiled is warm for good.
   [cold_copy env] moves [env]'s summary into a label range no summary or
   query has used, and returns it with the function that moves a twig the
   same way: a compile over the copy starts from cold keys. *)
let next_label_base = ref 1_000_000

let cold_copy env =
  let base = !next_label_base in
  next_label_base := base + 100_000;
  let shift = Twig.map_labels (fun l -> l + base) in
  let summary = env.Experiments.summary in
  let patterns = Summary.fold (fun tw c acc -> (shift tw, c) :: acc) summary [] in
  ( Summary.of_patterns ~k:(Summary.k summary) ~complete:(Summary.is_complete summary) patterns,
    shift )

(* --- plan compilation: cold vs warm keys ---------------------------------- *)

(* One voting compile per workload query, timed on cold keys and on warm
   ones.  Only the first compile of a sub-twig rebuilds its splits, so each
   trial compiles over a {!cold_copy} and its cold sweep runs once.  The
   warm sweep then recompiles the same queries.  Microseconds per
   compile. *)
let run_compile_latency suite =
  print_string
    (Tl_harness.Report.section "compile-latency"
       "fig9 workload: recursive+voting Plan.compile on cold vs warm keys (us/compile)");
  let scheme = Estimator.Recursive_voting in
  List.iter
    (fun env ->
      let name = env.Experiments.dataset.Dataset.name in
      let queries = workload_twigs env in
      let nq = Array.length queries in
      if nq > 0 then begin
        let samples =
          run_trials (fun () ->
              let summary, shift = cold_copy env in
              let shifted = Array.map shift queries in
              let sweep () =
                Array.iter (fun q -> ignore (Estimator.Plan.compile summary scheme q)) shifted
              in
              [ Once sweep; Window sweep ])
        in
        let us = stat ~f:(fun ms -> ms *. 1000.0 /. float_of_int nq) in
        let cold = us samples.(0).per_sweep_ms and warm = us samples.(1).per_sweep_ms in
        Printf.printf "  %-8s cold keys %8.1f us   warm keys %8.1f us   (%d queries)\n%!" name
          cold.median warm.median nq;
        record ~experiment:"compile-latency" ~dataset:name ~metric:"compile_us/cold_keys"
          ~unit:"us" ~ms:samples.(0).timed_ms cold;
        record ~experiment:"compile-latency" ~dataset:name ~metric:"compile_us/warm_keys"
          ~unit:"us" ~ms:samples.(1).timed_ms warm
      end)
    (Experiments.envs suite)

(* --- batched throughput: compiled plans vs the per-call keyed path ------- *)

let throughput_batch = 4096
let throughput_sweep = [ 64; 256; 1024; 4096 ]

let qps n ms = float_of_int n /. (Float.max 1e-9 ms /. 1000.0)

(* Repeated-query serving: a zipf-skewed batch drawn from the workload's
   distinct twigs — the regime the plan cache exists for.  Three paths over
   the same batch: the per-call keyed estimator (compiled-away baseline), a
   cold engine (a fresh engine over a {!cold_copy}, so the batch pays plan
   compilation from keys no compile has touched; timed once per trial),
   and a warm engine (every query hits a compiled plan), then the warm
   engine over a sweep of batch sizes.  The warm/per-call ratio is the
   headline number of this optimization.  The plan-cache hit rate is the
   warm engine's over one more batch after the trials. *)
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
      let distinct = workload_twigs env in
      if Array.length distinct > 0 then begin
        let nd = Array.length distinct in
        let rng = Xorshift.create 97 in
        let batch =
          Array.init throughput_batch (fun _ -> distinct.(Xorshift.zipf rng ~n:nd ~s:1.1 - 1))
        in
        let n = Array.length batch in
        let engine = Engine.create ~scheme summary in
        ignore (Engine.batch engine batch);
        let subs = List.map (fun bs -> Array.sub batch 0 (min bs n)) throughput_sweep in
        let samples =
          run_trials (fun () ->
              Window
                (fun () ->
                  Array.iter (fun twig -> ignore (Estimator.estimate summary scheme twig)) batch)
              ::
              (let cold_summary, shift = cold_copy env in
               let cold_batch = Array.map shift batch in
               Once (fun () -> ignore (Engine.batch (Engine.create ~scheme cold_summary) cold_batch)))
              :: List.map (fun sub -> Window (fun () -> ignore (Engine.batch engine sub)))
                   (batch :: subs))
        in
        let qps_of i len = stat ~f:(qps len) samples.(i).per_sweep_ms in
        let percall = qps_of 0 n and cold = qps_of 1 n and warm = qps_of 2 n in
        let speedup = stat (ratio samples.(0) samples.(2)) in
        Printf.printf
          "  %-8s per-call %9.0f qps   cold %9.0f qps   warm %9.0f qps   warm/per-call %5.2fx\n%!"
          name percall.median cold.median warm.median speedup.median;
        record ~experiment:"throughput" ~dataset:name ~metric:"qps_percall" ~unit:"qps"
          ~ms:samples.(0).timed_ms percall;
        record ~experiment:"throughput" ~dataset:name ~metric:"qps_cold" ~unit:"qps"
          ~ms:samples.(1).timed_ms cold;
        record ~experiment:"throughput" ~dataset:name ~metric:"qps_warm" ~unit:"qps"
          ~ms:samples.(2).timed_ms warm;
        record ~experiment:"throughput" ~dataset:name ~metric:"warm_vs_percall_speedup"
          ~unit:"ratio" ~ms:(samples.(0).timed_ms +. samples.(2).timed_ms) speedup;
        List.iteri
          (fun i (bs, sub) ->
            let s = qps_of (i + 3) (Array.length sub) in
            Printf.printf "  %-8s batch %4d          warm %9.0f qps\n%!" name (Array.length sub)
              s.median;
            record ~experiment:"throughput" ~dataset:name
              ~metric:(Printf.sprintf "qps_warm/batch_%d" bs)
              ~unit:"qps" ~ms:samples.(i + 3).timed_ms s)
          (List.combine throughput_sweep subs);
        let before = Engine.stats engine in
        ignore (Engine.batch engine batch);
        let s = Engine.stats engine in
        let hits = s.Tl_core.Plan_cache.hits - before.Tl_core.Plan_cache.hits in
        let lookups = hits + s.Tl_core.Plan_cache.misses - before.Tl_core.Plan_cache.misses in
        let hit_rate = if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups in
        Printf.printf "  %-8s plan cache: %d plans, warm-batch hit rate %.4f\n%!" name
          s.Tl_core.Plan_cache.size hit_rate;
        record ~experiment:"throughput" ~dataset:name ~metric:"plan_cache_hit_rate"
          ~unit:"ratio" ~ms:0.0 (once hit_rate)
      end)
    (Experiments.envs suite)

(* --- summary build (Table 3) ----------------------------------------------- *)

(* Data tree to lattice summary per dataset, on one domain, with the
   summary's size as a one-shot row.  A sweep is [Summary.build]'s work
   (a fresh counting context, mining, assembly) without its info log
   line, which would otherwise print inside every timed window. *)
let run_table3 suite =
  print_string
    (Tl_harness.Report.section "table3" "lattice summary build on one domain (ms/build)");
  List.iter
    (fun env ->
      let dataset = env.Experiments.dataset.Dataset.name in
      let summary = env.Experiments.summary in
      let tree = env.Experiments.tree and k = Summary.k summary in
      let build () =
        Summary.of_mining (Tl_mining.Miner.mine (Tl_twig.Match_count.create_ctx tree) ~max_size:k)
      in
      let samples = run_trials (fun () -> [ Window (fun () -> ignore (build ())) ]) in
      let ms = stat samples.(0).per_sweep_ms in
      Printf.printf "  %-8s lattice build %9.2f ms   (q1 %.2f, q3 %.2f)\n%!" dataset ms.median ms.q1
        ms.q3;
      record ~experiment:"table3" ~dataset ~metric:"lattice_build_ms" ~unit:"ms"
        ~ms:samples.(0).timed_ms ms;
      record ~experiment:"table3" ~dataset ~metric:"summary_bytes" ~unit:"bytes" ~ms:0.0
        (once (float_of_int (Summary.memory_bytes summary))))
    (Experiments.envs suite)

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
     jitter to the single-domain timings below. *)
  let suite =
    let pool = Pool.create ~domains:jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let suite, ms = Timer.time_ms (fun () -> Experiments.make_suite ~pool config) in
    Printf.printf "prepared 4 datasets in %.1f s\n%!" (ms /. 1000.0);
    record ~experiment:"prepare" ~dataset:"all" ~metric:"suite_prepare_ms" ~unit:"ms" ~ms (once ms);
    List.iter
      (fun (id, _, driver) ->
        let report, ms = Timer.time_ms (fun () -> driver suite) in
        print_string report;
        Printf.printf "  [%s completed in %.1f s]\n%!" id (ms /. 1000.0);
        record ~experiment:id ~dataset:"all" ~metric:"report_ms" ~unit:"ms" ~ms (once ms))
      Experiments.all_experiments;
    suite
  in
  run_table3 suite;
  run_throughput suite;
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
