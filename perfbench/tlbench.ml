(* The out-of-process benchmark of treelattice.

   Usage: tlbench.exe --workload NAME --seed N --seconds S --trace 0|1
                      --program PATH --work DIR

   Every workload runs the shipped binary ([--program]) as its own
   processes, driven from this one load-generator process:

   1. build: generate the four documents from the seed and time
      [treelattice summarize -k 4] passes over them, checking the written
      summaries against the documents;
   2. setup: launch [treelattice serve --listen 0] several times, timing
      each until its TCP port file exists;
   3. serve: a closed loop of 2 clients (the host's core count; run.py
      pins the whole run to one CPU) sending fixed-size batches of
      [NAME:]-routed query lines, every answer checked bit for bit
      against the oracle.

   Workloads (why each exists is recorded in BENCHMARK.json):
   - serve-hot: 20k-element documents, zipf-skewed repeats that the plan
     cache holds; framing, routing, parsing and keying dominate.
   - serve-churn: the same documents, uniform draws over more distinct
     twigs than the plan cache holds, 10% zero-selectivity lines, and a
     [reload NAME SUMMARY_PATH] control line after every 64 batches; plan
     compilation and decomposition dominate.
   - build: 100k-element documents; build passes fill 70% of the
     measured time (20% on the serve workloads), then the built summary files themselves are served
     hot for the rest, so every end-to-end metric exists on every
     workload.

   With --trace 1 the same run additionally traces each layer (see
   Layers) and prints per-layer metrics instead of end-to-end ones.  The
   last stdout line is the JSON result. *)

module Registry = Tl_serve.Registry
module Data_tree = Tl_tree.Data_tree
module Summary = Tl_lattice.Summary

let now = Proc.now

type workload = {
  name : string;
  target : int;  (** elements per generated document *)
  mix : Inputs.mix;
  batch_size : int;  (** query lines per request *)
  build_focus : bool;
      (** build passes fill 70% of the time, not 20%, and the built
          summary files, not the XML, are served for the rest *)
  reload_every : int option;  (** batches between reload control lines *)
}

let workloads =
  [
    { name = "serve-hot"; target = 20_000; mix = Inputs.Hot; batch_size = 256; build_focus = false;
      reload_every = None };
    { name = "serve-churn"; target = 20_000; mix = Inputs.Churn; batch_size = 32; build_focus = false;
      reload_every = Some 64 };
    { name = "build"; target = 100_000; mix = Inputs.Hot; batch_size = 256; build_focus = true;
      reload_every = None };
  ]

let clients = 2

(* Server launches timed for setup_s: at least 3, and more until 3 s are
   used, so the 40 ms launches of build's summary files get a real
   sample.  The last one serves the load. *)
let min_launches = 3

let launch_budget_s = 3.0

let warmup_s = 0.5

(* --- arguments -------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: tlbench.exe --workload serve-hot|serve-churn|build --seed N --seconds S --trace 0|1 \
     --program PATH --work DIR";
  exit 2

let arg name =
  let rec find = function
    | flag :: value :: _ when flag = name -> value
    | _ :: rest -> find rest
    | [] -> usage ()
  in
  find (Array.to_list Sys.argv)

let int_arg name = match int_of_string_opt (arg name) with Some n -> n | None -> usage ()

(* --- statistics ------------------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, and how many samples lie above it. *)
let percentile xs q =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (0.0, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    (a.(rank - 1), n - rank)

(* --- phases ----------------------------------------------------------------- *)

let file_contents path = In_channel.with_open_bin path In_channel.input_all

(* Build passes.  The first pass's summaries are the reference bytes;
   every later pass must write identical files.  A traced run makes one
   pass; otherwise passes go on until 20% of the measuring time is used
   (70% on build), and at least twice. *)
let build_phase ~w ~program ~log ~seconds ~trace docs =
  let pairs = List.map (fun (d : Inputs.doc) -> (d.Inputs.xml, d.Inputs.summary)) docs in
  let t0 = now () in
  let first_s, first_rss = Proc.summarize_pass ~prog:program ~log pairs in
  let reference = List.map (fun (d : Inputs.doc) -> file_contents d.Inputs.summary) docs in
  let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 reference in
  let share = if w.build_focus then 0.7 else 0.2 in
  let another n = (not trace) && (n < 2 || now () -. t0 < float_of_int seconds *. share) in
  let rec passes times rss mismatches n =
    if another n then begin
      let s, r = Proc.summarize_pass ~prog:program ~log pairs in
      let differ (d : Inputs.doc) ref_bytes = file_contents d.Inputs.summary <> ref_bytes in
      let bad = List.length (List.filter Fun.id (List.map2 differ docs reference)) in
      passes (s :: times) (Float.max rss r) (mismatches + bad) (n + 1)
    end
    else (times, rss, mismatches, n)
  in
  let times, rss, mismatches, n = passes [ first_s ] first_rss 0 1 in
  (times, rss, bytes, mismatches, n * List.length docs)

type served = {
  tallies : Client.tally list;
  window_s : float;  (** measuring window, until the last batch answered *)
  loadgen_cpu : float;  (** this process's CPU time over wall time *)
  reloads_sent : int;
  reloads_done : int;  (** by the server's tl_registry_reloads_total *)
  reload_failures : int;
  live : string -> float;  (** a /metrics sample's growth over the phase *)
}

let serve_phase ~w ~seed ~seconds ~server ~pools ~expected ~docs =
  let sent = Atomic.make 0 and completed = Atomic.make 0 in
  let ctl = Mutex.create () in
  let on_batch () =
    let k = Atomic.fetch_and_add completed 1 + 1 in
    match w.reload_every with
    | Some every when k mod every = 0 ->
      let i = Atomic.fetch_and_add sent 1 in
      let d : Inputs.doc = docs.(i mod Array.length docs) in
      Mutex.protect ctl (fun () -> Proc.send_control server (Printf.sprintf "reload %s %s" d.Inputs.name d.Inputs.summary))
    | _ -> ()
  in
  let before = Proc.scrape server in
  let t = { Client.pools; expected; batch_size = w.batch_size; on_batch } in
  let start = now () in
  let window_start = start +. warmup_s in
  let deadline = window_start +. float_of_int seconds in
  let cpu0 = Unix.times () in
  let tallies = Client.run_all t ~port:server.Proc.port ~seed ~clients ~window_start ~deadline in
  let cpu1 = Unix.times () in
  let finish = List.fold_left (fun acc (r : Client.tally) -> Float.max acc r.Client.last_end) window_start tallies in
  let cpu =
    cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime
  in
  let loadgen_cpu = cpu /. (now () -. start) in
  (* The server handles control lines on its own thread; give it until
     the counter shows every reload sent (or 10 s) before checking. *)
  let reloads_sent = Atomic.get sent in
  let delta table name = Proc.sample table name -. Proc.sample before name in
  let rec settle tries =
    let table = Proc.scrape server in
    if int_of_float (delta table "tl_registry_reloads_total") >= reloads_sent || tries = 0 then table
    else begin
      Unix.sleepf 0.05;
      settle (tries - 1)
    end
  in
  let after = settle 200 in
  {
    tallies;
    window_s = finish -. window_start;
    loadgen_cpu;
    reloads_sent;
    reloads_done = int_of_float (delta after "tl_registry_reloads_total");
    reload_failures = int_of_float (delta after "tl_registry_reload_failures_total");
    live = delta after;
  }

(* --- output ----------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted failed
    body

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* --- main ------------------------------------------------------------------- *)

let () =
  let name = arg "--workload" in
  let w = match List.find_opt (fun w -> w.name = name) workloads with Some w -> w | None -> usage () in
  let seed = int_arg "--seed" and seconds = int_arg "--seconds" in
  let trace = int_arg "--trace" = 1 in
  let program = arg "--program" in
  let work = Filename.concat (arg "--work") (Printf.sprintf "%s-%d-%d" w.name seed (Unix.getpid ())) in
  Sys.mkdir work 0o755;
  let log = Filename.concat work "program.log" in
  Fun.protect ~finally:(fun () -> remove_tree work) @@ fun () ->
  let say fmt = Printf.printf (fmt ^^ "\n%!") in
  let docs = Inputs.write_documents ~work ~target:w.target ~seed in
  (* 1. build *)
  let build_times, build_rss, summary_bytes, mismatches, summaries =
    build_phase ~w ~program ~log ~seconds ~trace docs
  in
  (* What each dataset is served from; the oracle's registry loads exactly
     what the server will. *)
  let datasets =
    List.map
      (fun (d : Inputs.doc) -> (d.Inputs.name, if w.build_focus then d.Inputs.summary else d.Inputs.xml))
      docs
  in
  let reg = Oracle.registry () in
  List.iter
    (fun (name, source) ->
      match Registry.load reg name source with Ok _ -> () | Error msg -> failwith ("oracle load: " ^ msg))
    datasets;
  let trees =
    List.map
      (fun (d : Inputs.doc) ->
        match Registry.tree (Oracle.bundle reg d.Inputs.name) with
        | Some tree -> tree
        | None -> Data_tree.of_xml (Tl_xml.Xml_dom.parse_file d.Inputs.xml))
      docs
  in
  let summary_problems =
    List.concat
      (List.map2
         (fun (d : Inputs.doc) tree ->
           let ctx = Tl_twig.Match_count.create_ctx tree in
           (* On build the registry holds the built files themselves, so
              the document is mined here for the expected entry count. *)
           let entries =
             if w.build_focus then Tl_mining.Miner.total_patterns (Tl_mining.Miner.mine ctx ~max_size:4)
             else Summary.entries (Registry.summary (Oracle.bundle reg d.Inputs.name))
           in
           Oracle.check_summary ~seed ~entries ctx d.Inputs.summary)
         docs trees)
  in
  let bad_summaries = mismatches + List.length summary_problems in
  List.iter (fun p -> prerr_endline ("summary check: " ^ p)) summary_problems;
  let pools =
    Array.of_list
      (List.map2 (fun (d : Inputs.doc) tree -> Inputs.pool ~seed ~mix:w.mix ~dataset:d.Inputs.name tree) docs trees)
  in
  (* The traced run's build layers and in-process replay come before the
     oracle touches the registry, so the replay sees what a fresh server
     has.  The replay's batches are the clients' first ones. *)
  let layers =
    if not trace then None
    else begin
      let rngs = Array.init clients (Client.rng ~seed) in
      let n = match w.mix with Inputs.Hot -> 600 | Inputs.Churn -> 256 in
      let replay =
        {
          Layers.reg;
          pools;
          docs = Array.of_list docs;
          batches = List.init n (fun i -> snd (Inputs.batch rngs.(i mod clients) pools ~size:w.batch_size));
          reload_every = w.reload_every;
        }
      in
      let build = Layers.trace_build ~work docs in
      Some (build, Layers.replay replay)
    end
  in
  let expected = Oracle.expected reg pools in
  (* 2. setup *)
  let t0 = now () in
  let rec launch setups rss =
    let server = Proc.start_server ~prog:program ~work ~log datasets in
    let setups = server.Proc.setup_s :: setups in
    if trace || (List.length setups >= min_launches && now () -. t0 >= launch_budget_s) then (server, setups, rss)
    else begin
      let _, r = Proc.stop_server server in
      launch setups (Float.max rss r)
    end
  in
  let server, setups, setup_rss = launch [] 0.0 in
  (* 3. serve *)
  let serve_seconds = if w.build_focus then max 1 (seconds * 3 / 10) else seconds in
  let served = serve_phase ~w ~seed ~seconds:serve_seconds ~server ~pools ~expected ~docs:(Array.of_list docs) in
  let code, server_rss = Proc.stop_server server in
  let { tallies; window_s; loadgen_cpu; reloads_sent; reloads_done; reload_failures; live } = served in
  let sum f = List.fold_left (fun acc (r : Client.tally) -> acc + f r) 0 tallies in
  let lines = sum (fun r -> r.Client.lines) and failed_lines = sum (fun r -> r.Client.failed) in
  let window_lines = sum (fun r -> r.Client.window_lines) in
  let rts = List.concat_map (fun (r : Client.tally) -> r.Client.rts_ms) tallies in
  List.iter (fun (r : Client.tally) -> List.iter (fun p -> prerr_endline ("answer check: " ^ p)) (List.rev r.Client.problems)) tallies;
  let reload_errors = abs (reloads_done - reloads_sent) + reload_failures in
  if reload_errors > 0 then
    Printf.eprintf "reload check: %d sent, %d applied, %d failed\n%!" reloads_sent reloads_done reload_failures;
  if code <> 0 then Printf.eprintf "treelattice serve exited %d (see program.log)\n%!" code;
  let attempted = lines + summaries + reloads_sent in
  let failed = failed_lines + bad_summaries + reload_errors + if code <> 0 then 1 else 0 in
  let qps = float_of_int window_lines /. window_s in
  let p50 = median rts and p99, beyond = percentile rts 0.99 in
  let rss_mb = List.fold_left Float.max server_rss [ build_rss; setup_rss ] in
  let build_s = median build_times and setup_s = median setups in
  say "perfbench %s seed %d: %d clients, %d-line batches, %d datasets" w.name seed clients w.batch_size
    (Array.length pools);
  say "  build   %.3f s per pass (%d passes), %d summary bytes, %d bad summaries" build_s
    (List.length build_times) summary_bytes bad_summaries;
  say "  setup   %.3f s median of %d launches" setup_s (List.length setups);
  say "  pools   %s distinct lines"
    (String.concat ", "
       (Array.to_list (Array.map (fun (p : Inputs.pool) -> Printf.sprintf "%s %d" p.Inputs.dataset (Array.length p.Inputs.entries)) pools)));
  say "  serve   %.0f lines/s over %.1f s; %d batches, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (%d samples beyond \
       p99), max %.3f ms"
    qps window_s (List.length rts) p50 (fst (percentile rts 0.9)) p99 beyond (fst (percentile rts 1.0));
  say "  checks  %d of %d attempted failed (error_rate %.3g); %d reloads sent, %d applied" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted))
    reloads_sent reloads_done;
  say "  loadgen %.1f%% of one core; peak RSS %.1f MB" (100.0 *. loadgen_cpu) rss_mb;
  let correct = failed = 0 in
  match layers with
  | None ->
    print_result ~correct ~attempted ~failed
      [
        ("qps", "1/s", qps);
        ("batch_p50_ms", "ms", p50);
        ("batch_p99_ms", "ms", p99);
        ("correct_ratio", "ratio", float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
        ("setup_s", "s", setup_s);
        ("rss_mb", "MB", rss_mb);
        ("build_s", "s", build_s);
        ("summary_bytes", "bytes", float_of_int summary_bytes);
      ]
  | Some (build_layers, replayed) ->
    let live =
      List.map
        (fun n -> (n, live ("tl_" ^ String.map (function '.' -> '_' | c -> c) n)))
        [ "server.request_ns_sum"; "server.request_ns_count"; "plan_cache.hits"; "plan_cache.misses";
          "plan_cache.evictions"; "plan.compiles"; "serve.latency_ns_sum"; "serve.latency_ns_count";
          "server.shed_total" ]
    in
    let rt_ms = List.fold_left ( +. ) 0.0 rts /. float_of_int (max 1 (List.length rts)) in
    let metrics =
      build_layers @ Layers.serve_metrics replayed ~live ~rt_ms @ [ ("loadgen.cpu_share", "ratio", loadgen_cpu) ]
    in
    Layers.write_jsonl (Filename.concat (arg "--work") (Printf.sprintf "trace-%s-%d.jsonl" w.name seed));
    List.iter (fun (n, u, v) -> say "  %-28s %14.6g %s" n v u) metrics;
    print_result ~correct ~attempted ~failed metrics
