(* Observability subsystem: domain-sharded metrics (the parallel ==
   sequential snapshot property), span nesting, histogram bucketing, the
   monotonic clock behind Timer, and the estimator explain-trace. *)

module TB = Tl_tree.Tree_builder
module Metrics = Tl_obs.Metrics
module Span = Tl_obs.Span
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Explain = Tl_core.Explain
module Pool = Tl_util.Pool

(* --- monotonic clock (Timer's source since the wall-clock fix) ----------- *)

let test_clock_monotonic () =
  let a = Tl_util.Mono_clock.now_ns () in
  let b = Tl_util.Mono_clock.now_ns () in
  Alcotest.(check bool) "now_ns never goes backwards" true (b >= a);
  Alcotest.(check bool) "elapsed_ns is non-negative" true (Tl_util.Mono_clock.elapsed_ns ~since:a >= 0);
  let t0 = Tl_util.Timer.now () in
  let t1 = Tl_util.Timer.now () in
  Alcotest.(check bool) "Timer.now never goes backwards" true (t1 >= t0);
  let _, ms = Tl_util.Timer.time_ms (fun () -> Sys.opaque_identity (List.init 1000 Fun.id)) in
  Alcotest.(check bool) "time_ms is non-negative" true (ms >= 0.0)

(* --- histogram bucketing ------------------------------------------------- *)

let test_bucketing () =
  let cases = [ (-5, 0); (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9); (1024, 10) ] in
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Metrics.bucket_of v))
    cases;
  Alcotest.(check int) "bucket_of max_int is clamped" 61 (Metrics.bucket_of max_int);
  Alcotest.(check int) "bucket_floor 0" 0 (Metrics.bucket_floor 0);
  Alcotest.(check int) "bucket_floor 1" 2 (Metrics.bucket_floor 1);
  Alcotest.(check int) "bucket_floor 5" 32 (Metrics.bucket_floor 5);
  (* Every value lands in the bucket whose floor bounds it below. *)
  for v = 2 to 4096 do
    let b = Metrics.bucket_of v in
    assert (Metrics.bucket_floor b <= v && v < Metrics.bucket_floor (b + 1))
  done

let test_histogram_snapshot () =
  Metrics.reset ();
  List.iter (Metrics.observe "t.hist") [ 1; 1; 3; 8; 9; 500 ];
  match (Metrics.snapshot ()).Metrics.histograms with
  | [ (name, h) ] ->
    Alcotest.(check string) "name" "t.hist" name;
    Alcotest.(check int) "observations" 6 h.Metrics.h_observations;
    Alcotest.(check int) "sum" 522 h.Metrics.h_sum;
    Alcotest.(check int) "min" 1 h.Metrics.h_min;
    Alcotest.(check int) "max" 500 h.Metrics.h_max;
    Alcotest.(check (list (pair int int)))
      "non-empty buckets, ascending floors"
      [ (0, 2); (2, 1); (8, 2); (256, 1) ]
      h.Metrics.h_buckets
  | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs)

(* --- counters, gauges, rendering ----------------------------------------- *)

let test_counters_and_rendering () =
  Metrics.reset ();
  Metrics.incr "b.count";
  Metrics.add "b.count" 4;
  Metrics.incr "a.count";
  Metrics.set_gauge "g.size" 3;
  Metrics.set_gauge "g.size" 7;
  Metrics.observe "h.vals" 10;
  let snap = Metrics.snapshot () in
  Alcotest.(check (list (pair string int)))
    "counters sorted and summed"
    [ ("a.count", 1); ("b.count", 5) ]
    snap.Metrics.counters;
  Alcotest.(check (list (pair string int))) "gauge keeps last set" [ ("g.size", 7) ] snap.Metrics.gauges;
  let prom = Metrics.to_prometheus snap in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prometheus output contains " ^ needle) true
        (Tl_util.Prelude.string_contains ~needle prom))
    [
      "# TYPE tl_a_count counter"; "tl_b_count 5"; "# TYPE tl_g_size gauge";
      "# TYPE tl_h_vals histogram"; "tl_h_vals_bucket{le=\"+Inf\"} 1"; "tl_h_vals_sum 10";
    ];
  Alcotest.(check bool) "pp_table mentions the counter" true
    (Tl_util.Prelude.string_contains ~needle:"a.count" (Metrics.pp_table snap));
  Metrics.reset ();
  let empty = Metrics.snapshot () in
  Alcotest.(check int) "reset clears counters" 0 (List.length empty.Metrics.counters)

(* --- histogram quantiles -------------------------------------------------- *)

let test_quantile () =
  Metrics.reset ();
  let empty =
    { Metrics.h_observations = 0; h_sum = 0; h_min = 0; h_max = 0; h_buckets = [] }
  in
  Alcotest.(check bool) "empty histogram has nan quantiles" true
    (Float.is_nan (Metrics.quantile empty 0.5));
  (* All mass in bucket 0 (values <= 1): every quantile collapses there. *)
  List.iter (Metrics.observe "q.ones") [ 1; 1; 1; 1 ];
  let h = List.assoc "q.ones" (Metrics.snapshot ()).Metrics.histograms in
  Alcotest.(check (float 1e-9)) "all-ones p50" 1.0 (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "all-ones p99" 1.0 (Metrics.quantile h 0.99);
  Metrics.reset ();
  (* 100 observations of 10 and one of 1000: low quantiles sit in the
     [8,15] bucket (clamped to the true min), the p99+ tail reaches the
     high bucket (clamped to the true max). *)
  for _ = 1 to 100 do
    Metrics.observe "q.skew" 10
  done;
  Metrics.observe "q.skew" 1000;
  let h = List.assoc "q.skew" (Metrics.snapshot ()).Metrics.histograms in
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool) "p50 within its bucket" true (p50 >= 10.0 && p50 <= 15.0);
  Alcotest.(check (float 1e-9)) "p100 is the max" 1000.0 (Metrics.quantile h 1.0);
  Alcotest.(check bool) "monotone in q" true
    (Metrics.quantile h 0.25 <= Metrics.quantile h 0.75
    && Metrics.quantile h 0.75 <= Metrics.quantile h 1.0);
  (* Single observation: every quantile is that value exactly. *)
  Metrics.reset ();
  Metrics.observe "q.one" 37;
  let h = List.assoc "q.one" (Metrics.snapshot ()).Metrics.histograms in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "single obs at q=%.2f" q) 37.0
        (Metrics.quantile h q))
    [ 0.0; 0.5; 0.9; 1.0 ]

let test_prometheus_help_and_buckets () =
  Metrics.reset ();
  Metrics.describe "helped.count" "A documented counter";
  Metrics.incr "helped.count";
  Metrics.observe "gap.hist" 1;
  Metrics.observe "gap.hist" 100;
  let prom = Metrics.to_prometheus (Metrics.snapshot ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prom contains " ^ needle) true
        (Tl_util.Prelude.string_contains ~needle prom))
    [
      "# HELP tl_helped_count A documented counter";
      (* the full cumulative series: gap buckets between 1 and 100 are
         materialized, the +Inf bucket equals the count *)
      "tl_gap_hist_bucket{le=\"1\"} 1";
      "tl_gap_hist_bucket{le=\"3\"} 1";
      "tl_gap_hist_bucket{le=\"63\"} 1";
      "tl_gap_hist_bucket{le=\"127\"} 2";
      "tl_gap_hist_bucket{le=\"+Inf\"} 2";
      "tl_gap_hist_sum 101";
      "tl_gap_hist_count 2";
    ];
  (* Cumulative counts never decrease along the series. *)
  let lines = String.split_on_char '\n' prom in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if Tl_util.Prelude.string_contains ~needle:"tl_gap_hist_bucket" l then
          int_of_string_opt (List.nth (String.split_on_char ' ' l) 1)
        else None)
      lines
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "bucket series is cumulative" true (nondecreasing bucket_counts)

(* --- the tentpole property: parallel metrics == sequential --------------- *)

(* The same per-element work (counter bumps + histogram observations) run
   through an N-domain pool must merge to a snapshot bit-identical to the
   sequential run.  Gauges are excluded: [max]-merge is deterministic but
   "last write" (sequential) and "max across domains" (parallel) are
   different reductions by design. *)
let prop_parallel_snapshot_identical =
  let open QCheck2 in
  let gen = Gen.pair (Gen.list_size (Gen.int_range 1 120) (Gen.int_bound 2000)) (Gen.int_range 2 4) in
  Helpers.qcheck_case ~count:25 ~name:"metrics: pool run merges to the sequential snapshot" gen
    (fun (values, domains) ->
      let work v =
        Metrics.incr "p.elements";
        Metrics.add "p.sum" v;
        Metrics.observe "p.hist" v
      in
      let arr = Array.of_list values in
      Metrics.reset ();
      Array.iter work arr;
      let sequential = Metrics.snapshot () in
      Metrics.reset ();
      let _ = Pool.with_pool ~domains (fun pool -> Pool.parallel_map pool (fun v -> work v; v) arr) in
      let parallel = Metrics.snapshot () in
      Metrics.equal_snapshot sequential parallel)

(* End-to-end flavor of the same property: mining a summary across a pool
   leaves the instrumentation (match-count calls, per-level candidate
   counters, selectivity histogram) identical to the sequential run. *)
let test_miner_metrics_parallel_identical () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let ctx = Tl_twig.Match_count.create_ctx tree in
  Metrics.reset ();
  let seq = Tl_mining.Miner.mine ctx ~max_size:3 in
  let seq_snap = Metrics.snapshot () in
  Metrics.reset ();
  let par = Pool.with_pool ~domains:3 (fun pool -> Tl_mining.Miner.mine ~pool ctx ~max_size:3) in
  let par_snap = Metrics.snapshot () in
  Alcotest.(check int) "same pattern count" (Tl_mining.Miner.total_patterns seq)
    (Tl_mining.Miner.total_patterns par);
  Alcotest.(check bool) "mining metrics identical under -j 3" true
    (Metrics.equal_snapshot seq_snap par_snap)

(* --- spans ---------------------------------------------------------------- *)

let with_spans f =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) f

let test_span_nesting () =
  with_spans @@ fun () ->
  let r =
    Span.with_ "outer" (fun () ->
        Span.with_ "inner" (fun () -> ignore (Sys.opaque_identity 1));
        Span.with_ "inner" (fun () -> ());
        17)
  in
  Alcotest.(check int) "with_ returns the body's value" 17 r;
  let spans = Span.finished () in
  Alcotest.(check (list string))
    "paths record the ancestor chain, sorted by start time"
    [ "outer"; "outer;inner"; "outer;inner" ]
    (List.map (fun s -> s.Span.path) spans);
  let outer = List.hd spans in
  Alcotest.(check int) "root depth" 1 outer.Span.depth;
  List.iter
    (fun s ->
      Alcotest.(check int) "child depth" 2 s.Span.depth;
      Alcotest.(check bool) "child starts inside parent" true (s.Span.start_ns >= outer.Span.start_ns);
      Alcotest.(check bool) "child fits inside parent" true (s.Span.dur_ns <= outer.Span.dur_ns))
    (List.tl spans)

let test_span_exception_and_disabled () =
  with_spans (fun () ->
      (try Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "span recorded despite the raise" 1 (List.length (Span.finished ())));
  Span.reset ();
  Alcotest.(check bool) "disabled by default here" false (Span.enabled ());
  Alcotest.(check int) "disabled with_ still runs the body" 3 (Span.with_ "off" (fun () -> 3));
  Alcotest.(check int) "and records nothing" 0 (List.length (Span.finished ()))

let test_span_jsonl_and_flame () =
  with_spans @@ fun () ->
  Span.with_ "a" (fun () -> Span.with_ "b" (fun () -> ()));
  let path = Filename.temp_file "tl_obs" ".jsonl" in
  let oc = open_out path in
  let n = Span.dump_jsonl oc in
  close_out oc;
  Alcotest.(check int) "two spans dumped" 2 n;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "JSONL line carries the path" true
    (Tl_util.Prelude.string_contains ~needle:{|"path":"a"|} first);
  let flame = Span.flame () in
  Alcotest.(check bool) "flame table indents the child" true
    (Tl_util.Prelude.string_contains ~needle:"  b" flame)

let test_span_sink () =
  Span.reset ();
  let path = Filename.temp_file "tl_obs_sink" ".jsonl" in
  Span.set_sink path;
  Alcotest.(check bool) "set_sink enables recording" true (Span.enabled ());
  Span.with_ "sinked" (fun () -> ());
  (match Span.close_sink () with
  | None -> Alcotest.fail "close_sink lost the sink"
  | Some (p, n) ->
    Alcotest.(check string) "sink path" path p;
    Alcotest.(check int) "one span flushed" 1 n);
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "flushed line carries the span" true
    (Tl_util.Prelude.string_contains ~needle:{|"path":"sinked"|} first);
  Alcotest.(check bool) "second close is a no-op" true (Span.close_sink () = None);
  Span.set_enabled false;
  Span.reset ()

(* --- exporter: scrape the endpoint over a real socket --------------------- *)

let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let status_of response =
  match String.split_on_char ' ' response with _ :: code :: _ -> int_of_string code | _ -> -1

let test_exporter_round_trip () =
  Metrics.reset ();
  Metrics.incr "scraped.count";
  Metrics.observe "scraped.hist" 42;
  let hits = ref 0 in
  let exporter =
    Tl_obs.Exporter.start
      ~routes:
        [
          ("/custom", fun () -> incr hits; Tl_obs.Exporter.text "custom body\n");
          ("/failing", fun () -> failwith "route exploded");
        ]
      ()
  in
  Fun.protect ~finally:(fun () -> Tl_obs.Exporter.stop exporter) @@ fun () ->
  let port = Tl_obs.Exporter.port exporter in
  Alcotest.(check bool) "bound an ephemeral port" true (port > 0);
  let metrics = http_get port "/metrics" in
  Alcotest.(check int) "/metrics is 200" 200 (status_of metrics);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("/metrics body contains " ^ needle) true
        (Tl_util.Prelude.string_contains ~needle metrics))
    [
      "# HELP tl_scraped_count"; "tl_scraped_count 1"; "# TYPE tl_scraped_hist histogram";
      "tl_scraped_hist_bucket{le=\"+Inf\"} 1"; "tl_scraped_hist_sum 42";
    ];
  let custom = http_get port "/custom?x=1" in
  Alcotest.(check int) "/custom is 200 (query string stripped)" 200 (status_of custom);
  Alcotest.(check bool) "custom body served" true
    (Tl_util.Prelude.string_contains ~needle:"custom body" custom);
  Alcotest.(check int) "route callback ran once" 1 !hits;
  Alcotest.(check int) "unknown path is 404" 404 (status_of (http_get port "/nope"));
  Alcotest.(check int) "raising route is 500" 500 (status_of (http_get port "/failing"));
  (* A second scrape after errors still works — the endpoint survives
     misbehaving routes and clients. *)
  Alcotest.(check int) "endpoint still alive" 200 (status_of (http_get port "/metrics"));
  Tl_obs.Exporter.stop exporter;
  Tl_obs.Exporter.stop exporter (* idempotent *)

(* The partial-write regression: a scraper that accepts the response
   slower than the socket's send timeout used to get a silently truncated
   body (the first EAGAIN was treated as a dead client).  The reader here
   refuses to read while the server fills every buffer and rides out
   whole timeout periods, then pauses again mid-drain — the full
   Content-Length body must still arrive, byte for byte. *)
let test_exporter_survives_throttled_reader () =
  let body = String.init (2 * 1024 * 1024) (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let exporter =
    Tl_obs.Exporter.start ~timeout:0.25
      ~routes:[ ("/big", fun () -> Tl_obs.Exporter.text body) ]
      ()
  in
  Fun.protect ~finally:(fun () -> Tl_obs.Exporter.stop exporter) @@ fun () ->
  let port = Tl_obs.Exporter.port exporter in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = "GET /big HTTP/1.0\r\n\r\n" in
  ignore (Unix.write_substring sock req 0 (String.length req));
  (* Stall past the send timeout before accepting a single byte. *)
  Unix.sleepf 0.6;
  let buf = Buffer.create (String.length body) in
  let chunk = Bytes.create 65536 in
  let paused_midway = ref false in
  let rec drain () =
    let n = Unix.read sock chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      if (not !paused_midway) && Buffer.length buf > String.length body / 2 then begin
        paused_midway := true;
        Unix.sleepf 0.6
      end;
      drain ()
    end
  in
  drain ();
  let response = Buffer.contents buf in
  Alcotest.(check int) "throttled scrape still 200" 200 (status_of response);
  let body_start =
    let rec find i =
      if i + 4 > String.length response then Alcotest.fail "no header terminator"
      else if String.sub response i 4 = "\r\n\r\n" then i + 4
      else find (i + 1)
    in
    find 0
  in
  let received = String.sub response body_start (String.length response - body_start) in
  Alcotest.(check int) "full Content-Length received" (String.length body)
    (String.length received);
  Alcotest.(check bool) "body intact" true (String.equal body received)

(* --- explain traces ------------------------------------------------------- *)

let golden_doc = TB.node "a" [ TB.node "b" [ TB.leaf "c" ]; TB.node "b" [ TB.leaf "c" ] ]

let golden_text =
  "estimate[recursive+voting] = 2.00 for a(b(c))\n\
   query a(b(c)) = 2.00 [decomposed] via 1 pair(s):\n\
  \  pair 1: s1*s2/s_cap = 2.00  [e1=2.00 e2=2.00 e_cap=2.00]\n\
  \    s1  b(c) = 2.00 [summary]\n\
  \    s2  a(b) = 2.00 [summary]\n\
  \    s_cap b = 2.00 [summary]\n\
   lookups: 3 summary hit(s), 0 extra hit(s), 0 true zero(s), 1 decomposition(s); 4 distinct \
   sub-twig(s)\n"

let test_explain_golden () =
  let tree = Helpers.tree_of golden_doc in
  let summary = Summary.build ~k:2 tree in
  let twig = Helpers.twig_of_string tree "a(b(c))" in
  let trace = Explain.run summary Estimator.Recursive_voting twig in
  Alcotest.(check (float 0.0))
    "trace estimate is the estimator's own"
    (Estimator.estimate summary Estimator.Recursive_voting twig)
    trace.Explain.estimate;
  Alcotest.(check int) "three summary hits" 3 trace.Explain.summary_hits;
  Alcotest.(check int) "one decomposition" 1 trace.Explain.decompositions;
  Alcotest.(check string) "golden rendering" golden_text
    (Explain.to_text ~names:(Tl_tree.Data_tree.label_name tree) trace);
  let dot = Tl_viz.Dot.explain ~names:(Tl_tree.Data_tree.label_name tree) trace in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("dot contains " ^ needle) true
        (Tl_util.Prelude.string_contains ~needle dot))
    [ "digraph"; "penwidth=2"; "fillcolor=lightblue"; "cap\", style=dashed" ]

(* Whatever the scheme and the twig, the traced estimate equals the plain
   estimator's answer — the trace observes the one implementation rather
   than re-deriving it. *)
let prop_explain_matches_estimator =
  let open QCheck2 in
  let gen =
    Gen.triple (Helpers.spec_gen ~max_nodes:30)
      (Helpers.twig_gen ~nlabels:6 ~max_nodes:6 ())
      (Gen.oneofl [ Estimator.Recursive; Estimator.Recursive_voting; Estimator.Fixed_size ])
  in
  Helpers.qcheck_case ~count:60 ~name:"explain: trace estimate equals Estimator.estimate" gen
    (fun (spec, twig, scheme) ->
      let tree = Helpers.tree_of spec in
      let summary = Summary.build ~k:3 tree in
      let trace = Explain.run summary scheme twig in
      let direct = Estimator.estimate summary scheme twig in
      (Float.equal trace.Explain.estimate direct
      || Float.abs (trace.Explain.estimate -. direct) <= 1e-9 *. Float.abs direct)
      && List.length trace.Explain.order >= 1)

(* Each distinct sub-twig is looked up once per evaluation, so the lookup
   tally of a trace counts exactly its evaluated nodes — for every scheme,
   including fixed-size covers whose steps share blocks and overlaps,
   over complete and pruned summaries, with and without a feedback
   source. *)
let prop_explain_lookups_once_per_node =
  let open QCheck2 in
  let gen =
    Gen.pair
      (Gen.triple (Helpers.spec_gen ~max_nodes:30)
         (Helpers.twig_gen ~nlabels:6 ~max_nodes:7 ())
         (Gen.oneofl (Estimator.Fixed_size_voting 3 :: Estimator.all_schemes)))
      (Gen.pair Gen.bool Gen.bool)
  in
  Helpers.qcheck_case ~count:80 ~name:"explain: lookup tally = evaluated nodes" gen
    (fun ((spec, twig, scheme), (pruned, with_extra)) ->
      let tree = Helpers.tree_of spec in
      let summary = Summary.build ~k:3 tree in
      let summary = if pruned then Tl_core.Derivable.prune summary ~delta:0.5 else summary in
      let extra =
        if with_extra then Some (fun enc -> if Hashtbl.hash enc mod 5 = 0 then Some 3.0 else None)
        else None
      in
      let trace = Explain.run ?extra summary scheme twig in
      let evaluated =
        Hashtbl.fold
          (fun _ (n : Explain.node) acc -> if n.Explain.source <> Explain.Not_evaluated then acc + 1 else acc)
          trace.Explain.nodes 0
      in
      trace.Explain.summary_hits + trace.Explain.extra_hits + trace.Explain.true_zeros
      + trace.Explain.decompositions
      = evaluated)

let test_explain_true_zero () =
  let tree = Helpers.tree_of golden_doc in
  let summary = Summary.build ~k:2 tree in
  (* d never occurs: the summary is complete at level 1, so the lookup is
     a recorded true zero and the estimate collapses to 0. *)
  let twig = Tl_twig.Twig.node 0 [ Tl_twig.Twig.leaf 3 ] in
  let trace = Explain.run summary Estimator.Recursive_voting twig in
  Alcotest.(check (float 0.0)) "estimate is zero" 0.0 trace.Explain.estimate;
  Alcotest.(check bool) "at least one true zero recorded" true (trace.Explain.true_zeros >= 1)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic now_ns and Timer" `Quick test_clock_monotonic;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log-scale bucketing" `Quick test_bucketing;
          Alcotest.test_case "histogram snapshot" `Quick test_histogram_snapshot;
          Alcotest.test_case "counters, gauges, rendering" `Quick test_counters_and_rendering;
          Alcotest.test_case "histogram quantiles" `Quick test_quantile;
          Alcotest.test_case "prometheus HELP and cumulative buckets" `Quick
            test_prometheus_help_and_buckets;
          prop_parallel_snapshot_identical;
          Alcotest.test_case "miner metrics identical under a pool" `Quick
            test_miner_metrics_parallel_identical;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and paths" `Quick test_span_nesting;
          Alcotest.test_case "exception safety and disabled mode" `Quick
            test_span_exception_and_disabled;
          Alcotest.test_case "jsonl sink and flame summary" `Quick test_span_jsonl_and_flame;
          Alcotest.test_case "file sink flush on close" `Quick test_span_sink;
        ] );
      ( "exporter",
        [
          Alcotest.test_case "scrape round trip over a real socket" `Quick
            test_exporter_round_trip;
          Alcotest.test_case "throttled reader gets the whole body" `Slow
            test_exporter_survives_throttled_reader;
        ] );
      ( "explain",
        [
          Alcotest.test_case "golden trace" `Quick test_explain_golden;
          prop_explain_matches_estimator;
          prop_explain_lookups_once_per_node;
          Alcotest.test_case "true zero short-circuit" `Quick test_explain_true_zero;
        ] );
    ]
