(* treelattice: command-line front-end.

   Subcommands:
     generate   write a synthetic dataset as XML
     stats      print structural statistics of an XML file
     summarize  mine an XML file into a k-lattice summary file
     mine       print per-level pattern statistics of an XML file
     estimate   estimate (and optionally check) a twig query
     explain    trace the full decomposition behind one estimate
     xpath      estimate an XPath query (child steps + predicates)
     match      enumerate actual matches of a twig query
     batch      estimate many queries at once via compiled-plan caching
     serve      long-lived serving loop with audit log, drift monitor, HTTP metrics
     plan       naive vs estimate-guided join plans
     values     estimate a twig query with value predicates
     prune      delta-prune a summary file
     exp        run reproduction experiments

   Every working subcommand also takes the observability flags
   --log-level quiet|info|debug, --metrics FILE, and --trace FILE. *)

open Cmdliner
module Dataset = Tl_datasets.Dataset
module Data_tree = Tl_tree.Data_tree
module Summary = Tl_lattice.Summary
module Summary_io = Tl_lattice.Summary_io
module Treelattice = Tl_core.Treelattice
module Estimator = Tl_core.Estimator
module Experiments = Tl_harness.Experiments
module Registry = Tl_serve.Registry
module Protocol = Tl_serve.Protocol
module Service = Tl_serve.Service

(* A malformed document is a user error like a bad query: one diagnostic
   line on stderr and exit 1. *)
let read_xml load path =
  try load path
  with Tl_xml.Xml_error.Parse_error (pos, msg) ->
    Printf.eprintf "treelattice: %s: XML parse error at %s: %s\n%!" path
      (Tl_xml.Xml_error.pp_position pos) msg;
    exit 1

let load_tree = read_xml Tl_tree.Tree_load.of_file

(* --- shared args -------------------------------------------------------- *)

let xml_arg =
  Arg.(required & opt (some file) None & info [ "xml" ] ~docv:"FILE" ~doc:"Input XML document.")

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let k_arg = Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Lattice depth (default 4).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains for parallel mining and workload evaluation (default 1 = sequential; results \
           are identical for any N).")

let scheme_conv =
  let parse = function
    | "recursive" -> Ok Estimator.Recursive
    | "voting" | "recursive-voting" -> Ok Estimator.Recursive_voting
    | "fixed" | "fixed-size" -> Ok Estimator.Fixed_size
    | "fixed-voting" -> Ok (Estimator.Fixed_size_voting 8)
    | other -> Error (`Msg (Printf.sprintf "unknown scheme %S" other))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Estimator.scheme_name s))

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Estimator.Recursive_voting
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:"Estimator: recursive, voting, fixed-size, or fixed-voting.")

(* --- observability flags -------------------------------------------------- *)

let log_level_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Tl_obs.Log.level_of_string s) in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Tl_obs.Log.level_name l))

let obs_term =
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write a Prometheus-style metrics snapshot to $(docv) on exit.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record spans and write them as JSON Lines to $(docv) on exit.")
  in
  let level =
    Arg.(
      value
      & opt log_level_conv Tl_obs.Log.Quiet
      & info [ "log-level" ] ~docv:"LEVEL" ~doc:"Log verbosity: quiet, info, or debug.")
  in
  let make metrics trace level = (metrics, trace, level) in
  Term.(const make $ metrics $ trace $ level)

(* Install the reporter and span sink before the command body, and write
   the requested metrics file afterwards — even when the body exits
   through an exception.  The span sink is registered with
   [Tl_obs.Span.set_sink], which also arranges an [at_exit] flush, so
   traces survive even an [exit 1] path that skips the [finally]. *)
let with_obs (metrics_file, trace_file, level) f =
  Tl_obs.Log.setup level;
  Option.iter Tl_obs.Span.set_sink trace_file;
  let write_outputs () =
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Tl_obs.Metrics.to_prometheus (Tl_obs.Metrics.snapshot ()));
        close_out oc)
      metrics_file;
    match Tl_obs.Span.close_sink () with
    | Some (path, spans) -> Tl_obs.Log.info (fun m -> m "wrote %d span(s) to %s" spans path)
    | None -> ()
  in
  Fun.protect ~finally:write_outputs f

(* --- generate ------------------------------------------------------------ *)

let dataset_conv =
  let parse name =
    match Dataset.find name with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown dataset %S (nasa, imdb, xmark, psd)" name))
  in
  Arg.conv (parse, fun fmt d -> Format.pp_print_string fmt d.Dataset.name)

let generate_cmd =
  let dataset =
    Arg.(
      required & pos 0 (some dataset_conv) None & info [] ~docv:"DATASET" ~doc:"nasa, imdb, xmark, or psd.")
  in
  let target =
    Arg.(value & opt int 40_000 & info [ "target" ] ~docv:"N" ~doc:"Approximate element count.")
  in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run dataset target seed output =
    let element = dataset.Dataset.document ~target ~seed in
    Tl_xml.Xml_writer.to_file ~indent:true output { decl = Some [ ("version", "1.0") ]; root = element };
    Printf.printf "wrote %s (%d elements)\n" output
      (Tl_xml.Xml_dom.count_elements { decl = None; root = element })
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic evaluation dataset as XML.")
    Term.(const run $ dataset $ target $ seed_arg $ output)

(* --- summarize ------------------------------------------------------------ *)

let summarize_cmd =
  let output =
    Arg.(
      required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Summary output path.")
  in
  let run obs xml k jobs output =
    with_obs obs @@ fun () ->
    let tree = load_tree xml in
    let summary, ms =
      Tl_util.Pool.with_pool ~domains:(max 1 jobs) (fun pool ->
          Tl_util.Timer.time_ms (fun () -> Summary.build ~pool ~k tree))
    in
    Summary_io.save_file ~names:(Data_tree.label_names tree) output summary;
    Printf.printf "mined %d patterns (%.0f ms, %d bytes) -> %s\n" (Summary.entries summary) ms
      (Summary.memory_bytes summary) output
  in
  Cmd.v
    (Cmd.info "summarize" ~doc:"Mine an XML document into a k-lattice summary file.")
    Term.(const run $ obs_term $ xml_arg $ k_arg $ jobs_arg $ output)

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let histogram =
    Arg.(value & opt int 0 & info [ "histogram" ] ~docv:"N" ~doc:"Also print the N most frequent tags.")
  in
  let run obs xml histogram =
    with_obs obs @@ fun () ->
    let tree, ms = Tl_util.Timer.time_ms (fun () -> load_tree xml) in
    let stats = Tl_tree.Tree_stats.compute tree in
    Printf.printf "loaded in %.0f ms\n" ms;
    print_endline (Tl_tree.Tree_stats.pp stats);
    if histogram > 0 then begin
      print_endline "most frequent tags:";
      List.iter
        (fun (tag, count) -> Printf.printf "  %-24s %d\n" tag count)
        (Tl_util.Prelude.list_take histogram (Tl_tree.Tree_stats.label_histogram tree))
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print structural statistics of an XML document.")
    Term.(const run $ obs_term $ xml_arg $ histogram)

(* --- mine ------------------------------------------------------------------ *)

let mine_cmd =
  let top =
    Arg.(
      value & opt int 0
      & info [ "top" ] ~docv:"N" ~doc:"Also print the N most frequent patterns per level.")
  in
  let run obs xml k jobs top =
    with_obs obs @@ fun () ->
    let tree = load_tree xml in
    let ctx = Tl_twig.Match_count.create_ctx tree in
    let result =
      Tl_util.Pool.with_pool ~domains:(max 1 jobs) (fun pool ->
          Tl_mining.Miner.mine ~pool ctx ~max_size:k)
    in
    Array.iteri
      (fun i count -> Printf.printf "level %d: %d patterns\n" (i + 1) count)
      (Tl_mining.Miner.patterns_per_level result);
    if top > 0 then
      for level = 1 to k do
        let patterns =
          List.sort (fun (_, a) (_, b) -> compare b a) (Tl_mining.Miner.level result level)
        in
        Printf.printf "-- level %d --\n" level;
        List.iter
          (fun (twig, count) ->
            Printf.printf "%8d  %s\n" count (Tl_twig.Twig.pp ~names:(Data_tree.label_name tree) twig))
          (Tl_util.Prelude.list_take top patterns)
      done
  in
  Cmd.v
    (Cmd.info "mine" ~doc:"Print occurring-pattern statistics of an XML document.")
    Term.(const run $ obs_term $ xml_arg $ k_arg $ jobs_arg $ top)

(* --- query text ------------------------------------------------------------- *)

let query_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"Twig or XPath query, e.g. 'a(b,c(d))' or '//a[b][c/d]'.")

(* The query read against [tree]'s tags by Tl_twig.Query, names for its
   labels, unknown tags included, and whether it is anchored.  A malformed
   query exits 1, as does an anchored one when [unanchored_only] names a
   subcommand that cannot honour the anchoring. *)
let query_of_text ?unanchored_only tree text =
  let size = Data_tree.label_count tree in
  match (Tl_twig.Query.parse ~size ~find:(Data_tree.label_of_string tree) text, unanchored_only) with
  | Error msg, _ ->
    prerr_endline msg;
    exit 1
  | Ok { anchored = true; _ }, Some cmd ->
    Printf.eprintf "%s: an anchored XPath query is not supported; start it with // instead\n" cmd;
    exit 1
  | Ok q, _ -> (q.twig, Tl_twig.Query.name ~size ~known:(Data_tree.label_name tree) q, q.anchored)

(* --- estimate / xpath ---------------------------------------------------------- *)

(* [estimate] and [xpath] are one command under two names: both read either
   syntax, and an anchored XPath query counts at the document root only. *)
let estimate_cmd_named name ~doc =
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also compute the exact count by full matching.")
  in
  let run obs xml k scheme query exact =
    with_obs obs @@ fun () ->
    let tl = Treelattice.build ~k (load_tree xml) in
    match Treelattice.estimate_text ~scheme tl query with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok estimate ->
      Printf.printf "estimate[%s] = %.2f\n" (Estimator.scheme_name scheme) estimate;
      if exact then Result.iter (Printf.printf "exact = %d\n") (Treelattice.exact_text tl query)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ obs_term $ xml_arg $ k_arg $ scheme_arg $ query_arg $ exact)

let estimate_cmd =
  estimate_cmd_named "estimate"
    ~doc:"Estimate the selectivity of a twig query against an XML document."

let xpath_cmd =
  estimate_cmd_named "xpath"
    ~doc:"Estimate the selectivity of an XPath query (child steps + predicates)."

(* --- explain --------------------------------------------------------------- *)

let explain_cmd =
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Also write the decomposition DAG as GraphViz DOT.")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also compute the exact count by full matching.")
  in
  let run obs xml k scheme query dot exact =
    with_obs obs @@ fun () ->
    let tree = load_tree xml in
    let summary = Summary.build ~k tree in
    let twig, names, _ = query_of_text ~unanchored_only:"explain" tree query in
    let trace = Tl_core.Explain.run summary scheme twig in
    print_string (Tl_core.Explain.to_text ~names trace);
    if exact then Printf.printf "exact = %d\n" (Tl_twig.Match_count.count tree twig);
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Tl_viz.Dot.explain ~names trace);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      dot
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a selectivity estimate: print every sub-twig lookup, leaf-pair decomposition, \
          and vote behind it.")
    Term.(const run $ obs_term $ xml_arg $ k_arg $ scheme_arg $ query_arg $ dot $ exact)

(* --- match ------------------------------------------------------------------- *)

let match_cmd =
  let limit =
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc:"Maximum matches to print (default 10).")
  in
  let run obs xml query limit =
    with_obs obs @@ fun () ->
    let tree = load_tree xml in
    let twig, names, anchored = query_of_text tree query in
    let matches = Tl_twig.Match_enum.enumerate ~limit tree twig in
    (* An anchored query keeps only the matches rooted at the document
       root.  Matches come in document order of their root, so those lead
       the list, and the first [limit] matches hold every one shown. *)
    let root = Data_tree.root tree in
    let matches, total =
      if anchored then
        ( List.filter (fun m -> m.(0) = root) matches,
          Tl_twig.Match_count.selectivity_rooted (Tl_twig.Match_count.create_ctx tree) twig root )
      else (matches, Tl_twig.Match_count.count tree twig)
    in
    Printf.printf "%d match(es); showing up to %d\n" total limit;
    let ix = Tl_twig.Twig.index twig in
    List.iteri
      (fun i assignment ->
        Printf.printf "match %d:\n" (i + 1);
        Array.iteri
          (fun q v -> Printf.printf "  %s -> node %d\n" (names ix.Tl_twig.Twig.node_labels.(q)) v)
          assignment)
      matches
  in
  Cmd.v
    (Cmd.info "match" ~doc:"Enumerate actual matches of a twig query.")
    Term.(const run $ obs_term $ xml_arg $ query_arg $ limit)

(* --- batch ------------------------------------------------------------------- *)

let batch_cmd =
  let queries_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:
            "Read queries from $(docv), one per line, in twig or XPath syntax (default: stdin). \
             Blank lines and lines starting with '#' are skipped.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: table or json.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Abort on the first malformed query line instead of skipping it.")
  in
  let run obs xml k scheme jobs queries_file format strict =
    with_obs obs @@ fun () ->
    let source = match queries_file with None -> "<stdin>" | Some path -> path in
    (* Lines keep their 1-based position in the source file so diagnostics
       can say file:line even after blank/comment lines are dropped. *)
    let lines =
      let read_all ic =
        let rec go acc = match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
        in
        go []
      in
      let raw =
        match queries_file with
        | None -> read_all stdin
        | Some path ->
          let ic = open_in path in
          Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_all ic)
      in
      List.filter
        (fun (_, l) -> l <> "" && l.[0] <> '#')
        (List.mapi (fun i l -> (i + 1, String.trim l)) raw)
    in
    Tl_util.Pool.with_pool ~domains:(max 1 jobs) @@ fun pool ->
    let registry = Registry.create ~config:{ Registry.default_config with Registry.scheme; k } () in
    let bundle =
      let tree = load_tree xml in
      let installed, ms =
        Tl_util.Timer.time_ms (fun () ->
            Registry.install_document ~pool registry ~name:"default" tree)
      in
      match installed with
      | Ok bundle ->
        Printf.eprintf "summary: built in %.0f ms\n%!" ms;
        bundle
      | Error msg ->
        Printf.eprintf "batch: %s\n%!" msg;
        exit 1
    in
    let answers, elapsed_ms =
      Tl_util.Timer.time_ms (fun () ->
          Protocol.answer ~pool registry (Array.of_list (List.map snd lines)))
    in
    (* A malformed line is diagnosed as file:line and skipped, so one typo
       does not discard a whole workload; --strict restores fail-fast,
       before anything is printed.  Either way the exit code reports the
       failure. *)
    let skipped = ref 0 in
    let results =
      List.concat
        (List.mapi
           (fun i (lineno, line) ->
             match answers.(i) with
             | Protocol.Estimate (e, _) -> [ (line, e) ]
             | Protocol.Failed msg ->
               Printf.eprintf "%s:%d: bad query %S: %s\n%!" source lineno line msg;
               if strict then exit 1;
               incr skipped;
               [])
           lines)
    in
    let n = List.length results in
    (match format with
    | `Table ->
      print_string
        (Tl_util.Table.render ~header:[ "query"; "estimate" ]
           (List.map (fun (q, e) -> [ q; Printf.sprintf "%.2f" e ]) results))
    | `Json ->
      print_string "{\n";
      Printf.printf "  \"schema_version\": 1,\n";
      Printf.printf "  \"scheme\": \"%s\",\n"
        (Tl_util.Prelude.json_escape (Estimator.scheme_name scheme));
      Printf.printf "  \"queries\": %d,\n" n;
      print_string "  \"results\": [\n";
      List.iteri
        (fun i (q, e) ->
          Printf.printf "    {\"query\": \"%s\", \"estimate\": %.6g}%s\n"
            (Tl_util.Prelude.json_escape q) e
            (if i = n - 1 then "" else ","))
        results;
      print_string "  ]\n}\n");
    (* Serving telemetry on stderr, so stdout stays machine-readable. *)
    let stats = Tl_serve.Engine.stats (Registry.engine bundle) in
    Printf.eprintf
      "batch: %d queries (%d plans compiled, %d cache hits) in %.0f ms across %d domain(s)\n%!" n
      stats.Tl_core.Plan_cache.misses
      (stats.Tl_core.Plan_cache.hits + (n - stats.Tl_core.Plan_cache.misses))
      elapsed_ms (Tl_util.Pool.domains pool);
    if !skipped > 0 then begin
      Printf.eprintf "batch: %d malformed line(s) skipped\n%!" !skipped;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Estimate a batch of twig/XPath queries through the compiled-plan cache: queries are \
          deduplicated, compiled once each, and evaluated across -j domains.  Lines follow the \
          $(b,serve) routing rule with the document installed as the one dataset 'default': a \
          'default:' prefix routes to it, and every other line, whatever its prefix, is a query \
          for it.  A tag the document lacks estimates 0.  Malformed lines are reported as \
          FILE:LINE on stderr and skipped (the exit code still reports the failure); \
          $(b,--strict) aborts at the first one instead, before anything is printed.")
    Term.(
      const run $ obs_term $ xml_arg $ k_arg $ scheme_arg $ jobs_arg $ queries_arg $ format_arg
      $ strict_arg)

(* --- serve ------------------------------------------------------------------- *)

let serve_cmd =
  let queries_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:
            "Read queries from $(docv) — commonly a FIFO — instead of stdin.  One query per \
             line, twig or XPath syntax; a blank line flushes the pending batch; '#' lines are \
             skipped."
    )
  in
  let xml_opt_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "xml" ] ~docv:"FILE"
          ~doc:"Serving document, installed as the dataset named 'default'.")
  in
  let dataset_arg =
    Arg.(
      value & opt_all string []
      & info [ "dataset" ] ~docv:"NAME=PATH"
          ~doc:
            "Install $(docv) as a named dataset (repeatable).  A PATH ending in .xml is parsed \
             and mined; any other PATH is read as a serialized summary file.  Route a query to \
             a dataset with a 'NAME:' line prefix; bare queries go to the default dataset (the \
             first one installed, or --xml's 'default').")
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port for the HTTP endpoint (default 0 = ephemeral; see $(b,--port-file)).")
  in
  let port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound endpoint port to $(docv) once listening.")
  in
  let sample_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "sample-rate" ] ~docv:"R"
          ~doc:
            "Fraction of distinct served queries the drift monitor replays against the exact \
             oracle (default 0 = monitoring off).")
  in
  let drift_threshold_arg =
    Arg.(
      value & opt float 1.0
      & info [ "drift-threshold" ] ~docv:"T"
          ~doc:
            "Raise the drift alarm when the sliding-window p90 relative error reaches $(docv) \
             (default 1.0 = 100%).")
  in
  let drift_xml_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "drift-xml" ] ~docv:"FILE"
          ~doc:
            "Replay sampled queries against $(docv) instead of each dataset's own document — \
             the summary-went-stale scenario the drift monitor exists to catch.")
  in
  let audit_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-out" ] ~docv:"FILE"
          ~doc:"Write the retained audit records as JSON Lines to $(docv) on shutdown.")
  in
  let linger_arg =
    Arg.(
      value & opt float 0.0
      & info [ "linger" ] ~docv:"SECONDS"
          ~doc:
            "Keep the HTTP endpoint up for $(docv) seconds after the query input drains, so a \
             scraper can collect the final state.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "Also serve queries over TCP on 127.0.0.1:$(docv) (0 = ephemeral; see \
             $(b,--server-port-file)).  Same line protocol as stdin: '[NAME:]query' per line, \
             blank line flushes the batch; each answer line is estimate, epoch, dataset and \
             scheme (tab-separated), and overloaded connections are shed with a 'busy' line.")
  in
  let server_port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "server-port-file" ] ~docv:"FILE"
          ~doc:"Write the bound TCP query port to $(docv) once listening.")
  in
  let server_workers_arg =
    Arg.(
      value & opt int 4
      & info [ "server-workers" ] ~docv:"N"
          ~doc:"Worker threads serving TCP connections (default 4).")
  in
  let server_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "server-queue" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: accepted TCP connections waiting for a worker beyond \
             $(docv) are shed with a 'busy' response (default 64).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Answer TCP queries with one JSON object per line instead of tab-separated text.")
  in
  let run obs xml k scheme jobs datasets queries_file port port_file sample_rate drift_threshold
      drift_xml audit_out linger listen server_port_file server_workers server_queue json =
    with_obs obs @@ fun () ->
    Tl_util.Pool.with_pool ~domains:(max 1 jobs) @@ fun pool ->
    let datasets =
      List.map
        (fun spec ->
          (* Both sides must be non-empty: "NAME=" would otherwise surface
             later as a confusing empty-path load failure, "=PATH" as a
             dataset nothing can route to. *)
          match String.index_opt spec '=' with
          | Some i when i > 0 && i < String.length spec - 1 ->
            (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
          | _ ->
            Printf.eprintf "serve: bad --dataset %S (expected NAME=PATH)\n%!" spec;
            exit 2)
        datasets
    in
    if xml = None && datasets = [] then begin
      Printf.eprintf "serve: nothing to serve (pass --xml FILE and/or --dataset NAME=PATH)\n%!";
      exit 2
    end;
    (* Both handlers go in before [Service.start] writes a port file.
       SIGTERM drains the service once [start] has handed it to [ready],
       which it does before writing any port file; until then nothing is
       serving yet, so it just exits.  SIGHUP requests
       a reload of every dataset; the flag is checked at loop iterations
       and batch boundaries (best-effort while blocked on input — the
       explicit `reload` control line is the deterministic path). *)
    let service = Atomic.make None in
    (try
       ignore
         (Sys.signal Sys.sigterm
            (Sys.Signal_handle
               (fun _ ->
                 Printf.eprintf "serve: SIGTERM: draining\n%!";
                 Option.iter Service.stop (Atomic.get service);
                 Stdlib.exit 0)))
     with Invalid_argument _ | Sys_error _ -> ());
    let sighup = Atomic.make false in
    (try ignore (Sys.signal Sys.sighup (Sys.Signal_handle (fun _ -> Atomic.set sighup true)))
     with Invalid_argument _ | Sys_error _ -> ());
    let config =
      { Service.xml; datasets; k; scheme; sample_rate; drift_threshold; drift_xml; port; port_file;
        audit_out; listen; server_port_file; server_workers; server_queue; json }
    in
    let ready svc = Atomic.set service (Some svc) in
    let svc = try Service.start ~pool ~ready ~load_tree config with Failure _ -> exit 1 in
    let served = ref 0 and batches = ref 0 and skipped = ref 0 in
    (* [exit] would skip [Fun.protect]'s finalizer (it terminates without
       unwinding), so the malformed-line exit happens after shutdown. *)
    (Fun.protect ~finally:(fun () -> Service.stop svc) @@ fun () ->
    let ic = match queries_file with None -> stdin | Some path -> open_in path in
    (* The serving loop: accumulate lines, evaluate on each blank line and
       at end of input (a final batch with no trailing newline still
       flushes), answer on stdout as `line TAB estimate` in input order.
       Routing and per-dataset pinning are [Protocol.answer]'s: a
       concurrent reload is picked up at the next flush, never mid-batch. *)
    let print_answers pending =
      let lines = Array.of_list (List.rev pending) in
      let answers = Protocol.answer ~pool (Service.registry svc) lines in
      let answered = ref 0 in
      Array.iteri
        (fun i answer ->
          match answer with
          | Protocol.Estimate (e, _) ->
            Printf.printf "%s\t%.2f\n" lines.(i) e;
            incr answered
          | Protocol.Failed msg ->
            Printf.eprintf "serve: bad query %S: %s\n%!" lines.(i) msg;
            incr skipped)
        answers;
      flush Stdlib.stdout;
      served := !served + !answered;
      if !answered > 0 then incr batches
    in
    let check_sighup () =
      if Atomic.exchange sighup false then begin
        Printf.eprintf "serve: SIGHUP: reloading all datasets\n%!";
        Service.handle_control svc "reload"
      end
    in
    let rec loop pending =
      check_sighup ();
      match input_line ic with
      | exception End_of_file -> print_answers pending
      | line -> (
        let line = String.trim line in
        if line = "" then begin
          print_answers pending;
          loop []
        end
        else if line = "reload" || String.starts_with ~prefix:"reload " line then begin
          Service.handle_control svc line;
          loop pending
        end
        else
          match line.[0] with
          | '#' -> loop pending
          | _ -> loop (line :: pending))
    in
    loop [];
    if ic != stdin then close_in ic;
    if linger > 0.0 then begin
      Printf.eprintf "serve: input drained; endpoint up for another %.1f s\n%!" linger;
      Thread.delay linger
    end;
    Service.report svc ~queries:!served ~batches:!batches);
    if !skipped > 0 then begin
      Printf.eprintf "serve: %d malformed line(s) skipped\n%!" !skipped;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the estimation engine as a long-lived process: read query batches from stdin or a \
          FIFO, answer on stdout, and expose live observability over HTTP — $(b,/metrics) \
          (Prometheus text), $(b,/audit) (recent per-query audit records as JSON Lines), \
          $(b,/healthz) (503 while any dataset's accuracy-drift alarm is raised), and \
          $(b,/datasets) (name, epoch, entries, alarm per dataset).  Multiple datasets are \
          served from an epoch-versioned registry: $(b,--dataset NAME=PATH) installs each one, \
          'NAME:query' lines route to it, and a 'reload NAME [PATH]' control line (or SIGHUP \
          for all datasets) hot-swaps its summary atomically — in-flight batches finish on the \
          epoch they started with, and a failed reload leaves the previous epoch serving.  The \
          drift monitor samples $(b,--sample-rate) of distinct queries and replays them against \
          an exact oracle over each dataset's document (or $(b,--drift-xml) to detect a stale \
          summary).  $(b,--listen PORT) additionally serves the same line protocol over TCP \
          with bounded admission: a fixed worker pool, a bounded queue, 'busy' load-shedding \
          under overload, and a graceful drain on SIGTERM.")
    Term.(
      const run $ obs_term $ xml_opt_arg $ k_arg $ scheme_arg $ jobs_arg $ dataset_arg
      $ queries_arg $ port_arg $ port_file_arg $ sample_rate_arg $ drift_threshold_arg
      $ drift_xml_arg $ audit_out_arg $ linger_arg $ listen_arg $ server_port_file_arg
      $ server_workers_arg $ server_queue_arg $ json_arg)

(* --- prune ------------------------------------------------------------------- *)

let prune_cmd =
  let input =
    Arg.(required & opt (some file) None & info [ "summary" ] ~docv:"FILE" ~doc:"Summary file to prune.")
  in
  let delta =
    Arg.(
      value & opt float 0.0 & info [ "delta" ] ~docv:"D" ~doc:"Relative error tolerance (0.1 = 10%).")
  in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run obs input delta output =
    with_obs obs @@ fun () ->
    let summary, names = Summary_io.load_file input in
    let pruned = Tl_core.Derivable.prune summary ~delta in
    Summary_io.save_file ~names output pruned;
    Printf.printf "%d -> %d patterns (%d -> %d bytes)\n" (Summary.entries summary)
      (Summary.entries pruned) (Summary.memory_bytes summary) (Summary.memory_bytes pruned)
  in
  Cmd.v
    (Cmd.info "prune" ~doc:"Remove delta-derivable patterns from a summary file.")
    Term.(const run $ obs_term $ input $ delta $ output)

(* --- plan ------------------------------------------------------------------------ *)

let plan_cmd =
  let execute =
    Arg.(value & flag & info [ "execute" ] ~doc:"Run both plans and report materialized tuples.")
  in
  let run obs xml k query execute =
    with_obs obs @@ fun () ->
    let tree = load_tree xml in
    let summary = Summary.build ~k tree in
    let twig, names, _ = query_of_text ~unanchored_only:"plan" tree query in
    let naive = Tl_join.Plan.naive twig in
    let guided = Tl_join.Plan.greedy summary twig in
    Printf.printf "naive : %s (estimated cost %.0f)\n"
      (Tl_join.Plan.pp ~names naive)
      (Tl_join.Plan.estimated_cost summary naive);
    Printf.printf "guided: %s (estimated cost %.0f)\n"
      (Tl_join.Plan.pp ~names guided)
      (Tl_join.Plan.estimated_cost summary guided);
    if execute then begin
      let n = Tl_join.Executor.run tree naive in
      let g = Tl_join.Executor.run tree guided in
      Printf.printf "executed: naive %d tuples, guided %d tuples, %d results\n"
        n.Tl_join.Executor.tuples_materialized g.Tl_join.Executor.tuples_materialized
        g.Tl_join.Executor.result_count
    end
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Show naive vs estimate-guided join plans for a twig query.")
    Term.(const run $ obs_term $ xml_arg $ k_arg $ query_arg $ execute)

(* --- values ---------------------------------------------------------------------- *)

let values_cmd =
  let query =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"Value twig, e.g. 'book(genre=cs,title=\"ocaml\")'.")
  in
  let exact = Arg.(value & flag & info [ "exact" ] ~doc:"Also compute the exact count.") in
  let run obs xml k query exact =
    with_obs obs @@ fun () ->
    let vtree = read_xml Tl_values.Value_tree.of_file xml in
    let est = Tl_values.Value_estimator.create ~k vtree in
    match Tl_values.Value_estimator.estimate_string est query with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok estimate ->
      Printf.printf "estimate = %.2f\n" estimate;
      if exact then begin
        match Tl_values.Value_estimator.exact_string est query with
        | Ok truth -> Printf.printf "exact = %d\n" truth
        | Error msg -> prerr_endline msg
      end
  in
  Cmd.v
    (Cmd.info "values" ~doc:"Estimate a twig query with value predicates.")
    Term.(const run $ obs_term $ xml_arg $ k_arg $ query $ exact)

(* --- exp ---------------------------------------------------------------------- *)

let exp_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).") in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Use the fast, reduced-scale configuration.")
  in
  let target =
    Arg.(
      value & opt (some int) None & info [ "target" ] ~docv:"N" ~doc:"Override dataset element count.")
  in
  let list_flag = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.") in
  let run obs ids quick target jobs list_flag =
    with_obs obs @@ fun () ->
    if list_flag then
      List.iter (fun (id, title, _) -> Printf.printf "%-8s %s\n" id title) Experiments.all_experiments
    else begin
      let config = if quick then Experiments.quick_config else Experiments.default_config in
      let config = match target with None -> config | Some t -> { config with target = t } in
      Tl_util.Pool.with_pool ~domains:(max 1 jobs) @@ fun pool ->
      let suite = Experiments.make_suite ~pool config in
      match ids with
      | [] -> print_string (Experiments.run_all suite)
      | ids ->
        List.iter
          (fun id ->
            match Experiments.run suite id with
            | Some report -> print_string report
            | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" id;
              exit 1)
          ids
    end
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run the paper-reproduction experiments.")
    Term.(const run $ obs_term $ ids $ quick $ target $ jobs_arg $ list_flag)

let main =
  let doc = "TreeLattice: decomposition-based XML twig selectivity estimation" in
  Cmd.group
    (Cmd.info "treelattice" ~version:"1.0.0" ~doc)
    [
      generate_cmd; summarize_cmd; stats_cmd; mine_cmd; estimate_cmd; explain_cmd; xpath_cmd;
      match_cmd; batch_cmd; serve_cmd; plan_cmd; values_cmd; prune_cmd; exp_cmd;
    ]

let () = exit (Cmd.eval main)
