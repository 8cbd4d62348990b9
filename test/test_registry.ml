(* Tests for the dataset registry: epoch-versioned bundles, hot swap,
   graceful degradation, label-space validation, and the acceptance
   stress — a swap racing a multi-domain batch can only ever produce the
   bit-exact answers of one epoch, never a blend. *)

module Twig = Tl_twig.Twig
module Summary = Tl_lattice.Summary
module Summary_io = Tl_lattice.Summary_io
module Data_tree = Tl_tree.Data_tree
module Estimator = Tl_core.Estimator
module Treelattice = Tl_core.Treelattice
module Metrics = Tl_obs.Metrics
module Registry = Tl_serve.Registry

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits name a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %h = %h" name a b) true (same_float a b)

let counter name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with Some n -> n | None -> 0

let gauge name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.gauges with Some n -> n | None -> 0

let fig11_queries = [ "a(b(c,d))"; "a(b(c),b(d))"; "a(b,b)"; "b(c,d)"; "a(b(c,d),b)" ]

let contains ~needle hay = Tl_util.Prelude.string_contains ~needle hay

(* Direct estimates under [summary] with the registry's configured scheme:
   the reference every served batch must reproduce bit-for-bit. *)
let baseline summary twigs =
  Array.map (fun twig -> Estimator.estimate summary Treelattice.default_scheme twig) twigs

(* --- install / find / epochs --------------------------------------------- *)

let test_install_find_epochs () =
  Metrics.reset ();
  let t = Registry.create () in
  Alcotest.(check bool) "empty default" true (Registry.default t = None);
  Alcotest.(check bool) "empty find" true (Registry.find t "x" = None);
  let fig11 = Helpers.tree_of Helpers.fig11_spec in
  let regular = Helpers.tree_of Helpers.regular_spec in
  let b1 = Result.get_ok (Registry.install_document t ~name:"fig11" fig11) in
  let b2 = Result.get_ok (Registry.install_document t ~name:"regular" regular) in
  Alcotest.(check string) "name recorded" "fig11" (Registry.name b1);
  Alcotest.(check bool) "epochs strictly increase across datasets" true
    (Registry.epoch b2 > Registry.epoch b1);
  Alcotest.(check (list string)) "installation order" [ "fig11"; "regular" ]
    (Registry.dataset_names t);
  (match Registry.default t with
  | Some b -> Alcotest.(check string) "default = first installed" "fig11" (Registry.name b)
  | None -> Alcotest.fail "default missing");
  (match Registry.find t "regular" with
  | Some b -> Alcotest.(check int) "find returns current epoch" (Registry.epoch b2) (Registry.epoch b)
  | None -> Alcotest.fail "find missing");
  Alcotest.(check int) "datasets gauge" 2 (gauge "registry.datasets");
  Alcotest.(check int) "fresh installs are not reloads" 0 (counter "registry.reloads_total");
  (* A swap of an existing dataset bumps the epoch and the reload counter. *)
  let b3 = Result.get_ok (Registry.swap t "fig11" (Summary.build ~k:2 fig11)) in
  Alcotest.(check bool) "swap epoch beats every prior epoch" true
    (Registry.epoch b3 > Registry.epoch b2);
  Alcotest.(check int) "swap counted as reload" 1 (counter "registry.reloads_total");
  Alcotest.(check int) "epoch gauge tracks the swap" (Registry.epoch b3)
    (gauge "registry.epoch.fig11");
  let json = Registry.datasets_json t in
  Alcotest.(check bool) "json lists fig11" true (contains ~needle:{|"name": "fig11"|} json);
  Alcotest.(check bool) "json carries the live epoch" true
    (contains ~needle:(Printf.sprintf {|"epoch": %d|} (Registry.epoch b3)) json);
  Alcotest.(check bool) "json kind document" true (contains ~needle:{|"kind": "document"|} json);
  Alcotest.(check bool) "json alarm clear" true (contains ~needle:{|"reload_alarm": false|} json)

let test_swap_serves_new_summary_old_bundle_stays_consistent () =
  Metrics.reset ();
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let twigs = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let old_bundle = Result.get_ok (Registry.install_document t ~name:"d" tree) in
  let old_expected = baseline (Registry.summary old_bundle) twigs in
  let fresh_summary = Summary.build ~k:2 tree in
  let new_bundle = Result.get_ok (Registry.swap t "d" fresh_summary) in
  let new_expected = baseline fresh_summary twigs in
  Array.iteri
    (fun i r -> check_bits (Printf.sprintf "new bundle query %d" i) new_expected.(i) r)
    (Registry.batch new_bundle twigs);
  (* The displaced bundle is immutable: held across the swap it still
     answers exactly as its own epoch did. *)
  Array.iteri
    (fun i r -> check_bits (Printf.sprintf "old bundle query %d" i) old_expected.(i) r)
    (Registry.batch old_bundle twigs);
  (match Registry.find t "d" with
  | Some b -> Alcotest.(check int) "find serves the new epoch" (Registry.epoch new_bundle) (Registry.epoch b)
  | None -> Alcotest.fail "dataset vanished")

(* --- graceful degradation ------------------------------------------------- *)

let test_swap_failure_keeps_old_and_latches_alarm () =
  Metrics.reset ();
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let good = Result.get_ok (Registry.install_document t ~name:"d" tree) in
  (* A summary whose twig labels lie outside the document's label space:
     built against a foreign interner, must be rejected at the gate. *)
  let foreign = Summary.of_patterns ~k:2 ~complete:false [ (Twig.leaf 99, 5) ] in
  (match Registry.swap t "d" foreign with
  | Ok _ -> Alcotest.fail "foreign summary accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the label mismatch" true
      (contains ~needle:"label" msg && contains ~needle:"99" msg));
  Alcotest.(check bool) "alarm latched" true (Registry.alarm t);
  Alcotest.(check int) "failure counted" 1 (counter "registry.reload_failures_total");
  Alcotest.(check int) "alarm gauge raised" 1 (gauge "registry.alarm");
  Alcotest.(check bool) "json reports the alarm" true
    (contains ~needle:{|"reload_alarm": true|} (Registry.datasets_json t));
  (match Registry.find t "d" with
  | Some b -> Alcotest.(check int) "old epoch keeps serving" (Registry.epoch good) (Registry.epoch b)
  | None -> Alcotest.fail "dataset vanished");
  (* The alarm latches across later successes and clears only explicitly. *)
  ignore (Result.get_ok (Registry.swap t "d" (Summary.build ~k:2 tree)));
  Alcotest.(check bool) "alarm survives a successful swap" true (Registry.alarm t);
  Registry.clear_alarm t;
  Alcotest.(check bool) "clear_alarm clears" false (Registry.alarm t);
  Alcotest.(check int) "alarm gauge cleared" 0 (gauge "registry.alarm");
  (* Swapping an unknown dataset is a failure, not a creation. *)
  (match Registry.swap t "nope" (Summary.build ~k:2 tree) with
  | Ok _ -> Alcotest.fail "swap created a dataset"
  | Error msg -> Alcotest.(check bool) "unknown dataset named" true (contains ~needle:"nope" msg));
  Alcotest.(check bool) "failure re-latches" true (Registry.alarm t)

let test_counters_materialized_at_zero () =
  Metrics.reset ();
  ignore (Registry.create ());
  let prom = Metrics.to_prometheus (Metrics.snapshot ()) in
  List.iter
    (fun line -> Alcotest.(check bool) line true (contains ~needle:(line ^ "\n") prom))
    [
      "tl_registry_parse_cache_hits 0";
      "tl_registry_parse_cache_misses 0";
      "tl_twig_leaf_pairs_built 0";
      "# HELP tl_twig_leaf_pairs_built Leaf-pair splits built for decomposition (each is built once \
       per process, then reused)";
    ]

(* --- a replaced bundle is collected ----------------------------------------- *)

(* Serve [twigs] on the dataset's current bundle, then watch (weakly) one
   plan that only the bundle's plan cache holds and one record of its
   audit ring.  Out of line, so no stack slot of the caller keeps the
   bundle alive. *)
let[@inline never] serve_and_watch t name twigs =
  let b = Option.get (Registry.find t name) in
  ignore (Registry.batch b twigs);
  let engine = Registry.engine b in
  let plan, _ =
    Tl_core.Plan_cache.plan_key_hit (Tl_serve.Engine.plan_cache engine) (Tl_serve.Engine.scheme engine)
      (Twig.key (Twig.canonicalize twigs.(0)))
  in
  let plan_w = Weak.create 1 and record_w = Weak.create 1 in
  Weak.set plan_w 0 (Some plan);
  Weak.set record_w 0 (Some (List.hd (Tl_serve.Audit.records (Registry.audit b))));
  ((fun () -> Weak.check plan_w 0), fun () -> Weak.check record_w 0)

let test_swap_frees_plans_and_audit () =
  Metrics.reset ();
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  ignore (Result.get_ok (Registry.install_document t ~name:"d" tree));
  let twigs = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let plan_alive, record_alive = serve_and_watch t "d" twigs in
  Gc.full_major ();
  Alcotest.(check bool) "plan alive while its bundle serves" true (plan_alive ());
  Alcotest.(check bool) "audit record alive while its bundle serves" true (record_alive ());
  ignore (Result.get_ok (Registry.swap t "d" (Summary.build ~k:2 tree)));
  Gc.full_major ();
  Alcotest.(check bool) "replaced bundle's plan collected" false (plan_alive ());
  Alcotest.(check bool) "replaced bundle's audit record collected" false (record_alive ())

let with_temp_file contents f =
  let path = Filename.temp_file "tl_registry" ".summary" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match contents with
      | Some body ->
        let oc = open_out path in
        output_string oc body;
        close_out oc
      | None -> ());
      f path)

let test_load_rejects_label_name_mismatch () =
  Metrics.reset ();
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let good = Result.get_ok (Registry.install_document t ~name:"d" tree) in
  (* A summary mined from a DIFFERENT document (tags x/y/z) serialized to
     disk, then routed into the fig11-backed dataset: the by-name re-keying
     must reject it because fig11 has no such tags. *)
  let other = Helpers.tree_of (Tl_tree.Tree_builder.node "x" [ Tl_tree.Tree_builder.leaf "y" ]) in
  let other_summary = Summary.build ~k:2 other in
  with_temp_file None (fun path ->
      Summary_io.save_file ~names:(Data_tree.label_names other) path other_summary;
      match Registry.load t "d" path with
      | Ok _ -> Alcotest.fail "mismatched summary accepted"
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error explains the mismatch: %s" msg)
          true
          (contains ~needle:"does not occur" msg));
  Alcotest.(check bool) "alarm latched" true (Registry.alarm t);
  (match Registry.find t "d" with
  | Some b -> Alcotest.(check int) "old epoch keeps serving" (Registry.epoch good) (Registry.epoch b)
  | None -> Alcotest.fail "dataset vanished");
  (* A summary over the document's own tags routes in cleanly. *)
  with_temp_file None (fun path ->
      Summary_io.save_file ~names:(Data_tree.label_names tree) path (Summary.build ~k:2 tree);
      let b = Result.get_ok (Registry.load t "d" path) in
      Alcotest.(check bool) "epoch advanced" true (Registry.epoch b > Registry.epoch good);
      (* The recorded source makes the dataset reloadable. *)
      let b2 = Result.get_ok (Registry.reload t "d") in
      Alcotest.(check bool) "reload advances again" true (Registry.epoch b2 > Registry.epoch b))

let test_corrupt_file_degrades_gracefully () =
  Metrics.reset ();
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let good = Result.get_ok (Registry.install_document t ~name:"d" tree) in
  let twigs = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let expected = baseline (Registry.summary good) twigs in
  with_temp_file (Some "this is not a summary\n") (fun path ->
      match Registry.load t "d" path with
      | Ok _ -> Alcotest.fail "corrupt file accepted"
      | Error _ -> ());
  (match Registry.load t "d" "/nonexistent/path.summary" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ());
  Alcotest.(check int) "both failures counted" 2 (counter "registry.reload_failures_total");
  (match Registry.find t "d" with
  | Some b ->
    Alcotest.(check int) "old epoch serving" (Registry.epoch good) (Registry.epoch b);
    Array.iteri
      (fun i r -> check_bits (Printf.sprintf "degraded query %d" i) expected.(i) r)
      (Registry.batch b twigs)
  | None -> Alcotest.fail "dataset vanished");
  (* No recorded source: reload must fail descriptively, not crash. *)
  match Registry.reload t "d" with
  | Ok _ -> Alcotest.fail "reload without source succeeded"
  | Error msg -> Alcotest.(check bool) "no-source diagnosed" true (contains ~needle:"source" msg)

(* --- summary-only datasets ------------------------------------------------ *)

let test_summary_only_dataset () =
  Metrics.reset ();
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let summary = Summary.build ~k:3 tree in
  let names = Data_tree.label_names tree in
  let b = Result.get_ok (Registry.install_summary t ~name:"s" ~names summary) in
  Alcotest.(check bool) "no backing tree" true (Registry.tree b = None);
  Alcotest.(check bool) "no adaptive state" true (Registry.adaptive b = None);
  Alcotest.(check (array string)) "label space preserved" names (Registry.label_names b);
  Alcotest.(check bool) "json kind summary" true
    (contains ~needle:{|"kind": "summary"|} (Registry.datasets_json t));
  let parse line =
    match Registry.parse_query b line with
    | Ok (twig, tf) -> (twig, tf)
    | Error msg -> Alcotest.failf "parse %S: %s" line msg
  in
  let twigs = Array.of_list (List.map (fun q -> fst (parse q)) fig11_queries) in
  let expected = baseline summary twigs in
  Array.iteri
    (fun i r -> check_bits (Printf.sprintf "summary-only query %d" i) expected.(i) r)
    (Registry.batch b twigs);
  (* Unknown tags estimate exactly 0 — the negative-workload contract,
     same as the document-backed path — and intern nothing. *)
  let ghost, _ = parse "ghost(phantom)" in
  check_bits "unknown tag" 0.0 (Registry.batch b [| ghost |]).(0);
  Alcotest.(check (array string)) "unknown tag not interned" names (Registry.label_names b);
  (* Anchored XPath scales by the root tag's own occurrence count: fig11
     has four b-nodes, so /b/c divides its match count by 4. *)
  let twig, tf = parse "/b/c" in
  let raw = (Registry.batch b [| twig |]).(0) in
  check_bits "anchored scale divides by root-tag occurrences" (raw /. 4.0) (tf raw);
  (* Syntax errors diagnose with the parser the line was written for. *)
  (match Registry.parse_query b "/a[" with
  | Ok _ -> Alcotest.fail "garbage parsed"
  | Error _ -> ());
  match Registry.parse_query b "a((" with Ok _ -> Alcotest.fail "garbage parsed" | Error _ -> ()

let test_document_parse_query_matches_front_end () =
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let b = Result.get_ok (Registry.install_document t ~name:"d" tree) in
  let tl = Treelattice.of_summary tree (Registry.summary b) in
  List.iter
    (fun line ->
      match Registry.parse_query b line with
      | Error msg -> Alcotest.failf "parse %S: %s" line msg
      | Ok (twig, tf) ->
        let served = tf (Registry.batch b [| twig |]).(0) in
        let direct = Result.get_ok (Treelattice.estimate_text tl line) in
        check_bits (Printf.sprintf "xpath %s" line) direct served)
    [ "/a/b"; "/a/b[c]"; "//b[c][d]"; "/b" ]

(* --- mining on load ------------------------------------------------------------ *)

(* An .xml dataset is mined across the pool it is loaded with: the pooled
   and the sequential load store the same summary bytes, and a shut-down
   pool, which refuses every parallel map, fails the load. *)
let test_pooled_xml_load () =
  let path = Filename.temp_file "tl_registry" ".xml" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Tl_xml.Xml_writer.to_file path
    { Tl_xml.Xml_dom.decl = None; root = Tl_datasets.Dataset.xmark.document ~target:100_000 ~seed:5 };
  let saved ?pool () =
    let b = Result.get_ok (Registry.load ?pool (Registry.create ()) "d" path) in
    Summary_io.save ~names:(Registry.label_names b) (Registry.summary b)
  in
  let sequential = saved () in
  Alcotest.(check string) "pooled = sequential summary bytes" sequential
    (Tl_util.Pool.with_pool ~domains:3 (fun pool -> saved ~pool ()));
  let stopped = Tl_util.Pool.create ~domains:2 () in
  Tl_util.Pool.shutdown stopped;
  Alcotest.(check bool) "the load mines across its pool" true
    (Result.is_error (Registry.load ~pool:stopped (Registry.create ()) "d" path))

(* --- one query parser for every front end ------------------------------------ *)

(* A generated twig's label [l] names [Helpers.alphabet.(l)], or a tag no
   generated document has once [l] runs past the alphabet. *)
let front_end_name l =
  if l < Array.length Helpers.alphabet then Helpers.alphabet.(l) else Printf.sprintf "ghost%d" l

let three_syntaxes twig =
  let ast = Tl_twig.Twig_parse.of_twig ~names:front_end_name twig in
  [
    (Tl_twig.Twig_parse.to_string ast, false);
    (Tl_twig.Xpath.to_string (Tl_twig.Xpath.of_twig_ast ~anchored:false ast), false);
    (Tl_twig.Xpath.to_string (Tl_twig.Xpath.of_twig_ast ~anchored:true ast), true);
  ]

(* The twig that interning the generated twig's tags into a copy of the
   document's label table would give: each unknown tag takes the next id
   from the table's size, in preorder of first appearance. *)
let interned_twig tree twig =
  let fresh = Hashtbl.create 4 in
  let id l =
    let tag = front_end_name l in
    match Data_tree.label_of_string tree tag with
    | Some known -> known
    | None -> (
      match Hashtbl.find_opt fresh tag with
      | Some id -> id
      | None ->
        let id = Data_tree.label_count tree + Hashtbl.length fresh in
        Hashtbl.replace fresh tag id;
        id)
  in
  List.iter (fun l -> ignore (id l)) (Twig.labels twig);
  Twig.canonicalize (Twig.map_labels id twig)

let prop_front_ends_agree =
  Helpers.qcheck_case ~name:"twig, xpath and anchored text agree across front ends" ~count:60
    QCheck2.Gen.(
      pair (Helpers.tree_gen ~max_nodes:25)
        (list_size (int_range 1 6)
           (Helpers.twig_gen ~nlabels:(Array.length Helpers.alphabet + 2) ~max_nodes:5 ())))
    (fun (tree, twigs) ->
      let b = Result.get_ok (Registry.install_document (Registry.create ()) ~name:"d" tree) in
      let summary = Registry.summary b in
      let tl = Treelattice.of_summary tree summary in
      let labels = Data_tree.label_count tree in
      List.for_all
        (fun twig ->
          let expected_twig = interned_twig tree twig in
          let direct = Estimator.estimate summary Treelattice.default_scheme expected_twig in
          List.for_all
            (fun (line, anchored) ->
              let expected =
                if anchored then Treelattice.anchored_scale tree expected_twig direct else direct
              in
              let parsed = Result.get_ok (Treelattice.parse_text tl line) in
              let served =
                let twig, tf = Result.get_ok (Registry.parse_query b line) in
                tf (Registry.batch b [| twig |]).(0)
              in
              Twig.equal parsed.Tl_twig.Query.twig expected_twig
              && parsed.Tl_twig.Query.anchored = anchored
              && same_float expected (Result.get_ok (Treelattice.estimate_text tl line))
              && same_float expected served)
            (three_syntaxes twig)
          && Data_tree.label_count tree = labels)
        twigs)

let test_parsing_writes_no_label () =
  let vtree =
    Tl_values.Value_tree.of_xml
      (Tl_xml.Xml_dom.parse_string "<a><b><c>1</c><d>x</d></b><b><c>2</c></b></a>")
  in
  let tree = Tl_values.Value_tree.tree vtree in
  let labels = Data_tree.label_count tree and names = Data_tree.label_names tree in
  let tl = Treelattice.build ~k:3 tree in
  let est = Tl_values.Value_estimator.create ~k:3 vtree in
  let b = Result.get_ok (Registry.install_document (Registry.create ()) ~name:"d" tree) in
  let twigs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 29 |]) ~n:120
      (Helpers.twig_gen ~nlabels:(Array.length Helpers.alphabet + 2) ~max_nodes:4 ())
  in
  let lines = List.concat_map (fun twig -> List.map fst (three_syntaxes twig)) twigs in
  let parses = ref 0 in
  List.iter
    (fun line ->
      ignore (Treelattice.parse_text tl line);
      ignore (Treelattice.estimate_text tl line);
      ignore (Treelattice.exact_text tl line);
      ignore (Registry.parse_query b line);
      parses := !parses + 4)
    lines;
  List.iter
    (fun twig ->
      let text = Tl_twig.Twig_parse.to_string (Tl_twig.Twig_parse.of_twig ~names:front_end_name twig) in
      ignore (Tl_values.Value_estimator.estimate_string est text);
      ignore (Tl_values.Value_estimator.exact_string est text);
      parses := !parses + 2)
    twigs;
  Alcotest.(check bool) (Printf.sprintf "%d parses" !parses) true (!parses >= 1000);
  Alcotest.(check bool) "some lines name tags the document lacks" true
    (List.exists (fun line -> Tl_util.Prelude.string_contains ~needle:"ghost" line) lines);
  Alcotest.(check int) "label_count unchanged" labels (Data_tree.label_count tree);
  Alcotest.(check (array string)) "label names unchanged" names (Data_tree.label_names tree);
  Alcotest.(check (array string)) "registry label space unchanged" names (Registry.label_names b)

(* --- the parse cache -------------------------------------------------------- *)

(* Lines over the fig11 tags plus one tag the document lacks, each written
   as a twig, an unanchored XPath and an anchored XPath. *)
let generated_lines () =
  let names l = [| "a"; "b"; "c"; "d"; "ghost" |].(l) in
  let twigs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 13 |]) ~n:200
      (Helpers.twig_gen ~nlabels:5 ~max_nodes:5 ())
  in
  let seen = Hashtbl.create 512 in
  List.concat_map
    (fun twig ->
      let ast = Tl_twig.Twig_parse.of_twig ~names twig in
      [
        Tl_twig.Twig_parse.to_string ast;
        Tl_twig.Xpath.to_string (Tl_twig.Xpath.of_twig_ast ~anchored:false ast);
        Tl_twig.Xpath.to_string (Tl_twig.Xpath.of_twig_ast ~anchored:true ast);
      ])
    twigs
  |> List.filter (fun line ->
         let fresh = not (Hashtbl.mem seen line) in
         Hashtbl.replace seen line ();
         fresh)

let test_parse_cache_hit_equals_miss () =
  Metrics.reset ();
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let b = Result.get_ok (Registry.install_document t ~name:"d" tree) in
  let lines = generated_lines () in
  let n = List.length lines in
  let parse line =
    match Registry.parse_query b line with
    | Ok (twig, tf) -> (Twig.Key.id (Twig.key twig), List.map tf [ 0.0; 1.0; 7.25; 1e9 ])
    | Error msg -> Alcotest.failf "parse %S: %s" line msg
  in
  let uncached = List.map parse lines in
  Alcotest.(check int) "first pass misses every line" n (counter "registry.parse_cache_misses");
  Alcotest.(check int) "first pass hits nothing" 0 (counter "registry.parse_cache_hits");
  let cached = List.map parse lines in
  Alcotest.(check int) "second pass hits every line" n (counter "registry.parse_cache_hits");
  Alcotest.(check int) "second pass parses nothing" n (counter "registry.parse_cache_misses");
  List.iteri
    (fun i (line, ((key0, out0), (key1, out1))) ->
      Alcotest.(check int) (Printf.sprintf "line %d %S key" i line) key0 key1;
      List.iter2 (check_bits (Printf.sprintf "line %d %S transform" i line)) out0 out1)
    (List.combine lines (List.combine uncached cached));
  Alcotest.(check int) "document labels unchanged" 4 (Array.length (Registry.label_names b))

(* The LRU keeps the most recent lines, so walking back from the newest
   line hits exactly as many lines as the cache holds before it misses. *)
let test_parse_cache_bounded () =
  Metrics.reset ();
  let capacity = 64 and n = 10_000 in
  let t = Registry.create ~config:{ Registry.default_config with plan_capacity = Some capacity } () in
  let b = Result.get_ok (Registry.install_document t ~name:"d" (Helpers.tree_of Helpers.fig11_spec)) in
  let line i = if i mod 2 = 0 then Printf.sprintf "a(b(c),z%d)" i else Printf.sprintf "/a/b[d]/q%d" i in
  let parse i =
    match Registry.parse_query b (line i) with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "parse %S: %s" (line i) msg
  in
  for i = 1 to n do
    parse i
  done;
  Alcotest.(check int) "every distinct line parsed" n (counter "registry.parse_cache_misses");
  let rec walk_back i =
    parse i;
    if counter "registry.parse_cache_misses" = n then walk_back (i - 1)
  in
  walk_back n;
  Alcotest.(check int) "holds exactly the plan capacity" capacity (counter "registry.parse_cache_hits");
  Alcotest.(check int) "document labels unchanged" 4 (Array.length (Registry.label_names b))

(* A line past the length limit is parsed on every call, never kept. *)
let test_parse_cache_skips_long_lines () =
  Metrics.reset ();
  let t = Registry.create () in
  let b = Result.get_ok (Registry.install_document t ~name:"d" (Helpers.tree_of Helpers.fig11_spec)) in
  let long = "a(" ^ String.make 100_000 ' ' ^ "b)" in
  let key line =
    match Registry.parse_query b line with
    | Ok (twig, _) -> Twig.Key.id (Twig.key twig)
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  let first = key long in
  Alcotest.(check int) "same twig on the second call" first (key long);
  Alcotest.(check int) "same twig as the short line" first (key "a(b)");
  Alcotest.(check int) "long line never hits" 0 (counter "registry.parse_cache_hits");
  Alcotest.(check int) "long line parsed on every call" 3 (counter "registry.parse_cache_misses");
  ignore (key "a(b)");
  Alcotest.(check int) "short line cached" 1 (counter "registry.parse_cache_hits")

let test_parse_cache_skips_errors () =
  Metrics.reset ();
  let t = Registry.create () in
  let b = Result.get_ok (Registry.install_document t ~name:"d" (Helpers.tree_of Helpers.fig11_spec)) in
  List.iter
    (fun (line, offset) ->
      for call = 1 to 3 do
        match Registry.parse_query b line with
        | Ok _ -> Alcotest.failf "%S parsed on call %d" line call
        | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S call %d positioned: %s" line call msg)
            true
            (contains ~needle:(Printf.sprintf "offset %d" offset) msg)
      done)
    [ ("a((", 2); ("/a[", 3) ];
  Alcotest.(check int) "errors are never cached" 0 (counter "registry.parse_cache_hits");
  Alcotest.(check int) "every call parsed" 6 (counter "registry.parse_cache_misses")

(* The warm path bumps each counter once per call, and the totals still
   count every line and every distinct evaluation: parse hits and misses
   by hand (a repeat within one call hits the entry its first occurrence
   added; an error is never cached), plan-cache lookups and audit
   admissions against the structures' own counts. *)
let test_batched_counters () =
  Metrics.reset ();
  let t = Registry.create () in
  let b = Result.get_ok (Registry.install_document t ~name:"d" (Helpers.tree_of Helpers.fig11_spec)) in
  let lines = [| "a(b(c,d))"; "a(b,b)"; "a(b(c,d))"; "oops("; "/a/b" |] in
  for _ = 1 to 2 do
    let twigs =
      Array.to_list (Registry.parse_queries b lines)
      |> List.filter_map (function Ok (twig, _) -> Some twig | Error _ -> None)
    in
    ignore (Registry.batch b (Array.of_list twigs))
  done;
  Alcotest.(check int) "parse hits: 1 cold, 4 warm" 5 (counter "registry.parse_cache_hits");
  Alcotest.(check int) "parse misses: 4 cold, 1 warm" 5 (counter "registry.parse_cache_misses");
  let s = Tl_serve.Engine.stats (Registry.engine b) in
  Alcotest.(check (pair int int)) "3 distinct twigs compiled, then hit" (3, 3) (s.misses, s.hits);
  Alcotest.(check int) "plan_cache.hits" s.hits (counter "plan_cache.hits");
  Alcotest.(check int) "plan_cache.misses" s.misses (counter "plan_cache.misses");
  Alcotest.(check int) "audit.records" (Tl_serve.Audit.total (Registry.audit b)) (counter "audit.records")

(* A summary-only bundle scales anchored XPath by the root tag's level-1
   count in its own summary, so a swap that changes that count must change
   the answer — a transform cached under the old epoch must not leak. *)
let test_parse_cache_swap_rescales () =
  let t = Registry.create () in
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let names = Data_tree.label_names tree in
  let b1 = Result.get_ok (Registry.install_summary t ~name:"s" ~names (Summary.build ~k:3 tree)) in
  (* Same tags in the same first-occurrence order, so the same label ids,
     but two b-nodes instead of four. *)
  let tree2 =
    Helpers.tree_of
      Tl_tree.Tree_builder.(node "a" (replicate 2 (node "b" [ leaf "c"; leaf "d" ])))
  in
  Alcotest.(check (array string)) "same label space" names (Data_tree.label_names tree2);
  let answer b =
    match Registry.parse_query b "/b/c" with
    | Ok (twig, tf) -> tf (Registry.batch b [| twig |]).(0)
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  let raw b = (Registry.batch b [| fst (Result.get_ok (Registry.parse_query b "b(c)")) |]).(0) in
  check_bits "epoch 1 divides by four b-nodes" (raw b1 /. 4.0) (answer b1);
  check_bits "epoch 1 cached answer" (raw b1 /. 4.0) (answer b1);
  let b2 = Result.get_ok (Registry.swap t "s" (Summary.build ~k:3 tree2)) in
  let misses = counter "registry.parse_cache_misses" in
  let answer2 = answer b2 in
  Alcotest.(check int) "new bundle starts with an empty cache" (misses + 1)
    (counter "registry.parse_cache_misses");
  check_bits "epoch 2 divides by two b-nodes" (raw b2 /. 2.0) answer2;
  check_bits "old bundle keeps its own scaling" (raw b1 /. 4.0) (answer b1)

(* With the drift monitor sampling every query, a line naming a tag the
   dataset lacks still answers exactly 0, its exact count replays as 0
   through either oracle, and neither the dataset's nor the drift
   document's label space grows. *)
let test_monitored_absent_tags () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let drift = Helpers.tree_of Helpers.regular_spec in
  let drift_labels = Data_tree.label_count drift in
  List.iter
    (fun (name, drift_tree) ->
      let config = { Registry.default_config with sample_rate = 1.0; drift_tree } in
      let t = Registry.create ~config () in
      let b = Result.get_ok (Registry.install_document t ~name:"d" tree) in
      let labels = Array.length (Registry.label_names b) in
      let lines = [ "ghost(a)"; "a(b(zz))"; "/nowhere/b"; "a(b(c,d))" ] in
      let parsed = List.map (fun l -> Result.get_ok (Registry.parse_query b l)) lines in
      let served =
        Array.map2 (fun (_, tf) e -> tf e) (Array.of_list parsed)
          (Registry.batch b (Array.of_list (List.map fst parsed)))
      in
      let direct = baseline (Registry.summary b) [| Helpers.twig_of_string tree "a(b(c,d))" |] in
      List.iteri (fun i line -> if i < 3 then check_bits (name ^ " " ^ line) 0.0 served.(i)) lines;
      check_bits (name ^ " known line") direct.(0) served.(3);
      (match Registry.monitor b with
      | Some m -> Alcotest.(check bool) (name ^ " sampled") true ((Tl_serve.Monitor.stats m).samples > 0)
      | None -> Alcotest.fail "monitor missing");
      Alcotest.(check int) (name ^ " labels flat") labels (Array.length (Registry.label_names b)))
    [ ("adaptive oracle", None); ("drift document", Some drift) ];
  Alcotest.(check int) "drift document labels flat" drift_labels (Data_tree.label_count drift)

(* --- adaptive state only where a monitor feeds it ------------------------- *)

module Workload = Tl_workload.Workload

let xmark_tree () = Tl_datasets.Dataset.(tree xmark ~target:1500 ~seed:5)

(* Occurring twigs of every size from [lo] to [hi] nodes. *)
let occurring tree ~lo ~hi =
  let ctx = Tl_twig.Match_count.create_ctx tree in
  List.init (hi - lo + 1) (fun i -> lo + i)
  |> List.concat_map (fun size ->
         Array.to_list (Workload.positive ~seed:size ctx ~size ~count:12).Workload.queries)
  |> Array.of_list

(* Without a drift monitor nothing would ever feed an adaptive layer, so a
   document-backed bundle builds none, and every answer is the plan's
   compiled constant: the direct estimate, bit for bit. *)
let test_no_adaptive_without_monitor () =
  let tree = xmark_tree () in
  let t = Registry.create () in
  let b = Result.get_ok (Registry.install_document t ~name:"x" tree) in
  Alcotest.(check bool) "no adaptive layer" true (Registry.adaptive b = None);
  let twigs = Array.map (fun q -> q.Workload.twig) (occurring tree ~lo:2 ~hi:8) in
  let expected = baseline (Registry.summary b) twigs in
  Array.iteri
    (fun i r -> check_bits (Twig.encode twigs.(i)) expected.(i) r)
    (Registry.batch b twigs)

(* A monitor replaying through the dataset's own document does feed the
   adaptive layer: after one batch, a twig larger than the lattice answers
   its exact count instead of its decomposed estimate. *)
let test_monitor_feeds_adaptive () =
  let tree = xmark_tree () in
  let config = { Registry.default_config with sample_rate = 1.0 } in
  let t = Registry.create ~config () in
  let b = Result.get_ok (Registry.install_document t ~name:"x" tree) in
  Alcotest.(check bool) "adaptive layer" true (Registry.adaptive b <> None);
  let summary = Registry.summary b in
  let q =
    match
      List.find_opt
        (fun (q : Workload.query) ->
          let direct = (baseline summary [| q.Workload.twig |]).(0) in
          not (same_float direct (float_of_int q.Workload.truth)))
        (Array.to_list (occurring tree ~lo:6 ~hi:6))
    with
    | Some q -> q
    | None -> Alcotest.fail "every 6-node twig is estimated exactly"
  in
  ignore (Registry.batch b [| q.Workload.twig |]);
  check_bits "exact after feedback" (float_of_int q.Workload.truth)
    (Registry.batch b [| q.Workload.twig |]).(0)

(* --- the acceptance stress ------------------------------------------------ *)

(* Concurrent swap during a multi-domain batch: servers race [find]+[batch]
   against a main-domain loop swapping between two summaries of different
   depth.  Every served batch must be bit-identical to the direct estimates
   of exactly one of the two summaries — never a mixture.  Raw
   [Domain.spawn] keeps the server domains independent of any pool. *)
let test_concurrent_swap_bit_identity () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let t = Registry.create () in
  ignore (Result.get_ok (Registry.install_document t ~name:"d" tree));
  let summary_a = Summary.build ~k:2 tree in
  let summary_b = Summary.build ~k:3 tree in
  let distinct = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let batch = Array.init 40 (fun i -> distinct.(i mod Array.length distinct)) in
  let expected_a = baseline summary_a batch in
  let expected_b = baseline summary_b batch in
  (* The blend check only has teeth if the two summaries disagree. *)
  Alcotest.(check bool) "k=2 and k=3 estimates differ somewhere" false
    (Array.for_all2 same_float expected_a expected_b);
  ignore (Result.get_ok (Registry.swap t "d" summary_a));
  let stop = Atomic.make false in
  let blends = Atomic.make 0 in
  let batches = Atomic.make 0 in
  let server () =
    while not (Atomic.get stop) do
      match Registry.find t "d" with
      | None -> Atomic.incr blends
      | Some b ->
        let results = Registry.batch b batch in
        let matches expected = Array.for_all2 same_float results expected in
        if matches expected_a || matches expected_b then Atomic.incr batches
        else Atomic.incr blends
    done
  in
  let servers = List.init 3 (fun _ -> Domain.spawn server) in
  for i = 1 to 40 do
    ignore (Result.get_ok (Registry.swap t "d" (if i mod 2 = 0 then summary_a else summary_b)))
  done;
  Atomic.set stop true;
  List.iter Domain.join servers;
  Alcotest.(check int) "no blended batch ever served" 0 (Atomic.get blends);
  Alcotest.(check bool) "servers actually served" true (Atomic.get batches > 0);
  (* Epochs stayed monotonic through the churn. *)
  match Registry.find t "d" with
  | Some b -> Alcotest.(check bool) "final epoch past all swaps" true (Registry.epoch b >= 41)
  | None -> Alcotest.fail "dataset vanished"

(* The same no-blend guarantee, end to end through the TCP front-end: a
   connection streaming batches while the main thread hot-swaps the routed
   dataset must observe only whole-epoch results — every answer line in a
   batch carries one epoch, and the batch's estimates are bit-identical to
   exactly one summary's direct estimates (the %.17g wire format makes
   that comparison exact). *)
let test_reload_through_socket_serves_whole_epochs () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let t = Registry.create () in
  ignore (Result.get_ok (Registry.install_document t ~name:"d" tree));
  let summary_a = Summary.build ~k:2 tree in
  let summary_b = Summary.build ~k:3 tree in
  let twigs = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let expected_a = baseline summary_a twigs in
  let expected_b = baseline summary_b twigs in
  Alcotest.(check bool) "k=2 and k=3 estimates differ somewhere" false
    (Array.for_all2 same_float expected_a expected_b);
  ignore (Result.get_ok (Registry.swap t "d" summary_a));
  let server = Tl_serve.Server.start t in
  Fun.protect ~finally:(fun () -> Tl_serve.Server.stop server) @@ fun () ->
  let request =
    String.concat "\n" fig11_queries ^ "\n\n"
  in
  let blends = Atomic.make 0 in
  let mixed_epochs = Atomic.make 0 in
  let batches = Atomic.make 0 in
  let stop = Atomic.make false in
  let client () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Tl_serve.Server.port server));
    while not (Atomic.get stop) do
      output_string oc request;
      flush oc;
      let answers = ref [] in
      (try
         let continue = ref true in
         while !continue do
           match input_line ic with
           | "" -> continue := false
           | line -> answers := line :: !answers
         done
       with End_of_file -> ());
      let answers = List.rev !answers in
      if List.length answers <> Array.length twigs then Atomic.incr blends
      else begin
        let parsed =
          List.map
            (fun line ->
              match String.split_on_char '\t' line with
              | [ est; epoch; _; _ ] -> (float_of_string est, int_of_string epoch)
              | _ -> (Float.nan, -1))
            answers
        in
        let estimates = Array.of_list (List.map fst parsed) in
        let epochs = List.map snd parsed in
        (match epochs with
        | e :: rest -> if not (List.for_all (Int.equal e) rest) then Atomic.incr mixed_epochs
        | [] -> ());
        let matches expected = Array.for_all2 same_float estimates expected in
        if matches expected_a || matches expected_b then Atomic.incr batches
        else Atomic.incr blends
      end
    done;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let clients = List.init 2 (fun _ -> Thread.create client ()) in
  for i = 1 to 30 do
    ignore (Result.get_ok (Registry.swap t "d" (if i mod 2 = 0 then summary_a else summary_b)));
    Thread.yield ()
  done;
  Thread.delay 0.1;
  Atomic.set stop true;
  List.iter Thread.join clients;
  Alcotest.(check int) "no blended batch over the wire" 0 (Atomic.get blends);
  Alcotest.(check int) "no mixed-epoch batch over the wire" 0 (Atomic.get mixed_epochs);
  Alcotest.(check bool) "clients actually served" true (Atomic.get batches > 0)

let () =
  Alcotest.run "registry"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "install, find, epochs, json" `Quick test_install_find_epochs;
          Alcotest.test_case "swap serves new, old bundle stays consistent" `Quick
            test_swap_serves_new_summary_old_bundle_stays_consistent;
          Alcotest.test_case "swap frees the old bundle's plans and audit ring" `Quick
            test_swap_frees_plans_and_audit;
          Alcotest.test_case "serving counters exported at zero" `Quick
            test_counters_materialized_at_zero;
          Alcotest.test_case "pooled and sequential .xml loads agree" `Quick test_pooled_xml_load;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "swap failure keeps old bundle, alarm latches" `Quick
            test_swap_failure_keeps_old_and_latches_alarm;
          Alcotest.test_case "load rejects label-name mismatch" `Quick
            test_load_rejects_label_name_mismatch;
          Alcotest.test_case "corrupt and missing files degrade" `Quick
            test_corrupt_file_degrades_gracefully;
        ] );
      ( "summary_only",
        [
          Alcotest.test_case "install, parse, batch, unknown tags" `Quick test_summary_only_dataset;
          Alcotest.test_case "document xpath = front-end" `Quick
            test_document_parse_query_matches_front_end;
        ] );
      ( "front_ends",
        [
          prop_front_ends_agree;
          Alcotest.test_case "parsing writes no label" `Quick test_parsing_writes_no_label;
        ] );
      ( "parse_cache",
        [
          Alcotest.test_case "hit = miss over twig and xpath lines" `Quick
            test_parse_cache_hit_equals_miss;
          Alcotest.test_case "bounded by the plan capacity" `Quick test_parse_cache_bounded;
          Alcotest.test_case "long lines parsed uncached" `Quick test_parse_cache_skips_long_lines;
          Alcotest.test_case "errors re-diagnosed on every call" `Quick test_parse_cache_skips_errors;
          Alcotest.test_case "batched counters keep per-line totals" `Quick test_batched_counters;
          Alcotest.test_case "swap rescales anchored xpath" `Quick test_parse_cache_swap_rescales;
          Alcotest.test_case "monitored absent tags answer 0" `Quick test_monitored_absent_tags;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "no adaptive layer without a monitor" `Quick
            test_no_adaptive_without_monitor;
          Alcotest.test_case "a monitor feeds the adaptive layer" `Quick test_monitor_feeds_adaptive;
        ] );
      ( "stress",
        [
          Alcotest.test_case "concurrent swap never blends epochs" `Quick
            test_concurrent_swap_bit_identity;
          Alcotest.test_case "reload through a live socket serves whole epochs" `Quick
            test_reload_through_socket_serves_whole_epochs;
        ] );
    ]
