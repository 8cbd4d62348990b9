module Twig = Tl_twig.Twig
module Summary = Tl_lattice.Summary
module Summary_io = Tl_lattice.Summary_io
module Data_tree = Tl_tree.Data_tree
module Estimator = Tl_core.Estimator
module Treelattice = Tl_core.Treelattice
module Adaptive = Tl_core.Adaptive
module Metrics = Tl_obs.Metrics

(* A bundle's label space: tag names indexed by label id, and the lookup
   from a name back to its id.  A document-backed bundle takes its
   document's tags, a summary-only one the names its summary file stores.
   Query parsing and the by-name validation below need nothing more. *)
type labels = { names : string array; ids : (string, int) Hashtbl.t }

let labels_of_names names =
  let ids = Hashtbl.create (Array.length names) in
  Array.iteri (fun l name -> Hashtbl.replace ids name l) names;
  { names; ids }

module Text_lru = Tl_util.Lru.Make (struct
  type t = string

  let equal = String.equal

  let hash = Hashtbl.hash
end)

(* Query text -> parse result, one per bundle (see [parse_query]). *)
type parse_cache = { pc_mutex : Mutex.t; pc_lru : (Twig.t * (float -> float)) Text_lru.t }

type bundle = {
  b_name : string;
  b_epoch : int;
  b_summary : Summary.t;
  b_labels : labels;
  b_tree : Data_tree.t option;  (* the backing document; [None] when summary-only *)
  b_engine : Engine.t;
  b_adaptive : Adaptive.t option;
  b_audit : Audit.t;
  b_monitor : Monitor.t option;
  b_parsed : parse_cache;
}

(* Where a dataset came from, for [reload]. *)
type dataset = {
  d_name : string;
  mutable d_source : string option;  (* guarded by the registry mutex *)
  d_current : bundle Atomic.t;
}

type config = {
  scheme : Estimator.scheme;
  k : int;
  plan_capacity : int option;
  sample_rate : float;
  drift_threshold : float;
  drift_tree : Data_tree.t option;
}

let default_config =
  {
    scheme = Treelattice.default_scheme;
    k = 4;
    plan_capacity = None;
    sample_rate = 0.0;
    drift_threshold = 1.0;
    drift_tree = None;
  }

type t = {
  cfg : config;
  mutex : Mutex.t;
  table : (string, dataset) Hashtbl.t;  (* guarded by [mutex] *)
  mutable order : string list;  (* installation order; guarded by [mutex] *)
  next_epoch : int Atomic.t;
  reload_alarm : bool Atomic.t;
}

let create ?(config = default_config) () =
  Metrics.describe "registry.datasets" "Datasets currently installed in the serving registry";
  Metrics.describe "registry.reloads_total" "Successful dataset swaps/reloads";
  Metrics.describe "registry.reload_failures_total" "Failed dataset loads or validations";
  Metrics.describe "registry.alarm" "Latching reload-failure alarm (1 = a reload has failed)";
  Metrics.describe "registry.parse_cache_hits" "Query lines answered from a bundle's parse cache";
  Metrics.describe "registry.parse_cache_misses" "Query lines parsed (and, when valid, cached)";
  Metrics.describe "twig.leaf_pairs_built"
    "Leaf-pair splits built for decomposition (each is built once per process, then reused)";
  Metrics.set_gauge "registry.datasets" 0;
  Metrics.set_gauge "registry.alarm" 0;
  Metrics.add "registry.parse_cache_hits" 0;
  Metrics.add "registry.parse_cache_misses" 0;
  Metrics.add "twig.leaf_pairs_built" 0;
  {
    cfg = config;
    mutex = Mutex.create ();
    table = Hashtbl.create 8;
    order = [];
    next_epoch = Atomic.make 1;
    reload_alarm = Atomic.make false;
  }

let config t = t.cfg

let alarm t = Atomic.get t.reload_alarm

let clear_alarm t =
  Atomic.set t.reload_alarm false;
  Metrics.set_gauge "registry.alarm" 0

let fail t msg =
  Metrics.incr "registry.reload_failures_total";
  Atomic.set t.reload_alarm true;
  Metrics.set_gauge "registry.alarm" 1;
  Tl_obs.Log.info (fun m -> m "registry: reload failed: %s" msg);
  Error msg

(* --- bundle construction ------------------------------------------------- *)

(* A summary whose twigs reference label ids outside the bundle's label
   space was built against a different interner; serving it would return
   selectivities of arbitrary other tags.  Rejected here, before any
   bundle is built. *)
let validate_labels ~labels summary =
  let space = Array.length labels.names in
  let bad = ref (-1) in
  let rec walk (tw : Twig.t) =
    if tw.Twig.label < 0 || tw.Twig.label >= space then bad := tw.Twig.label;
    List.iter walk tw.Twig.children
  in
  Summary.fold (fun twig _ () -> walk twig) summary ();
  if !bad >= 0 then
    Error
      (Printf.sprintf
         "summary label id %d is outside the dataset's label space (%d label(s)): summary and \
          document interners do not match"
         !bad space)
  else Ok ()

(* The label of every tag a query names but the dataset lacks.  No node
   and no summary entry carries it, so any twig over it has selectivity 0. *)
let absent_label = -1

let make_monitor cfg ~labels ~adaptive =
  if cfg.sample_rate <= 0.0 then None
  else
    let monitor oracle =
      Some (Monitor.create ~sample_rate:cfg.sample_rate ~threshold:cfg.drift_threshold ~oracle ())
    in
    match cfg.drift_tree with
    | Some drift_tree ->
      (* Twig labels are interned per document: remap by tag name into the
         drift document before counting there.  A tag it lacks — or the
         query-side [absent_label] — maps to [absent_label], which no node
         carries, so the twig counts zero (the right answer) without
         writing to the drift document's interner. *)
      let count = Monitor.oracle_of_tree drift_tree in
      monitor (fun key ->
          let remap l =
            if l = absent_label then l
            else
              Option.value ~default:absent_label
                (Data_tree.label_of_string drift_tree labels.names.(l))
          in
          let twig = Twig.canonicalize (Twig.map_labels remap (Twig.Key.twig key)) in
          count (Twig.key twig))
    | None -> (
      (* Without a drift document the oracle replays against the dataset's
         own document through the adaptive layer, so each sample also
         feeds the workload-refinement loop.  Summary-only datasets have
         no exact oracle at all. *)
      match adaptive with Some a -> monitor (Monitor.oracle_of_adaptive a) | None -> None)

let build_bundle t ~name ~epoch ~labels ~tree summary =
  match validate_labels ~labels summary with
  | Error _ as e -> e
  | Ok () ->
    let cfg = t.cfg in
    let engine = Engine.create ~scheme:cfg.scheme ?plan_capacity:cfg.plan_capacity summary in
    let parsed =
      { pc_mutex = Mutex.create (); pc_lru = Text_lru.create ~capacity:(Engine.stats engine).capacity }
    in
    (* The adaptive layer exists only to be fed: its one writer is the
       drift monitor replaying against the dataset's own document.  Any
       other bundle answers every plan with its compiled constant. *)
    let adaptive =
      match tree with
      | Some tree when cfg.sample_rate > 0.0 && cfg.drift_tree = None ->
        Some (Adaptive.create (Treelattice.of_summary tree summary))
      | _ -> None
    in
    Ok
      {
        b_name = name;
        b_epoch = epoch;
        b_summary = summary;
        b_labels = labels;
        b_tree = tree;
        b_engine = engine;
        b_adaptive = adaptive;
        b_audit = Audit.create ();
        b_monitor = make_monitor cfg ~labels ~adaptive;
        b_parsed = parsed;
      }

(* --- install / swap ------------------------------------------------------ *)

let epoch_gauge name epoch = Metrics.set_gauge ("registry.epoch." ^ name) epoch

let install t ~name ?source ~labels ~tree summary =
  (* The epoch is drawn before the (possibly slow) bundle build; racing
     installs for the same dataset thus resolve by epoch order below —
     the bundle built later in program order can never be displaced by a
     straggler holding an older epoch. *)
  let epoch = Atomic.fetch_and_add t.next_epoch 1 in
  match build_bundle t ~name ~epoch ~labels ~tree summary with
  | Error _ as e -> e
  | Ok bundle ->
    Mutex.lock t.mutex;
    let ds, fresh =
      match Hashtbl.find_opt t.table name with
      | Some ds -> (ds, false)
      | None ->
        let ds = { d_name = name; d_source = None; d_current = Atomic.make bundle } in
        Hashtbl.replace t.table name ds;
        t.order <- t.order @ [ name ];
        (ds, true)
    in
    if (not fresh) && (Atomic.get ds.d_current).b_epoch < epoch then Atomic.set ds.d_current bundle;
    (match source with Some s -> ds.d_source <- Some s | None -> ());
    let current = Atomic.get ds.d_current in
    let n_datasets = Hashtbl.length t.table in
    Mutex.unlock t.mutex;
    if not fresh then Metrics.incr "registry.reloads_total";
    Metrics.set_gauge "registry.datasets" n_datasets;
    epoch_gauge name current.b_epoch;
    Tl_obs.Log.debug (fun m ->
        m "registry: %s %s at epoch %d (%d entries)"
          (if fresh then "installed" else "swapped")
          name current.b_epoch (Summary.entries current.b_summary));
    Ok current

let find t name =
  Mutex.lock t.mutex;
  let ds = Hashtbl.find_opt t.table name in
  Mutex.unlock t.mutex;
  Option.map (fun ds -> Atomic.get ds.d_current) ds

let dataset_names t =
  Mutex.lock t.mutex;
  let order = t.order in
  Mutex.unlock t.mutex;
  order

let list t = List.filter_map (find t) (dataset_names t)

let default t = match dataset_names t with [] -> None | name :: _ -> find t name

let install_document ?pool t ~name ?source tree =
  match Summary.build ?pool ~k:t.cfg.k tree with
  | exception Invalid_argument msg -> fail t msg
  | summary ->
    install t ~name ?source ~labels:(labels_of_names (Data_tree.label_names tree)) ~tree:(Some tree)
      summary

let install_summary t ~name ?source ~names summary =
  match install t ~name ?source ~labels:(labels_of_names names) ~tree:None summary with
  | Error msg -> fail t msg
  | Ok _ as ok -> ok

let swap t name summary =
  match find t name with
  | None -> fail t (Printf.sprintf "unknown dataset %S" name)
  | Some cur -> (
    match install t ~name ~labels:cur.b_labels ~tree:cur.b_tree summary with
    | Error msg -> fail t msg
    | Ok _ as ok -> ok)

(* --- file loading -------------------------------------------------------- *)

let load ?pool t name path =
  if Filename.check_suffix path ".xml" then
    match Tl_tree.Tree_load.of_file path with
    | exception Sys_error msg -> fail t msg
    | exception e -> fail t (Printf.sprintf "%s: %s" path (Printexc.to_string e))
    | tree -> install_document ?pool t ~name ~source:path tree
  else
    match find t name with
    | Some ({ b_tree = Some _; _ } as cur) ->
      (* The satellite label-mismatch guard: a summary routed to a
         document-backed dataset is re-keyed by tag name into the
         document's interner, and a name the document lacks proves the
         summary was not built from (a relabeling of) this document. *)
      let intern tag =
        match Hashtbl.find_opt cur.b_labels.ids tag with
        | Some l -> l
        | None ->
          raise
            (Summary_io.Format_error
               (Printf.sprintf "summary label %S does not occur in dataset %S's document" tag name))
      in
      (match Summary_io.load_file ~intern path with
      | exception Summary_io.Format_error msg -> fail t (Printf.sprintf "%s: %s" path msg)
      | exception Sys_error msg -> fail t msg
      | summary, _names -> install t ~name ~source:path ~labels:cur.b_labels ~tree:cur.b_tree summary)
    | Some { b_tree = None; _ } | None -> (
      match Summary_io.load_file path with
      | exception Summary_io.Format_error msg -> fail t (Printf.sprintf "%s: %s" path msg)
      | exception Sys_error msg -> fail t msg
      | summary, names -> install_summary t ~name ~source:path ~names summary)

let source t name =
  Mutex.lock t.mutex;
  let s = Option.bind (Hashtbl.find_opt t.table name) (fun ds -> ds.d_source) in
  Mutex.unlock t.mutex;
  s

let reload ?pool t name =
  match source t name with
  | None -> fail t (Printf.sprintf "dataset %S has no recorded source to reload from" name)
  | Some path -> load ?pool t name path

let reload_all ?pool t =
  List.filter_map
    (fun name -> Option.map (fun _ -> (name, reload ?pool t name)) (source t name))
    (dataset_names t)

(* --- bundle accessors ---------------------------------------------------- *)

let name b = b.b_name

let epoch b = b.b_epoch

let summary b = b.b_summary

let engine b = b.b_engine

let audit b = b.b_audit

let monitor b = b.b_monitor

let adaptive b = b.b_adaptive

let tree b = b.b_tree

let label_names b = b.b_labels.names

(* --- query parsing ------------------------------------------------------- *)

(* Anchored-XPath scaling: a document-backed bundle scales exactly as
   [Treelattice.estimate_text].  A summary-only bundle has no document
   shape, so it scales by the root tag's own level-1 occurrence count and
   cannot check which tag the root is. *)
let anchored_scale b (twig : Twig.t) estimate =
  match b.b_tree with
  | Some tree -> Treelattice.anchored_scale tree twig estimate
  | None ->
    let occurrences =
      match Summary.find b.b_summary (Twig.leaf twig.Twig.label) with Some c -> c | None -> 0
    in
    estimate /. float_of_int (max 1 occurrences)

(* Every line naming a tag the dataset lacks parses to this one twig: no
   match can exist, so the estimate is exactly 0 whatever the shape, and
   all such lines share one key and one plan. *)
let absent_twig = Twig.leaf absent_label

(* Tags resolve by lookup only, so parsing never writes to the label space
   that concurrent connections share. *)
let parse_uncached b line =
  let { names; ids } = b.b_labels in
  Result.map
    (fun { Tl_twig.Query.twig; anchored; unknown } ->
      if unknown <> [] then (absent_twig, Fun.id)
      else (twig, if anchored then anchored_scale b twig else Fun.id))
    (Tl_twig.Query.parse ~size:(Array.length names) ~find:(Hashtbl.find_opt ids) line)

(* Longest line the parse cache keeps.  Query lines are short; a longer
   one (padding, say) is parsed uncached, so the cache holds at most
   capacity x this many bytes of text per bundle. *)
let max_cached_line = 512

(* The parse cache is the plan cache one layer up: it lives and dies with
   its bundle, so a swap starts empty and needs no invalidation.  Errors
   are not cached; a malformed line re-parses to the same diagnosis.

   [parse_locked] is entered and left with the cache lock held and drops
   it only while a miss parses, so a warm batch takes the lock once, and
   a line repeated within one call hits the entry its first occurrence
   added.  Cache hits are counted into [hits]; the callers publish. *)
let parse_locked b hits line =
  let pc = b.b_parsed in
  let cacheable = String.length line <= max_cached_line in
  match if cacheable then Text_lru.find pc.pc_lru line else None with
  | Some parsed ->
    incr hits;
    Ok parsed
  | None ->
    Mutex.unlock pc.pc_mutex;
    let result = parse_uncached b line in
    Mutex.lock pc.pc_mutex;
    (match result with Ok parsed when cacheable -> Text_lru.add pc.pc_lru line parsed | _ -> ());
    result

let count_parses ~lines ~hits =
  if hits > 0 then Metrics.add "registry.parse_cache_hits" hits;
  if lines > hits then Metrics.add "registry.parse_cache_misses" (lines - hits)

let parse_query b line =
  let hits = ref 0 in
  Mutex.lock b.b_parsed.pc_mutex;
  let result = parse_locked b hits line in
  Mutex.unlock b.b_parsed.pc_mutex;
  count_parses ~lines:1 ~hits:!hits;
  result

let parse_queries b lines =
  let hits = ref 0 in
  Mutex.lock b.b_parsed.pc_mutex;
  let results = Array.map (parse_locked b hits) lines in
  Mutex.unlock b.b_parsed.pc_mutex;
  count_parses ~lines:(Array.length lines) ~hits:!hits;
  results

(* --- serving ------------------------------------------------------------- *)

let batch ?pool b twigs =
  let extra = Option.map Adaptive.lookup b.b_adaptive in
  let results = Engine.batch ?pool ?extra ~audit:b.b_audit ?monitor:b.b_monitor b.b_engine twigs in
  Metrics.add ("serve.queries." ^ b.b_name) (Array.length twigs);
  Metrics.incr ("serve.batches." ^ b.b_name);
  results

(* --- /datasets ----------------------------------------------------------- *)

let datasets_json t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema_version\": 1, \"reload_alarm\": %b, \"datasets\": [" (alarm t));
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_string buf ", ";
      let drift_alarm = match b.b_monitor with Some m -> Monitor.alarm m | None -> false in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\": \"%s\", \"epoch\": %d, \"entries\": %d, \"k\": %d, \"kind\": \"%s\", \
            \"alarm\": %b}"
           (Tl_util.Prelude.json_escape b.b_name)
           b.b_epoch (Summary.entries b.b_summary) (Summary.k b.b_summary)
           (if Option.is_some b.b_tree then "document" else "summary")
           drift_alarm))
    (list t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
