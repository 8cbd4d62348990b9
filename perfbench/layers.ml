(* The traced run: spans recorded in the benchmark's own code around calls
   into each layer's public functions (nothing inside the program is
   instrumented).  Build layers are traced over the workload's documents;
   serving layers by replaying the clients' first batches in process,
   through the same calls [Tl_serve.Server] makes for a batch. *)

module Clock = Tl_util.Mono_clock
module Registry = Tl_serve.Registry
module Engine = Tl_serve.Engine
module Plan_cache = Tl_core.Plan_cache
module Plan = Tl_core.Estimator.Plan
module Summary = Tl_lattice.Summary
module Summary_io = Tl_lattice.Summary_io
module Data_tree = Tl_tree.Data_tree
module Twig = Tl_twig.Twig

(* --- spans ---------------------------------------------------------------- *)

type span = { id : int; parent : int; name : string; start_ns : int; dur_ns : int }

let spans : span list ref = ref []

let next_id = ref 1

let current = ref 0

let totals : (string, int * int) Hashtbl.t = Hashtbl.create 32

(* Spans kept for the log file; totals count every span regardless. *)
let max_logged = 100_000

let logged = ref 0

let add span =
  if !logged < max_logged then begin
    spans := span :: !spans;
    incr logged
  end;
  let ns, n = Option.value (Hashtbl.find_opt totals span.name) ~default:(0, 0) in
  Hashtbl.replace totals span.name (ns + span.dur_ns, n + 1)

(* A span timed by the caller. *)
let record name ~start_ns ~dur_ns =
  let id = !next_id in
  incr next_id;
  add { id; parent = !current; name; start_ns; dur_ns }

(* A span's children are the spans opened while it runs; the parent's id
   is only known when it closes, so children record the id it will get. *)
let span name f =
  let parent = !current in
  let reserved = !next_id in
  incr next_id;
  current := reserved;
  let start_ns = Clock.now_ns () in
  let finish () =
    current := parent;
    add { id = reserved; parent; name; start_ns; dur_ns = Clock.now_ns () - start_ns }
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let total_ns name = fst (Option.value (Hashtbl.find_opt totals name) ~default:(0, 0))

let count name = snd (Option.value (Hashtbl.find_opt totals name) ~default:(0, 0))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let mean_ns name = ratio (float_of_int (total_ns name)) (float_of_int (count name))

let write_jsonl path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%d,\"dur_ns\":%d}\n" s.id
            s.parent s.name s.start_ns s.dur_ns)
        (List.rev !spans))

(* --- build layers --------------------------------------------------------- *)

let counter name =
  Option.value (List.assoc_opt name (Tl_obs.Metrics.snapshot ()).Tl_obs.Metrics.counters) ~default:0

(* One pass of what [treelattice summarize -k 4] does, per document, with
   a span around each layer's call.  Returns (name, value) metrics, times
   summed over the documents like [build_s]. *)
let trace_build ~work (docs : Inputs.doc list) =
  let counted0 = counter "miner.candidates_counted" in
  let kept = ref 0 and extended = ref 0 and bytes = ref 0 in
  List.iter
    (fun (d : Inputs.doc) ->
      span "build" (fun () ->
          bytes := !bytes + (Unix.stat d.Inputs.xml).Unix.st_size;
          let dom = span "xmlparse.parse" (fun () -> Tl_xml.Xml_dom.parse_file d.Inputs.xml) in
          let tree = span "tree.of_xml" (fun () -> Data_tree.of_xml dom) in
          let ctx = Tl_twig.Match_count.create_ctx tree in
          let mined = span "mining.mine" (fun () -> Tl_mining.Miner.mine ctx ~max_size:4) in
          let total = Tl_mining.Miner.total_patterns mined in
          kept := !kept + total;
          (* Level-1 patterns are the tags themselves, not counted candidates. *)
          extended := !extended + total - List.length (Tl_mining.Miner.level mined 1);
          let summary = span "lattice.of_mining" (fun () -> Summary.of_mining mined) in
          let path = Filename.concat work (d.Inputs.name ^ ".traced.summary") in
          span "lattice.save" (fun () -> Summary_io.save_file ~names:(Data_tree.label_names tree) path summary);
          ignore (span "lattice.load" (fun () -> Summary_io.load_file path))))
    docs;
  let ms name = float_of_int (total_ns name) /. 1e6 in
  let counted = counter "miner.candidates_counted" - counted0 in
  [
    ("xmlparse.parse_ms", "ms", ms "xmlparse.parse");
    ("xmlparse.mb_per_s", "MB/s", ratio (float_of_int !bytes /. 1e6) (ms "xmlparse.parse" /. 1e3));
    ("tree.of_xml_ms", "ms", ms "tree.of_xml");
    ("mining.mine_ms", "ms", ms "mining.mine");
    ("mining.candidates_counted", "count", float_of_int counted);
    ("mining.patterns_kept", "count", float_of_int !kept);
    ("mining.kept_ratio", "ratio", ratio (float_of_int !extended) (float_of_int counted));
    ("lattice.of_mining_ms", "ms", ms "lattice.of_mining");
    ("lattice.save_ms", "ms", ms "lattice.save");
    ("lattice.load_ms", "ms", ms "lattice.load");
  ]

(* --- serving layers ------------------------------------------------------- *)

type replay = {
  reg : Registry.t;
  pools : Inputs.pool array;
  docs : Inputs.doc array;  (** same order as [pools] *)
  batches : (int * int) array list;  (** per batch, (pool, entry) per line *)
  reload_every : int option;  (** a reload after every this many batches *)
}

(* Routing groups of one batch, in first-appearance order, as
   [Server.serve_batch] forms them. *)
let groups picks =
  let order = ref [] in
  let members = Hashtbl.create 4 in
  Array.iter
    (fun (p, e) ->
      match Hashtbl.find_opt members p with
      | Some l -> l := e :: !l
      | None ->
        Hashtbl.replace members p (ref [ e ]);
        order := p :: !order)
    picks;
  List.rev_map (fun p -> (p, Array.of_list (List.rev !(Hashtbl.find members p)))) !order

let bundle r p = Oracle.bundle r.reg r.pools.(p).Inputs.dataset

(* Reload [k]: the same [reload NAME SUMMARY_PATH] the load generator
   sends, cycling over the datasets. *)
let reload r k =
  let p = k mod Array.length r.pools in
  span "registry.load" (fun () ->
      match Registry.load r.reg r.pools.(p).Inputs.dataset r.docs.(p).Inputs.summary with
      | Ok _ -> ()
      | Error msg -> failwith ("replay reload failed: " ^ msg))

let with_reloads r f =
  let reloads = ref 0 in
  List.iteri
    (fun i picks ->
      f picks;
      match r.reload_every with
      | Some every when (i + 1) mod every = 0 ->
        reload r !reloads;
        incr reloads
      | _ -> ())
    r.batches

(* Every dataset starts from a cold bundle (empty plan cache), as in a
   freshly started server. *)
let reset r =
  Array.iter
    (fun (pool : Inputs.pool) ->
      let name = pool.Inputs.dataset in
      ignore (Registry.swap r.reg name (Registry.summary (Oracle.bundle r.reg name))))
    r.pools

(* The batch path of the server, minus the socket: route, parse each line,
   evaluate each group through [Registry.batch], render the answers. *)
let pipeline ~traced r =
  let sp name f = if traced then span name f else f () in
  reset r;
  let buf = Buffer.create 65536 in
  let t0 = Clock.now_ns () in
  with_reloads r (fun picks ->
      Buffer.clear buf;
      List.iter
        (fun (p, entries) ->
          let b = bundle r p in
          let parsed =
            Array.map
              (fun e ->
                sp "registry.parse_query" (fun () ->
                    match Registry.parse_query b r.pools.(p).Inputs.entries.(e).Inputs.query with
                    | Ok parsed -> parsed
                    | Error msg -> failwith msg))
              entries
          in
          let estimates = sp "registry.batch" (fun () -> Registry.batch b (Array.map fst parsed)) in
          sp "server.render" (fun () ->
              let epoch = Registry.epoch b in
              Array.iteri
                (fun i (_, transform) ->
                  Buffer.add_string buf
                    (Printf.sprintf "%.17g\t%d\t%s\t%s\n" (transform estimates.(i)) epoch
                       r.pools.(p).Inputs.dataset Oracle.scheme_name))
                parsed))
        (groups picks));
  Clock.now_ns () - t0

(* The engine's work, over the same batches: [Engine.batch] as a whole on
   an engine of its own, then the steps it takes one by one on a plan
   cache of its own — keying, plan-cache lookup (compiling on a miss),
   evaluation with the bundle's feedback source.  Both are cold at the
   start and after each reload.  A miss is also timed as a standalone
   [Plan.compile]. *)
let decompose r =
  reset r;
  let fresh p =
    let summary = Registry.summary (bundle r p) in
    (Engine.create ~scheme:Oracle.scheme summary, Plan_cache.create summary)
  in
  let state = Array.init (Array.length r.pools) fresh in
  let lines = ref 0 and distinct = ref 0 and slots = ref 0 in
  let reloads = ref 0 in
  List.iteri
    (fun i picks ->
      List.iter
        (fun (p, entries) ->
          let b = bundle r p in
          let extra = Option.map Tl_core.Adaptive.lookup (Registry.adaptive b) in
          let summary = Registry.summary b in
          let twigs =
            Array.map
              (fun e -> fst (Result.get_ok (Registry.parse_query b r.pools.(p).Inputs.entries.(e).Inputs.query)))
              entries
          in
          let engine, cache = state.(p) in
          ignore (span "engine.batch" (fun () -> Engine.batch ?extra engine twigs));
          let keys = Array.map (fun t -> span "twig.key" (fun () -> Twig.key (Twig.canonicalize t))) twigs in
          let seen = Hashtbl.create 64 in
          Array.iteri
            (fun j key ->
              if not (Hashtbl.mem seen (Twig.Key.id key)) then begin
                Hashtbl.replace seen (Twig.Key.id key) ();
                incr distinct;
                let start_ns = Clock.now_ns () in
                let plan, hit = Plan_cache.plan_key_hit cache Oracle.scheme key in
                let dur_ns = Clock.now_ns () - start_ns in
                record (if hit then "plan_cache.hit" else "plan_cache.miss") ~start_ns ~dur_ns;
                if not hit then
                  ignore (span "estimator.compile" (fun () -> Plan.compile summary Oracle.scheme twigs.(j)));
                slots := !slots + Plan.slot_count plan;
                ignore (span "estimator.eval" (fun () -> Plan.eval ?extra plan))
              end)
            keys;
          lines := !lines + Array.length twigs)
        (groups picks);
      match r.reload_every with
      | Some every when (i + 1) mod every = 0 ->
        reload r !reloads;
        let p = !reloads mod Array.length r.pools in
        state.(p) <- fresh p;
        incr reloads
      | _ -> ())
    r.batches;
  (!lines, !distinct, !slots)

type replayed = {
  labels_delta : int;
  keys_delta : int;
  untraced_ns : int;
  traced_ns : int;
  lines : int;
  distinct : int;
  slots : int;
  batches : int;
}

(* The in-process replays.  Runs before the oracle, so label and key
   growth are measured from the state a fresh server has — except for the
   query twigs' own keys, which generating the query pools interned. *)
let replay r =
  let labels () =
    Array.fold_left
      (fun acc (p : Inputs.pool) -> acc + Array.length (Registry.label_names (Oracle.bundle r.reg p.Inputs.dataset)))
      0 r.pools
  in
  let labels0 = labels () and keys0 = Twig.Key.interned () in
  let untraced_a = pipeline ~traced:false r in
  let labels_delta = labels () - labels0 and keys_delta = Twig.Key.interned () - keys0 in
  (* Untraced and traced replays alternate; the faster of each kind is
     the basis of the overhead figure.  Only the last traced replay's
     stage totals are kept. *)
  let traced_a = pipeline ~traced:true r in
  let untraced_b = pipeline ~traced:false r in
  List.iter (Hashtbl.remove totals) [ "registry.parse_query"; "registry.batch"; "server.render" ];
  let traced_b = pipeline ~traced:true r in
  (* One reload of every dataset, so registry.load_ms exists on workloads
     that do not reload while serving. *)
  Array.iteri (fun k _ -> reload r k) r.pools;
  let lines, distinct, slots = decompose r in
  {
    labels_delta;
    keys_delta;
    untraced_ns = min untraced_a untraced_b;
    traced_ns = min traced_a traced_b;
    lines;
    distinct;
    slots;
    batches = List.length r.batches;
  }

(* Per-layer figures of the serving path.  [live] are the deltas of the
   server's own counters over the live run, [rt_ms] its mean client round
   trip per batch. *)
let serve_metrics x ~live ~rt_ms =
  let per_line name = ratio (float_of_int (total_ns name)) (float_of_int x.lines) in
  let inserver_ns =
    List.fold_left (fun acc n -> acc +. float_of_int (total_ns n)) 0.0
      [ "registry.parse_query"; "registry.batch"; "server.render" ]
  in
  let inserver_ms = inserver_ns /. float_of_int x.batches /. 1e6 in
  let live name = Option.value (List.assoc_opt name live) ~default:0.0 in
  let request_ms = ratio (live "server.request_ns_sum") (live "server.request_ns_count") /. 1e6 in
  [
    ("registry.parse_query_ns", "ns", per_line "registry.parse_query");
    ("registry.batch_ns", "ns", per_line "registry.batch");
    ("registry.load_ms", "ms", mean_ns "registry.load" /. 1e6);
    ("registry.labels_delta", "count", float_of_int x.labels_delta);
    ("server.render_ns", "ns", per_line "server.render");
    ("twig.key_ns", "ns", mean_ns "twig.key");
    ("twig.keys_interned_delta", "count", float_of_int x.keys_delta);
    ("plan_cache.hit_ratio", "ratio", ratio (live "plan_cache.hits") (live "plan_cache.hits" +. live "plan_cache.misses"));
    ("plan_cache.hit_ns", "ns", mean_ns "plan_cache.hit");
    ("plan_cache.evictions", "count", live "plan_cache.evictions");
    ("plan.compiles", "count", live "plan.compiles");
    ("estimator.compile_us", "us", mean_ns "estimator.compile" /. 1e3);
    ("estimator.eval_ns", "ns", mean_ns "estimator.eval");
    ("estimator.slots_per_plan", "count", ratio (float_of_int x.slots) (float_of_int x.distinct));
    ("engine.batch_ns", "ns", per_line "engine.batch");
    ("engine.distinct_ratio", "ratio", ratio (float_of_int x.distinct) (float_of_int x.lines));
    ("engine.latency_ns", "ns", ratio (live "serve.latency_ns_sum") (live "serve.latency_ns_count"));
    ("engine.share_pct", "%", 100.0 *. ratio (float_of_int (total_ns "registry.batch")) inserver_ns);
    ("server.request_ms", "ms", request_ms);
    ("server.outside_ms", "ms", rt_ms -. request_ms);
    ("server.shed", "count", live "server.shed_total");
    ("trace.residual_pct", "%", 100.0 *. ratio (rt_ms -. inserver_ms) rt_ms);
    ("trace.overhead_pct", "%", 100.0 *. ratio (float_of_int (x.traced_ns - x.untraced_ns)) (float_of_int x.untraced_ns));
  ]
