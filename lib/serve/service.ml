(* The serve composition.  Startup order is the readiness contract: every
   dataset is installed before the endpoint answers, the caller holds the
   service before anything announces it, and a port file appears only
   once both listeners are up. *)

module Exporter = Tl_obs.Exporter

type config = {
  xml : string option;
  datasets : (string * string) list;
  k : int;
  scheme : Tl_core.Estimator.scheme;
  sample_rate : float;
  drift_threshold : float;
  drift_xml : string option;
  port : int;
  port_file : string option;
  audit_out : string option;
  listen : int option;
  server_port_file : string option;
  server_workers : int;
  server_queue : int;
  json : bool;
}

type t = {
  config : config;
  pool : Tl_util.Pool.t option;
  registry : Registry.t;
  exporter : Exporter.t;
  mutable server : Server.t option;
  stopped : bool Atomic.t;
}

let registry t = t.registry

(* The one epoch line, for startup installs ([ms] given) and reloads.
   Startup has no previous epoch to fall back to, so its failure raises. *)
let report_epoch ?ms name = function
  | Ok b -> (
    let entries = Tl_lattice.Summary.entries (Registry.summary b) in
    let epoch = Printf.sprintf "epoch %d (%d entries)" (Registry.epoch b) entries in
    match ms with
    | Some ms -> Printf.eprintf "serve: dataset %s ready at %s in %.0f ms\n%!" name epoch ms
    | None -> Printf.eprintf "serve: reloaded %s -> %s\n%!" name epoch)
  | Error msg when ms <> None ->
    Printf.eprintf "serve: dataset %s failed to load: %s\n%!" name msg;
    failwith msg
  | Error msg ->
    Printf.eprintf "serve: reload %s failed: %s (previous epoch keeps serving)\n%!" name msg

(* The [pick]ed audit records of every dataset as JSON Lines tagged with
   the dataset, and how many there are. *)
let audit_jsonl registry pick =
  let lines b = List.map (fun r -> Audit.record_json ~dataset:(Registry.name b) r ^ "\n") in
  let all = List.concat_map (fun b -> lines b (pick (Registry.audit b))) (Registry.list registry) in
  (String.concat "" all, List.length all)

let monitors registry =
  List.filter_map
    (fun b -> Option.map (fun m -> (Registry.name b, Monitor.stats m)) (Registry.monitor b))
    (Registry.list registry)

let routes_of registry =
  let healthz () =
    match monitors registry with
    | [] -> Exporter.text "ok\ndrift monitor off (enable with --sample-rate)\n"
    | monitors ->
      let alarm = List.exists (fun (_, s) -> s.Monitor.alarm) monitors in
      let line (name, s) = Printf.sprintf "%s: %s\n" name (Monitor.pp_stats s) in
      Exporter.text ~status:(if alarm then 503 else 200)
        (String.concat "" ((if alarm then "drift\n" else "ok\n") :: List.map line monitors))
  in
  let newest a = List.rev (Audit.recent ~limit:256 a) in
  [
    ("/audit", fun () -> Exporter.text (fst (audit_jsonl registry newest)));
    ("/healthz", healthz);
    ("/datasets", fun () -> Exporter.text (Registry.datasets_json registry));
  ]

let routes t = routes_of t.registry

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Option.iter
      (fun s ->
        Server.stop s;
        let st = Server.stats s in
        Printf.eprintf
          "serve: tcp front-end drained (%d connection(s), %d query(ies), %d batch(es), %d shed)\n%!"
          st.Server.connections st.Server.queries st.Server.batches st.Server.shed)
      t.server;
    Exporter.stop t.exporter;
    Option.iter
      (fun path ->
        let text, n = audit_jsonl t.registry Audit.records in
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        Printf.eprintf "serve: wrote %d audit record(s) to %s\n%!" n path)
      t.config.audit_out
  end

(* The one port-file writer, and the line announcing the listener. *)
let publish file port announce =
  let write path = Out_channel.with_open_bin path (fun oc -> Printf.fprintf oc "%d\n" port) in
  Option.iter write file;
  Printf.eprintf announce port

let start ?pool ?(ready = ignore) ~load_tree config =
  let registry =
    Registry.create
      ~config:
        {
          Registry.default_config with
          Registry.scheme = config.scheme;
          k = config.k;
          sample_rate = config.sample_rate;
          drift_threshold = config.drift_threshold;
          drift_tree = Option.map load_tree config.drift_xml;
        }
      ()
  in
  let install name load =
    let result, ms = Tl_util.Timer.time_ms load in
    report_epoch ~ms name result
  in
  Option.iter
    (fun path ->
      install "default" (fun () ->
          Registry.install_document ?pool registry ~name:"default" ~source:path (load_tree path)))
    config.xml;
  List.iter
    (fun (name, path) -> install name (fun () -> Registry.load ?pool registry name path))
    config.datasets;
  let exporter = Exporter.start ~port:config.port ~routes:(routes_of registry) () in
  let t = { config; pool; registry; exporter; server = None; stopped = Atomic.make false } in
  let server_config port =
    {
      Server.default_config with
      port;
      workers = config.server_workers;
      queue_capacity = config.server_queue;
      json = config.json;
    }
  in
  (try
     t.server <- Option.map (fun p -> Server.start ~config:(server_config p) ?pool registry) config.listen;
     ready t;
     publish config.port_file (Exporter.port exporter)
       "serve: listening on http://127.0.0.1:%d (/metrics /audit /healthz /datasets)\n%!";
     Option.iter
       (fun s ->
         publish config.server_port_file (Server.port s)
           "serve: tcp query front-end on 127.0.0.1:%d\n%!")
       t.server
   with e ->
     stop t;
     raise e);
  t

let handle_control t line =
  match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
  | [ "reload" ] -> (
    match Registry.reload_all ?pool:t.pool t.registry with
    | [] -> Printf.eprintf "serve: reload: no dataset has a recorded source\n%!"
    | results -> List.iter (fun (name, r) -> report_epoch name r) results)
  | [ "reload"; name ] -> report_epoch name (Registry.reload ?pool:t.pool t.registry name)
  | [ "reload"; name; path ] -> report_epoch name (Registry.load ?pool:t.pool t.registry name path)
  | _ -> Printf.eprintf "serve: bad control line %S (reload [NAME [PATH]])\n%!" line

let report t ~queries ~batches =
  let bundles = Registry.list t.registry in
  Printf.eprintf "serve: %d queries in %d batch(es), %d audit record(s) retained\n%!" queries
    batches
    (List.fold_left (fun acc b -> acc + Audit.size (Registry.audit b)) 0 bundles);
  let prefix name = if List.length bundles > 1 then name ^ " " else "" in
  List.iter
    (fun (name, s) -> Printf.eprintf "serve: %s%s\n%!" (prefix name) (Monitor.pp_stats s))
    (monitors t.registry);
  if Registry.alarm t.registry then
    Printf.eprintf "serve: reload alarm raised (a reload failed; old epochs kept serving)\n%!"
