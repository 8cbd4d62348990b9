(* Tests for the serve composition: the /healthz, /audit, /datasets and
   /metrics routes, control-line reloads, port files, and an idempotent
   stop that drains the TCP front-end and writes the audit log. *)

module Estimator = Tl_core.Estimator
module Registry = Tl_serve.Registry
module Monitor = Tl_serve.Monitor
module Protocol = Tl_serve.Protocol
module Service = Tl_serve.Service
module Exporter = Tl_obs.Exporter
module Metrics = Tl_obs.Metrics

let contains ~needle hay = Tl_util.Prelude.string_contains ~needle hay

(* The Fig. 11-style document: three b's with four c's, one b with a c
   and four d's. *)
let fig11_xml =
  "<a>"
  ^ String.concat "" (List.init 3 (fun _ -> "<b><c/><c/><c/><c/></b>"))
  ^ "<b><c/><d/><d/><d/><d/></b></a>"

let temp_file ?(contents = "") suffix =
  let path = Filename.temp_file "tl_service" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let config ?(sample_rate = 0.0) ?port_file ?audit_out ?listen ?server_port_file datasets =
  {
    Service.xml = None;
    datasets;
    k = 3;
    scheme = Estimator.Recursive_voting;
    sample_rate;
    drift_threshold = 1.0;
    drift_xml = None;
    port = 0;
    port_file;
    audit_out;
    listen;
    server_port_file;
    server_workers = 2;
    server_queue = 8;
    json = false;
  }

let load_tree = Tl_tree.Tree_load.of_file

(* Run [f] with fd 2 redirected to a file; return its result and what it
   wrote to stderr. *)
let capture_stderr f =
  let path = temp_file ".err" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let result =
    Fun.protect f ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
  in
  let text = read_file path in
  Sys.remove path;
  (result, text)

let with_service ?pool config f =
  let svc = Service.start ?pool ~load_tree config in
  Fun.protect ~finally:(fun () -> Service.stop svc) (fun () -> f svc)

let with_xml f =
  let xml = temp_file ~contents:fig11_xml ".xml" in
  Fun.protect ~finally:(fun () -> Sys.remove xml) (fun () -> f xml)

let route svc path =
  match List.assoc_opt path (Service.routes svc) with
  | Some f -> f ()
  | None -> Alcotest.failf "no route %s" path

let bundle svc name =
  match Registry.find (Service.registry svc) name with
  | Some b -> b
  | None -> Alcotest.failf "no dataset %s" name

(* A strict reader for the flat JSON objects the audit renders: string
   keys; string, number, true, false or null values.  Returns the string
   fields, decoded; fails the test on anything else. *)
let flat_json_object line =
  let n = String.length line and i = ref 0 in
  let fail () = Alcotest.failf "invalid JSON at offset %d: %s" !i line in
  let peek () = if !i < n then line.[!i] else fail () in
  let expect c = if peek () = c then incr i else fail () in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr i
      | '\\' ->
        incr i;
        (match peek () with
        | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | _ -> fail ());
        incr i;
        go ()
      | c when Char.code c < 0x20 -> fail ()
      | c ->
        Buffer.add_char buf c;
        incr i;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let scalar () =
    let start = !i in
    while !i < n && not (String.contains ",}" line.[!i]) do
      incr i
    done;
    let token = String.sub line start (!i - start) in
    let numeric = token <> "" && String.for_all (fun c -> String.contains "0123456789+-.eE" c) token in
    if not (numeric || List.mem token [ "true"; "false"; "null" ]) then fail ()
  in
  let fields = ref [] in
  let rec members () =
    let key = string () in
    expect ':';
    if peek () = '"' then fields := (key, string ()) :: !fields else scalar ();
    match peek () with
    | ',' ->
      incr i;
      members ()
    | '}' -> incr i
    | _ -> fail ()
  in
  expect '{';
  members ();
  if !i <> n then fail ();
  List.rev !fields

let lines text = List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

(* --- /healthz ------------------------------------------------------------- *)

let test_healthz_any_dataset () =
  with_xml @@ fun xml ->
  (* Sampling off: no monitor anywhere, and the route says so. *)
  (with_service (config [ ("one", xml); ("two", xml) ]) @@ fun svc ->
   let r = route svc "/healthz" in
   Alcotest.(check int) "200 with monitoring off" 200 r.Exporter.status;
   Alcotest.(check string) "monitor off" "ok\ndrift monitor off (enable with --sample-rate)\n"
     r.Exporter.body);
  with_service (config ~sample_rate:1.0 [ ("one", xml); ("two", xml) ]) @@ fun svc ->
  Alcotest.(check int) "healthy at start" 200 (route svc "/healthz").Exporter.status;
  (* Drift on the second dataset only: the first stays healthy, and the
     endpoint still turns 503. *)
  let monitor name = Option.get (Registry.monitor (bundle svc name)) in
  for _ = 1 to 32 do
    ignore (Monitor.observe (monitor "two") ~exact:1.0 ~estimate:100.0)
  done;
  Alcotest.(check bool) "first dataset healthy" false (Monitor.alarm (monitor "one"));
  Alcotest.(check bool) "second dataset alarmed" true (Monitor.alarm (monitor "two"));
  let r = route svc "/healthz" in
  Alcotest.(check int) "503 on the second dataset's alarm" 503 r.Exporter.status;
  (match lines r.Exporter.body with
  | [ "drift"; one; two ] ->
    Alcotest.(check bool) "one listed" true (String.starts_with ~prefix:"one: " one);
    Alcotest.(check bool) "two listed" true (String.starts_with ~prefix:"two: " two)
  | _ -> Alcotest.failf "unexpected /healthz body %S" r.Exporter.body);
  Alcotest.(check bool) "/datasets shows the alarm on two, the last dataset" true
    (contains ~needle:{|"alarm": true}]}|} (route svc "/datasets").Exporter.body)

(* --- /audit --------------------------------------------------------------- *)

let test_audit_tags_datasets () =
  with_xml @@ fun xml ->
  let quoted = {|a"b|} in
  with_service (config [ ("main", xml); (quoted, xml) ]) @@ fun svc ->
  let answers =
    Protocol.answer (Service.registry svc) [| "a(b(c))"; quoted ^ ":a(b(d))"; "b(c,d)" |]
  in
  Array.iter
    (function Protocol.Estimate _ -> () | Protocol.Failed msg -> Alcotest.fail msg)
    answers;
  let records = lines (route svc "/audit").Exporter.body in
  Alcotest.(check int) "one record per query" 3 (List.length records);
  let datasets =
    List.map
      (fun line ->
        match flat_json_object line with
        | ("dataset", d) :: _ -> d
        | _ -> Alcotest.failf "record does not lead with its dataset: %s" line)
      records
  in
  Alcotest.(check (list string)) "each record tagged, datasets in order" [ "main"; "main"; quoted ]
    datasets

(* --- control lines -------------------------------------------------------- *)

let test_reload_control () =
  with_xml @@ fun xml ->
  let corrupt = temp_file ~contents:"not a summary\n" ".summary" in
  Fun.protect ~finally:(fun () -> Sys.remove corrupt) @@ fun () ->
  with_service (config [ ("main", xml) ]) @@ fun svc ->
  let registry = Service.registry svc in
  let before = Registry.epoch (bundle svc "main") in
  let (), err = capture_stderr (fun () -> Service.handle_control svc ("reload main " ^ corrupt)) in
  Alcotest.(check bool)
    (Printf.sprintf "failure reported (%S)" err)
    true
    (String.starts_with ~prefix:"serve: reload main failed: " err
    && contains ~needle:"(previous epoch keeps serving)\n" err);
  Alcotest.(check int) "old epoch still current" before (Registry.epoch (bundle svc "main"));
  Alcotest.(check bool) "reload alarm latched" true (Registry.alarm registry);
  (match Protocol.answer registry [| "a(b(c))" |] with
  | [| Protocol.Estimate (e, served) |] ->
    Alcotest.(check int) "answered from the old epoch" before served.Protocol.epoch;
    Alcotest.(check (float 1e-9)) "a(b(c)) is stored: 13 matches" 13.0 e
  | _ -> Alcotest.fail "the old epoch must keep answering");
  (* A reload from the recorded source succeeds at a bumped epoch, and a
     bad control line is diagnosed without touching anything. *)
  let (), err = capture_stderr (fun () -> Service.handle_control svc "reload main") in
  let after = Registry.epoch (bundle svc "main") in
  Alcotest.(check bool) "epoch bumped" true (after > before);
  Alcotest.(check bool)
    (Printf.sprintf "reload reported (%S)" err)
    true
    (String.starts_with ~prefix:(Printf.sprintf "serve: reloaded main -> epoch %d (" after) err);
  let (), err = capture_stderr (fun () -> Service.handle_control svc "reload a b c") in
  Alcotest.(check string) "bad control line"
    "serve: bad control line \"reload a b c\" (reload [NAME [PATH]])\n" err

let test_failed_install_raises () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "tl_service_missing.xml" in
  let result, err =
    capture_stderr (fun () ->
        match Service.start ~load_tree (config [ ("bad", missing) ]) with
        | svc ->
          Service.stop svc;
          false
        | exception Failure _ -> true)
  in
  Alcotest.(check bool) "start raises Failure" true result;
  Alcotest.(check bool)
    (Printf.sprintf "failure reported (%S)" err)
    true
    (String.starts_with ~prefix:"serve: dataset bad failed to load: " err)

(* --- stop ----------------------------------------------------------------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let read_port path = int_of_string (String.trim (read_file path))

let test_stop_drains_and_writes_audit () =
  with_xml @@ fun xml ->
  let audit_out = temp_file ".jsonl" and port_file = temp_file ".port" in
  let server_port_file = temp_file ".port" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ audit_out; port_file; server_port_file ])
  @@ fun () ->
  let svc =
    Service.start ~load_tree
      (config ~audit_out ~port_file ~listen:0 ~server_port_file [ ("main", xml) ])
  in
  let http = read_port port_file and tcp = read_port server_port_file in
  Alcotest.(check bool) "port files written" true (http > 0 && tcp > 0);
  let answered = connect tcp in
  send answered "a(b(c))\n\n";
  let ic = Unix.in_channel_of_descr answered in
  Alcotest.(check bool) "TCP answer" true (contains ~needle:"\tmain\t" (input_line ic));
  (* A batch left pending: stop must answer it before returning. *)
  let pending = connect tcp in
  send pending "b(c,d)\n";
  Thread.delay 0.2;
  let (), err = capture_stderr (fun () -> Service.stop svc) in
  let drained = In_channel.input_all (Unix.in_channel_of_descr pending) in
  Alcotest.(check bool)
    (Printf.sprintf "pending batch answered on drain (%S)" drained)
    true
    (contains ~needle:"\tmain\t" drained);
  Alcotest.(check bool)
    (Printf.sprintf "drain reported (%S)" err)
    true
    (contains
       ~needle:"serve: tcp front-end drained (2 connection(s), 2 query(ies), 2 batch(es), 0 shed)\n"
       err);
  let records = lines (read_file audit_out) in
  Alcotest.(check bool)
    (Printf.sprintf "audit count reported (%S)" err)
    true
    (contains
       ~needle:(Printf.sprintf "serve: wrote %d audit record(s) to %s\n" (List.length records) audit_out)
       err);
  Alcotest.(check int) "one audit record per query" 2 (List.length records);
  List.iter
    (fun line ->
      match flat_json_object line with
      | ("dataset", "main") :: _ -> ()
      | _ -> Alcotest.failf "audit-out record not tagged: %s" line)
    records;
  (match connect http with
  | fd ->
    Unix.close fd;
    Alcotest.fail "the endpoint must be closed after stop"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  (* A second stop is a no-op: no output, no second audit write. *)
  Sys.remove audit_out;
  let (), err = capture_stderr (fun () -> Service.stop svc) in
  Alcotest.(check string) "second stop is silent" "" err;
  Alcotest.(check bool) "second stop writes nothing" false (Sys.file_exists audit_out);
  Unix.close answered;
  Unix.close pending

(* The caller holds the service before any port file names it, so a
   SIGTERM handler that stops it there drains the TCP front-end and writes
   the audit log.  [ready] raises afterwards, as the handler's exit would
   end the process, and [start] stops the service again (a no-op). *)
let test_ready_before_port_files () =
  with_xml @@ fun xml ->
  let audit_out = temp_file ".jsonl" and port_file = temp_file ".port" in
  let server_port_file = temp_file ".port" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ audit_out; port_file; server_port_file ])
  @@ fun () ->
  Sys.remove audit_out;
  let port_files = ref "unset" and stop_err = ref "" in
  let ready svc =
    port_files := read_file port_file ^ read_file server_port_file;
    stop_err := snd (capture_stderr (fun () -> Service.stop svc));
    raise Exit
  in
  let (), start_err =
    capture_stderr (fun () ->
        match
          Service.start ~ready ~load_tree
            (config ~audit_out ~port_file ~listen:0 ~server_port_file [ ("main", xml) ])
        with
        | _ -> Alcotest.fail "start returned although ready raised"
        | exception Exit -> ())
  in
  Alcotest.(check string) "port files empty when the service reaches the caller" "" !port_files;
  Alcotest.(check bool)
    (Printf.sprintf "stop drained the TCP front-end (%S)" !stop_err)
    true
    (contains
       ~needle:"serve: tcp front-end drained (0 connection(s), 0 query(ies), 0 batch(es), 0 shed)\n"
       !stop_err);
  Alcotest.(check bool) "stop wrote the audit log" true (Sys.file_exists audit_out);
  Alcotest.(check bool)
    (Printf.sprintf "nothing announced (%S)" start_err)
    false
    (contains ~needle:"listening on" start_err);
  Alcotest.(check string) "port files still empty" "" (read_file port_file ^ read_file server_port_file)

(* --- /metrics ---------------------------------------------------------------- *)

let http_get port path =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
  In_channel.input_all (Unix.in_channel_of_descr fd)

(* The value of one exposition line [series value], or [None]. *)
let sample prom series =
  List.find_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i when String.sub line 0 i = series ->
        int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> None)
    (String.split_on_char '\n' prom)

(* What the endpoint's default /metrics route serves. *)
let scrape () = Metrics.to_prometheus (Metrics.snapshot ())

let check_sample prom series expected =
  Alcotest.(check (option int)) series (Some expected) (sample prom series)

(* Each monitor's drift series carry its dataset: raising one dataset's
   alarm and reloading the other leaves the raised alarm on /metrics, in
   agreement with /healthz. *)
let test_drift_series_per_dataset () =
  with_xml @@ fun xml ->
  Metrics.reset ();
  with_service (config ~sample_rate:1.0 [ ("one", xml); ("two", xml) ]) @@ fun svc ->
  let monitor name = Option.get (Registry.monitor (bundle svc name)) in
  for _ = 1 to 32 do
    ignore (Monitor.observe (monitor "one") ~exact:1.0 ~estimate:100.0)
  done;
  let (), _ = capture_stderr (fun () -> Service.handle_control svc "reload two") in
  let prom = scrape () in
  check_sample prom {|tl_drift_alarm{dataset="one"}|} 1;
  check_sample prom {|tl_drift_alarm{dataset="two"}|} 0;
  check_sample prom {|tl_drift_samples{dataset="one"}|} 32;
  check_sample prom {|tl_drift_alarm_transitions{dataset="one"}|} 1;
  Alcotest.(check int) "/healthz agrees: drift" 503 (route svc "/healthz").Exporter.status;
  (* A reload of the alarmed dataset starts its window over, on both
     surfaces. *)
  let (), _ = capture_stderr (fun () -> Service.handle_control svc "reload one") in
  check_sample (scrape ()) {|tl_drift_alarm{dataset="one"}|} 0;
  Alcotest.(check int) "/healthz agrees: ok" 200 (route svc "/healthz").Exporter.status

(* Four TCP clients over two datasets while another thread scrapes
   /metrics in a loop: every query lands in the server and per-dataset
   counters, each epoch gauge reads its bundle's epoch, and a reload
   control line bumps the reload counter. *)
let test_metrics_under_load () =
  with_xml @@ fun xml ->
  let port_file = temp_file ".port" and server_port_file = temp_file ".port" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ port_file; server_port_file ]) @@ fun () ->
  Metrics.reset ();
  with_service (config ~port_file ~listen:0 ~server_port_file [ ("main", xml); ("alt", xml) ])
  @@ fun svc ->
  let http = read_port port_file and tcp = read_port server_port_file in
  let clients = 4 and batches = 25 in
  let batch = [ "a(b(c))"; "alt:b(c,d)"; "b(c)"; "alt:a(b)" ] in
  let answered = Atomic.make 0 in
  let client () =
    let fd = connect tcp in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let ic = Unix.in_channel_of_descr fd in
    for _ = 1 to batches do
      send fd (String.concat "\n" batch ^ "\n\n");
      let rec read () =
        if input_line ic <> "" then begin
          Atomic.incr answered;
          read ()
        end
      in
      read ()
    done
  in
  let stop = Atomic.make false and scrapes = Atomic.make 0 and bad = Atomic.make 0 in
  let scraper () =
    while not (Atomic.get stop) do
      let r = http_get http "/metrics" in
      if not (String.starts_with ~prefix:"HTTP/1.0 200" r && contains ~needle:"tl_server_queries " r)
      then Atomic.incr bad;
      Atomic.incr scrapes
    done
  in
  let scraping = Thread.create scraper () in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  Atomic.set stop true;
  Thread.join scraping;
  let sent = clients * batches * List.length batch in
  Alcotest.(check int) "every line answered" sent (Atomic.get answered);
  Alcotest.(check bool) "scraped during the load" true (Atomic.get scrapes > 0);
  Alcotest.(check int) "every scrape whole" 0 (Atomic.get bad);
  let prom = http_get http "/metrics" in
  check_sample prom "tl_server_queries" sent;
  let main = sample prom {|tl_serve_queries{dataset="main"}|} in
  let alt = sample prom {|tl_serve_queries{dataset="alt"}|} in
  Alcotest.(check (option int)) "per-dataset queries sum to the server's" (Some sent)
    (match (main, alt) with Some m, Some a -> Some (m + a) | _ -> None);
  Alcotest.(check (option int)) "alt's share" (Some (sent / 2)) alt;
  List.iter
    (fun name ->
      check_sample prom
        (Printf.sprintf {|tl_registry_epoch{dataset="%s"}|} name)
        (Registry.epoch (bundle svc name)))
    [ "main"; "alt" ];
  let reloads = Option.value ~default:0 (sample prom "tl_registry_reloads_total") in
  let (), _ = capture_stderr (fun () -> Service.handle_control svc "reload main") in
  let prom = http_get http "/metrics" in
  check_sample prom "tl_registry_reloads_total" (reloads + 1);
  check_sample prom {|tl_registry_epoch{dataset="main"}|} (Registry.epoch (bundle svc "main"))

let () =
  Alcotest.run "service"
    [
      ( "routes",
        [
          Alcotest.test_case "/healthz turns 503 on any dataset's drift" `Quick
            test_healthz_any_dataset;
          Alcotest.test_case "/audit tags each record, valid JSON for any name" `Quick
            test_audit_tags_datasets;
        ] );
      ( "control",
        [
          Alcotest.test_case "reload keeps the old epoch on failure" `Quick test_reload_control;
          Alcotest.test_case "a failed startup install raises" `Quick test_failed_install_raises;
        ] );
      ( "stop",
        [
          Alcotest.test_case "stop drains, writes the audit log, is idempotent" `Quick
            test_stop_drains_and_writes_audit;
          Alcotest.test_case "the caller holds the service before any port file" `Quick
            test_ready_before_port_files;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "drift series are per dataset" `Quick test_drift_series_per_dataset;
          Alcotest.test_case "/metrics scraped under a four-client load" `Quick
            test_metrics_under_load;
        ] );
    ]
