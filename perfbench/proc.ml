(* The program under test, run as its own processes: one-shot
   [treelattice summarize] passes and long-lived [treelattice serve]
   servers.  Every child is reaped with wait4 so its peak RSS is known,
   and an at_exit hook kills whatever is still running, so an aborted
   benchmark leaves no process behind. *)

external wait4 : int -> int * int = "tlb_wait4"

let now () = Tl_util.Mono_clock.now_s ()

let live : int list ref = ref []

let forget pid = live := List.filter (fun p -> p <> pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (wait4 pid) with Failure _ -> ())
        !live;
      live := [])

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn ?stdin ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = dev_null () in
  let input = Option.value stdin ~default:null in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) input out out)
  in
  live := pid :: !live;
  pid

(* (exit code, peak RSS in MiB). *)
let reap pid =
  let code, maxrss_kib = wait4 pid in
  forget pid;
  (code, float_of_int maxrss_kib /. 1024.0)

let run_ok ~log prog args =
  let code, rss_mb = reap (spawn ~log prog args) in
  if code <> 0 then failwith (Printf.sprintf "%s %s exited %d (see %s)" prog (String.concat " " args) code log);
  rss_mb

(* --- summarize ------------------------------------------------------------- *)

(* One build pass: [treelattice summarize -k 4] over every document, one
   process each.  Returns the wall time of the whole pass and the largest
   peak RSS among its processes. *)
let summarize_pass ~prog ~log docs =
  let t0 = now () in
  let rss =
    List.fold_left
      (fun acc (xml, summary) ->
        Float.max acc (run_ok ~log prog [ "summarize"; "--xml"; xml; "-k"; "4"; "-o"; summary ]))
      0.0 docs
  in
  (now () -. t0, rss)

(* --- serve ----------------------------------------------------------------- *)

type server = {
  pid : int;
  ctl : out_channel;  (** the server's stdin: reload control lines *)
  port : int;  (** TCP query port *)
  http_port : int;  (** /metrics endpoint *)
  setup_s : float;  (** launch until the TCP port file is written *)
}

let read_port path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | s when String.length s > 0 && s.[String.length s - 1] = '\n' ->
    int_of_string_opt (String.trim s)
  | _ -> None

(* [datasets] are (NAME, PATH) pairs; a PATH ending in .xml is parsed and
   mined at startup, anything else is loaded as a summary file.  The
   scheme and lattice depth are pinned so the bench's oracle agrees. *)
let start_server ~prog ~work ~log datasets =
  let port_file = Filename.concat work "server.port" in
  let http_file = Filename.concat work "http.port" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ port_file; http_file ];
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [ "serve"; "-k"; "4"; "--scheme"; "voting"; "--listen"; "0"; "--server-port-file"; port_file;
      "--port-file"; http_file ]
    @ List.concat_map (fun (name, path) -> [ "--dataset"; name ^ "=" ^ path ]) datasets
  in
  let t0 = now () in
  let pid = spawn ~stdin:rd ~log prog args in
  Unix.close rd;
  let ctl = Unix.out_channel_of_descr wr in
  let rec wait_port () =
    match read_port port_file with
    | Some port -> (port, now () -. t0)
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        forget pid;
        failwith (Printf.sprintf "treelattice serve exited during startup (see %s)" log));
      if now () -. t0 > 120.0 then failwith "treelattice serve did not start within 120 s";
      Unix.sleepf 0.001;
      wait_port ()
  in
  let port, setup_s = wait_port () in
  let rec http () =
    match read_port http_file with Some p -> p | None -> Unix.sleepf 0.001; http ()
  in
  { pid; ctl; port; http_port = http (); setup_s }

let send_control s line =
  output_string s.ctl line;
  output_char s.ctl '\n';
  flush s.ctl

(* A child that has exited but is not yet reaped shows state Z. *)
let exited pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> true
  | st -> (
    match String.rindex_opt st ')' with
    | Some i when i + 2 < String.length st -> st.[i + 2] = 'Z'
    | _ -> false)

(* Closing stdin ends the serve loop, which drains the TCP front-end and
   exits; SIGTERM, then SIGKILL, only if it has not gone within 30 s.  The
   reap goes through wait4 so the peak RSS is collected. *)
let stop_server s =
  (try close_out s.ctl with Sys_error _ -> ());
  let deadline = now () +. 30.0 in
  let rec settle signals =
    if not (exited s.pid) then
      if now () < deadline then begin
        Unix.sleepf 0.005;
        settle signals
      end
      else
        match signals with
        | signal :: rest ->
          (try Unix.kill s.pid signal with Unix.Unix_error _ -> ());
          Unix.sleepf 1.0;
          settle rest
        | [] -> ()
  in
  settle [ Sys.sigterm; Sys.sigkill ];
  reap s.pid

(* --- /metrics scrape ------------------------------------------------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ();
      Buffer.contents buf)

(* Prometheus text samples, by full series name (labels included). *)
let scrape s =
  let body = http_get s.http_port "/metrics" in
  let table = Hashtbl.create 256 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> Hashtbl.replace table (String.sub line 0 i) v
          | None -> ())
        | None -> ())
    (String.split_on_char '\n' body);
  table

let sample table name = Option.value (Hashtbl.find_opt table name) ~default:0.0
