(* A minimal blocking HTTP/1.0 exposition endpoint.

   One listening TCP socket on loopback, one background system thread
   accepting connections and serving registered GET routes.  This is a
   scrape target, not a web server: requests are read once (first line
   parsed, headers ignored), responses carry Content-Length and close the
   connection, and a slow or silent client is bounded by a receive
   timeout so it can stall at most one scrape, never the process.

   The threading stays confined to this module: nothing else in the
   library starts threads, and the serving hot paths never synchronize
   with the endpoint — a scrape reads the same deterministic
   [Metrics.snapshot] merge every offline consumer reads. *)

type response = { status : int; content_type : string; body : string }

let text ?(status = 200) body = { status; content_type = "text/plain; version=0.0.4"; body }

type t = {
  sock : Unix.file_descr;
  host : string;
  port : int;
  timeout : float;
  routes : (string * (unit -> response)) list;
  stopping : bool Atomic.t;
  mutable thread : Thread.t option;
}

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let default_metrics () = text (Metrics.to_prometheus (Metrics.snapshot ()))

(* The response writer must survive the transient errors a healthy but
   slow scraper produces — [EINTR] (a signal landed) and [EAGAIN]/
   [EWOULDBLOCK] (the send timeout expired while the client drained its
   window) — or the body silently truncates mid-scrape.  Only a client
   that is actually gone ([EPIPE]/[ECONNRESET]) or one that stalls for
   [max_stalls] consecutive timeout periods without accepting a single
   byte aborts the response (via [Exit], which the caller swallows). *)
let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  let max_stalls = 4 in
  let stalls = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n ->
      if n <= 0 then raise Exit;
      stalls := 0;
      off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      incr stalls;
      if !stalls >= max_stalls then raise Exit
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ETIMEDOUT), _, _) ->
      raise Exit
  done

(* Read until the end of the request line; headers past it are ignored.
   Bounded by the buffer cap and the socket receive timeout. *)
let read_request_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if Buffer.length buf < 8192 && not (String.contains (Buffer.contents buf) '\n') then begin
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      end
    end
  in
  (try go () with Unix.Unix_error _ | Exit -> ());
  match String.index_opt (Buffer.contents buf) '\n' with
  | None -> Buffer.contents buf
  | Some i -> String.trim (String.sub (Buffer.contents buf) 0 i)

let respond fd r =
  let head =
    Printf.sprintf "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      r.status (reason r.status) r.content_type (String.length r.body)
  in
  write_all fd head;
  write_all fd r.body

let handle t fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.timeout;
  let line = read_request_line fd in
  Metrics.incr "exporter.requests";
  let resp =
    match String.split_on_char ' ' line with
    | meth :: target :: _ when String.uppercase_ascii meth = "GET" ->
      let path =
        match String.index_opt target '?' with
        | None -> target
        | Some i -> String.sub target 0 i
      in
      (match List.assoc_opt path t.routes with
      | Some f -> (
        try f ()
        with e ->
          Metrics.incr "exporter.errors";
          { status = 500; content_type = "text/plain"; body = Printexc.to_string e ^ "\n" })
      | None -> { status = 404; content_type = "text/plain"; body = "not found\n" })
    | _ -> { status = 400; content_type = "text/plain"; body = "bad request\n" }
  in
  respond fd resp

let serve_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.accept t.sock with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
    | exception Unix.Unix_error _ -> Atomic.set t.stopping true
    | fd, _ ->
      (try handle t fd with Unix.Unix_error _ | Exit -> ());
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  done

let listen ~host ~port ~backlog =
  (* A client that disconnects mid-response must surface as an EPIPE
     error (which the accept loops already swallow), not as a
     process-killing SIGPIPE — the default signal disposition would let
     any impatient client take down the whole serving process. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock backlog
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  (sock, match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port)

(* A blocked [accept] is not reliably woken by closing its fd, so a stop
   nudges it with a throwaway loopback connection. *)
let wake ~host ~port =
  try
    let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
     with Unix.Unix_error _ -> ());
    Unix.close c
  with Unix.Unix_error _ -> ()

let start ?(host = "127.0.0.1") ?(port = 0) ?(timeout = 5.0) ?(routes = []) () =
  let sock, port = listen ~host ~port ~backlog:16 in
  let routes =
    if List.mem_assoc "/metrics" routes then routes else routes @ [ ("/metrics", default_metrics) ]
  in
  let t =
    { sock; host; port; timeout = Float.max 0.01 timeout; routes; stopping = Atomic.make false; thread = None }
  in
  t.thread <- Some (Thread.create serve_loop t);
  Metrics.set_gauge "exporter.port" port;
  Log.info (fun m -> m "exporter listening on http://%s:%d" host port);
  t

let port t = t.port

let stop t =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    wake ~host:t.host ~port:t.port;
    Option.iter Thread.join t.thread;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
