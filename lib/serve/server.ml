(* The TCP query front-end.

   One acceptor thread, a bounded queue of accepted connections, and a
   fixed set of worker threads draining it.  Threads here are system
   threads, not domains: a connection spends its life blocked on socket
   I/O, which releases the runtime lock, so a small thread pool overlaps
   many slow clients while CPU-parallel evaluation stays where it already
   lives — the domain pool passed to [Registry.batch], whose maps
   serialize internally and are therefore safe to issue from any of these
   workers concurrently with the CLI's own stdin loop.

   Robustness is admission-shaped rather than buffer-shaped: when the
   queue is full the acceptor answers [busy] and closes instead of
   queueing without bound, so memory under overload is
   [workers + queue_capacity] connections, a constant chosen at startup.
   Slow clients are bounded twice — per-socket read/write timeouts (the
   [Exporter] EINTR/EAGAIN discipline) and a per-batch deadline that cuts
   a connection trickling one batch forever. *)

module Metrics = Tl_obs.Metrics
module Clock = Tl_util.Mono_clock
module Exporter = Tl_obs.Exporter
module Estimator = Tl_core.Estimator

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  socket_timeout : float;
  batch_deadline : float;
  json : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue_capacity = 64;
    socket_timeout = 5.0;
    batch_deadline = 30.0;
    json = false;
  }

type t = {
  config : config;
  registry : Registry.t;
  pool : Tl_util.Pool.t option;
  default_name : string option;
  sock : Unix.file_descr;
  bound_port : int;
  (* Admission queue.  [active] is one slot per worker holding the fd it
     is currently serving; [stop] half-closes those so in-flight batches
     finish and respond instead of being cut mid-write.  Both structures
     are guarded by [qmutex]. *)
  qmutex : Mutex.t;
  qcond : Condition.t;
  queue : Unix.file_descr Queue.t;
  active : Unix.file_descr option array;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  n_connections : int Atomic.t;
  n_queries : int Atomic.t;
  n_batches : int Atomic.t;
  n_shed : int Atomic.t;
  n_active : int Atomic.t;
  mutable acceptor : Thread.t option;
  mutable worker_threads : Thread.t list;
}

type stats = { connections : int; queries : int; batches : int; shed : int }

let stats t =
  {
    connections = Atomic.get t.n_connections;
    queries = Atomic.get t.n_queries;
    batches = Atomic.get t.n_batches;
    shed = Atomic.get t.n_shed;
  }

let port t = t.bound_port

(* --- responses ------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [Printf.sprintf "%.17g"] without the format interpreter: the same
   runtime primitive, so the text is byte-identical. *)
external format_float : string -> float -> string = "caml_format_float"

let render_error ~json buf msg =
  if json then Buffer.add_string buf (Printf.sprintf "{\"error\":\"%s\"}\n" (json_escape msg))
  else Buffer.add_string buf (Printf.sprintf "error\t%s\n" msg)

let busy_line json = if json then "{\"busy\":true}\n" else "busy\toverloaded, retry later\n"

(* --- batch evaluation ------------------------------------------------------ *)

let default_name t =
  match t.default_name with
  | Some n -> Some n
  | None -> Option.map Registry.name (Registry.default t.registry)

(* Same routing rule as the stdin loop: a 'NAME:' prefix that names a
   registered dataset routes there; everything else — including prefixes
   that name nothing — is a bare query for the default dataset. *)
let route t line =
  match String.index_opt line ':' with
  | Some i when i > 0 && Option.is_some (Registry.find t.registry (String.sub line 0 i)) ->
    (Some (String.sub line 0 i), String.trim (String.sub line (i + 1) (String.length line - i - 1)))
  | _ -> (default_name t, line)

(* The bundle a routed group was served from, with its text-mode answer
   suffix formatted once per group rather than once per line. *)
type served = { epoch : int; dataset : string; scheme : string; suffix : string }

let served ~epoch ~dataset ~scheme =
  { epoch; dataset; scheme; suffix = Printf.sprintf "\t%d\t%s\t%s\n" epoch dataset scheme }

(* One answered query line.  The estimate prints as %.17g so a client
   reading it back gets the bit-exact float the engine computed; a text
   answer is that estimate followed by its group's suffix. *)
let render_ok ~json buf estimate s =
  if json then
    Buffer.add_string buf
      (Printf.sprintf "{\"estimate\":%.17g,\"epoch\":%d,\"dataset\":\"%s\",\"scheme\":\"%s\"}\n"
         estimate s.epoch (json_escape s.dataset) (json_escape s.scheme))
  else begin
    Buffer.add_string buf (format_float "%.17g" estimate);
    Buffer.add_string buf s.suffix
  end

type answer = Estimate of float * served | Failed of string

(* Serve one flushed batch: group lines by routed dataset, pin each
   group's bundle for the whole flush (a concurrent reload lands between
   flushes, never inside one — every response line carries the epoch it
   was actually served from), evaluate each group through the full
   serving stack, and render answers back in input order. *)
let serve_batch t lines =
  let t0 = Clock.now_ns () in
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let groups : (string, (int * string) list ref) Hashtbl.t = Hashtbl.create 4 in
  let group_order = ref [] in
  let answers = Array.make n (Failed "internal: unanswered line") in
  Array.iteri
    (fun idx line ->
      match route t line with
      | None, _ -> answers.(idx) <- Failed "no dataset installed"
      | Some ds, query -> (
        match Hashtbl.find_opt groups ds with
        | Some cell -> cell := (idx, query) :: !cell
        | None ->
          Hashtbl.replace groups ds (ref [ (idx, query) ]);
          group_order := ds :: !group_order))
    lines;
  List.iter
    (fun ds ->
      let members = List.rev !(Hashtbl.find groups ds) in
      match Registry.find t.registry ds with
      | None -> List.iter (fun (idx, _) -> answers.(idx) <- Failed ("unknown dataset " ^ ds)) members
      | Some bundle ->
        let epoch = Registry.epoch bundle in
        let scheme = Estimator.scheme_name (Engine.scheme (Registry.engine bundle)) in
        let served = served ~epoch ~dataset:ds ~scheme in
        let parsed =
          Array.of_list
            (List.filter_map
               (fun (idx, query) ->
                 match Registry.parse_query bundle query with
                 | Ok p -> Some (idx, p)
                 | Error msg ->
                   answers.(idx) <- Failed msg;
                   None)
               members)
        in
        if Array.length parsed > 0 then begin
          let estimates =
            Registry.batch ?pool:t.pool bundle (Array.map (fun (_, (twig, _)) -> twig) parsed)
          in
          Array.iteri
            (fun i (idx, (_, transform)) ->
              answers.(idx) <- Estimate (transform estimates.(i), served))
            parsed
        end)
    (List.rev !group_order);
  let json = t.config.json in
  let buf = Buffer.create (64 * (n + 1)) in
  Array.iter
    (function
      | Estimate (estimate, s) -> render_ok ~json buf estimate s
      | Failed msg -> render_error ~json buf msg)
    answers;
  Buffer.add_char buf '\n';
  ignore (Atomic.fetch_and_add t.n_queries n);
  Metrics.add "server.queries" n;
  ignore (Atomic.fetch_and_add t.n_batches 1);
  Metrics.incr "server.batches";
  Metrics.observe "server.request_ns" (Clock.elapsed_ns ~since:t0);
  Buffer.contents buf

(* --- connection handling --------------------------------------------------- *)

type read_result = Line of string | Eof | Abort | Deadline

(* One growable receive buffer per connection.  Bytes [pos, len) are
   received but not yet framed, and [pos, scanned) of them are known to
   hold no newline, so each byte is searched once and a line is copied
   once, however long the buffered tail. *)
type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable scanned : int;
  mutable len : int;
}

let read_size = 4096

let rec index_newline buf i stop =
  if i >= stop then -1 else if Bytes.get buf i = '\n' then i else index_newline buf (i + 1) stop

(* Cut [pos, stop) as a line and consume through [next]. *)
let take_line conn ~stop ~next =
  let line = Bytes.sub_string conn.buf conn.pos (stop - conn.pos) in
  conn.pos <- next;
  conn.scanned <- next;
  Line (String.trim line)

let initial_size = 2 * read_size

(* Make room for one read: move the unframed tail to the front (once per
   read, not per line), double the buffer while a long line leaves less
   than [read_size] free, and give the memory back once such a line has
   been framed and the tail is short again. *)
let compact conn =
  let live = conn.len - conn.pos in
  let size =
    if Bytes.length conn.buf - live < read_size then 2 * Bytes.length conn.buf
    else if Bytes.length conn.buf > 4 * read_size && live < read_size then initial_size
    else Bytes.length conn.buf
  in
  if size <> Bytes.length conn.buf then begin
    let fresh = Bytes.create size in
    Bytes.blit conn.buf conn.pos fresh 0 live;
    conn.buf <- fresh
  end
  else if conn.pos > 0 then Bytes.blit conn.buf conn.pos conn.buf 0 live;
  conn.scanned <- conn.scanned - conn.pos;
  conn.pos <- 0;
  conn.len <- live

let deadline_exceeded t = function
  | None -> false
  | Some start -> Clock.elapsed_ns ~since:start > int_of_float (t.config.batch_deadline *. 1e9)

(* One line, bounded.  [EAGAIN] here means the receive timeout expired
   with no bytes: an idle client between batches is fine and keeps
   waiting, but one inside a batch is checked against the batch deadline,
   and a draining server treats the lull as end of input so the pending
   batch can be answered and the connection closed. *)
let rec next_line t conn ~batch_start =
  if deadline_exceeded t batch_start then Deadline
  else
    match index_newline conn.buf conn.scanned conn.len with
    | i when i >= 0 -> take_line conn ~stop:i ~next:(i + 1)
    | _ -> (
      conn.scanned <- conn.len;
      compact conn;
      match Unix.read conn.fd conn.buf conn.len (Bytes.length conn.buf - conn.len) with
      | 0 ->
        (* Final line without a trailing newline still counts. *)
        if conn.pos = conn.len then Eof else take_line conn ~stop:conn.len ~next:conn.len
      | n ->
        conn.len <- conn.len + n;
        next_line t conn ~batch_start
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_line t conn ~batch_start
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if Atomic.get t.stopping then Eof else next_line t conn ~batch_start
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Abort
      | exception Unix.Unix_error _ -> Abort)

let serve_conn t fd =
  let conn = { fd; buf = Bytes.create initial_size; pos = 0; scanned = 0; len = 0 } in
  let pending = ref [] in
  let batch_start = ref None in
  let flush_pending () =
    if !pending <> [] then begin
      let payload = serve_batch t (List.rev !pending) in
      pending := [];
      batch_start := None;
      Exporter.write_all fd payload
    end
    else begin
      batch_start := None;
      (* An empty flush still acknowledges: one blank line. *)
      Exporter.write_all fd "\n"
    end
  in
  let rec go () =
    match next_line t conn ~batch_start:!batch_start with
    | Line "" ->
      flush_pending ();
      go ()
    | Line line when line.[0] = '#' -> go ()
    | Line line ->
      if !pending = [] then batch_start := Some (Clock.now_ns ());
      pending := line :: !pending;
      go ()
    | Eof -> if !pending <> [] then flush_pending ()
    | Deadline ->
      let buf = Buffer.create 64 in
      render_error ~json:t.config.json buf
        (Printf.sprintf "batch deadline (%.1fs) exceeded" t.config.batch_deadline);
      Buffer.add_char buf '\n';
      Exporter.write_all fd (Buffer.contents buf)
    | Abort -> ()
  in
  (* [Exit] is [write_all] giving up on a gone or stalled client — the
     connection is dropped, the server is unaffected. *)
  try go () with Exit -> ()

(* --- threads --------------------------------------------------------------- *)

let set_queue_gauge t = Metrics.set_gauge "server.queue_depth" (Queue.length t.queue)

let close_quietly fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Shed one connection: best-effort busy line (a short send timeout so a
   full socket buffer cannot stall admission), then close. *)
let shed t fd =
  ignore (Atomic.fetch_and_add t.n_shed 1);
  Metrics.incr "server.shed_total";
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.2 with Unix.Unix_error _ -> ());
  (try Exporter.write_all fd (busy_line t.config.json) with Exit | Unix.Unix_error _ -> ());
  close_quietly fd

let worker_loop t wid =
  let rec loop () =
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
      Condition.wait t.qcond t.qmutex
    done;
    match Queue.take_opt t.queue with
    | None ->
      (* Stopping and drained. *)
      Mutex.unlock t.qmutex
    | Some fd ->
      set_queue_gauge t;
      t.active.(wid) <- Some fd;
      Mutex.unlock t.qmutex;
      Metrics.set_gauge "server.active_connections" (1 + Atomic.fetch_and_add t.n_active 1);
      (try serve_conn t fd with Unix.Unix_error _ -> ());
      Metrics.set_gauge "server.active_connections" (Atomic.fetch_and_add t.n_active (-1) - 1);
      (* Clear the active slot and close under the lock so [stop] can
         never half-close an fd number the kernel has already reused. *)
      Mutex.lock t.qmutex;
      t.active.(wid) <- None;
      close_quietly fd;
      Mutex.unlock t.qmutex;
      loop ()
  in
  loop ()

let acceptor_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.accept ~cloexec:true t.sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> Atomic.set t.stopping true
    | fd, _ ->
      if Atomic.get t.stopping then close_quietly fd
      else begin
        ignore (Atomic.fetch_and_add t.n_connections 1);
        Metrics.incr "server.connections";
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.socket_timeout;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.socket_timeout
         with Unix.Unix_error _ -> ());
        Mutex.lock t.qmutex;
        if Queue.length t.queue >= t.config.queue_capacity then begin
          Mutex.unlock t.qmutex;
          shed t fd
        end
        else begin
          Queue.add fd t.queue;
          set_queue_gauge t;
          Condition.signal t.qcond;
          Mutex.unlock t.qmutex
        end
      end
  done

(* --- lifecycle ------------------------------------------------------------- *)

let describe_metrics =
  lazy
    (Metrics.describe "server.connections" "TCP connections accepted by the query front-end";
     Metrics.describe "server.queries" "Queries answered over TCP (including error answers)";
     Metrics.describe "server.batches" "Query batches flushed over TCP";
     Metrics.describe "server.shed_total" "Connections shed by admission control";
     Metrics.describe "server.queue_depth" "Accepted connections waiting for a worker";
     Metrics.describe "server.active_connections" "Connections currently being served";
     Metrics.describe "server.request_ns" "Per-batch evaluation latency (ns)";
     (* Materialize the counter surface at zero so a scrape taken before
        the first connection (or the first shed) still exports every
        series a dashboard or alert rule may reference. *)
     Metrics.add "server.connections" 0;
     Metrics.add "server.queries" 0;
     Metrics.add "server.batches" 0;
     Metrics.add "server.shed_total" 0;
     Metrics.set_gauge "server.queue_depth" 0;
     Metrics.set_gauge "server.active_connections" 0)

let start ?(config = default_config) ?pool ?default registry =
  Lazy.force Exporter.ignore_sigpipe;
  Lazy.force describe_metrics;
  let config =
    {
      config with
      workers = max 1 config.workers;
      queue_capacity = max 1 config.queue_capacity;
      socket_timeout = Float.max 0.01 config.socket_timeout;
      batch_deadline = Float.max 0.01 config.batch_deadline;
    }
  in
  let addr = Unix.inet_addr_of_string config.host in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (addr, config.port));
     Unix.listen sock (config.queue_capacity + config.workers)
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> config.port
  in
  let t =
    {
      config;
      registry;
      pool;
      default_name = default;
      sock;
      bound_port;
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      active = Array.make config.workers None;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      n_connections = Atomic.make 0;
      n_queries = Atomic.make 0;
      n_batches = Atomic.make 0;
      n_shed = Atomic.make 0;
      n_active = Atomic.make 0;
      acceptor = None;
      worker_threads = [];
    }
  in
  t.worker_threads <- List.init config.workers (fun wid -> Thread.create (worker_loop t) wid);
  t.acceptor <- Some (Thread.create acceptor_loop t);
  Metrics.set_gauge "server.port" bound_port;
  Tl_obs.Log.info (fun m -> m "server listening on %s:%d" config.host bound_port);
  t

(* A blocked [accept] is not reliably woken by closing its fd, so stop
   nudges the acceptor with a throwaway loopback connection (the same
   trick the exporter uses), then drains:

   1. queued-but-unstarted connections are busy-shed — they never got a
      worker, so [busy] is the honest answer;
   2. in-flight connections are half-closed on the receive side: the
      worker's next read sees end-of-input, flushes the pending batch on
      the bundle epoch it already pinned, writes the response, and exits.

   Only then are the threads joined, so stop returns with every accepted
   connection either answered or explicitly shed. *)
let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stopping true;
    (try
       let nudge = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect nudge (Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, t.bound_port))
        with Unix.Unix_error _ -> ());
       Unix.close nudge
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    t.acceptor <- None;
    let drained = ref [] in
    Mutex.lock t.qmutex;
    Queue.iter (fun fd -> drained := fd :: !drained) t.queue;
    Queue.clear t.queue;
    set_queue_gauge t;
    Array.iter
      (Option.iter (fun fd ->
           try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()))
      t.active;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qmutex;
    List.iter (fun fd -> shed t fd) !drained;
    List.iter Thread.join t.worker_threads;
    t.worker_threads <- [];
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
