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
   [workers + queue_capacity] connections, a constant chosen at startup,
   each holding at most one bounded line.  Slow clients are bounded twice
   — per-socket read/write timeouts (the [Exporter] EINTR/EAGAIN
   discipline) and a batch deadline, counted from the last response, that
   cuts a connection trickling, idling or sending only comments.

   Routing, pinning and the answer format live in [Protocol]. *)

module Metrics = Tl_obs.Metrics
module Clock = Tl_util.Mono_clock
module Exporter = Tl_obs.Exporter

(* Process-wide series, shared by every server in the process. *)
let connections =
  Metrics.counter ~help:"TCP connections accepted by the query front-end" "server.connections"
let queries = Metrics.counter ~help:"Queries answered over TCP (including error answers)" "server.queries"
let batches = Metrics.counter ~help:"Query batches flushed over TCP" "server.batches"
let shed_total = Metrics.counter ~help:"Connections shed by admission control" "server.shed_total"
let deadline_cuts = Metrics.counter ~help:"Connections cut by the batch deadline" "server.deadline_cuts"
let queue_depth = Metrics.gauge ~help:"Accepted connections waiting for a worker" "server.queue_depth"
let active_connections =
  Metrics.gauge ~help:"Connections currently being served" "server.active_connections"
let port_gauge = Metrics.gauge ~help:"Port of the TCP query front-end" "server.port"
let request_ns = Metrics.histogram ~help:"Per-batch evaluation latency (ns)" "server.request_ns"

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

(* --- batch evaluation ------------------------------------------------------ *)

(* Serve one flushed batch through the shared protocol and render it. *)
let serve_batch t lines =
  let t0 = Clock.now_ns () in
  let answers = Protocol.answer ?pool:t.pool t.registry lines in
  let n = Array.length answers in
  let buf = Buffer.create (64 * (n + 1)) in
  Array.iter (Protocol.render ~json:t.config.json buf) answers;
  Buffer.add_char buf '\n';
  ignore (Atomic.fetch_and_add t.n_queries n);
  Metrics.add queries n;
  ignore (Atomic.fetch_and_add t.n_batches 1);
  Metrics.incr batches;
  Metrics.observe request_ns (Clock.elapsed_ns ~since:t0);
  Buffer.contents buf

(* --- connection handling --------------------------------------------------- *)

type read_result = Line of string | Eof | Abort | Cut of string

(* One growable receive buffer per connection.  Bytes [pos, len) are
   received but not yet framed, and [pos, scanned) of them are known to
   hold no newline, so each byte is searched once and a line is copied
   once, however long the buffered tail.  [clock] is when the worker
   took the connection or last wrote a response: the batch deadline runs
   from there, so idling, trickling and ['#']-only clients all meet it. *)
type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable scanned : int;
  mutable len : int;
  mutable clock : int;
}

let read_size = 4096

(* The longest line a connection may send; a longer one cuts it, so the
   receive buffer stays bounded however the client frames its bytes. *)
let max_line = 1 lsl 20

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

let deadline_exceeded t conn =
  Clock.elapsed_ns ~since:conn.clock > int_of_float (t.config.batch_deadline *. 1e9)

let too_long = Cut (Printf.sprintf "line longer than %d bytes" max_line)

(* One line, bounded.  [EAGAIN] here means the receive timeout expired
   with no bytes; every pass checks the batch deadline, so a client that
   sends nothing, or a line that never ends, is cut on time, and a
   draining server treats the lull as end of input so the pending batch
   can be answered and the connection closed. *)
let rec next_line t conn =
  if deadline_exceeded t conn then begin
    Metrics.incr deadline_cuts;
    Cut (Printf.sprintf "batch deadline (%.1fs) exceeded" t.config.batch_deadline)
  end
  else
    match index_newline conn.buf conn.scanned conn.len with
    | i when i - conn.pos > max_line -> too_long
    | i when i >= 0 -> take_line conn ~stop:i ~next:(i + 1)
    | _ when conn.len - conn.pos > max_line -> too_long
    | _ -> (
      conn.scanned <- conn.len;
      compact conn;
      match Unix.read conn.fd conn.buf conn.len (Bytes.length conn.buf - conn.len) with
      | 0 ->
        (* Final line without a trailing newline still counts. *)
        if conn.pos = conn.len then Eof else take_line conn ~stop:conn.len ~next:conn.len
      | n ->
        conn.len <- conn.len + n;
        next_line t conn
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_line t conn
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if Atomic.get t.stopping then Eof else next_line t conn
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Abort
      | exception Unix.Unix_error _ -> Abort)

let serve_conn t fd =
  let conn =
    { fd; buf = Bytes.create initial_size; pos = 0; scanned = 0; len = 0; clock = Clock.now_ns () }
  in
  let pending = ref [] in
  let flush_pending () =
    if !pending <> [] then begin
      let payload = serve_batch t (Array.of_list (List.rev !pending)) in
      pending := [];
      Exporter.write_all fd payload
    end
    else
      (* An empty flush still acknowledges: one blank line. *)
      Exporter.write_all fd "\n";
    conn.clock <- Clock.now_ns ()
  in
  let rec go () =
    match next_line t conn with
    | Line "" ->
      flush_pending ();
      go ()
    | Line line when line.[0] = '#' -> go ()
    | Line line ->
      pending := line :: !pending;
      go ()
    | Eof -> if !pending <> [] then flush_pending ()
    | Cut msg ->
      let buf = Buffer.create 64 in
      Protocol.render_error ~json:t.config.json buf msg;
      Buffer.add_char buf '\n';
      Exporter.write_all fd (Buffer.contents buf)
    | Abort -> ()
  in
  (* [Exit] is [write_all] giving up on a gone or stalled client — the
     connection is dropped, the server is unaffected. *)
  try go () with Exit -> ()

(* --- threads --------------------------------------------------------------- *)

let set_queue_gauge t = Metrics.set queue_depth (Queue.length t.queue)

let close_quietly fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Shed one connection: best-effort busy line (a short send timeout so a
   full socket buffer cannot stall admission), then close. *)
let shed t fd =
  ignore (Atomic.fetch_and_add t.n_shed 1);
  Metrics.incr shed_total;
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.2 with Unix.Unix_error _ -> ());
  (try Exporter.write_all fd (Protocol.busy_line ~json:t.config.json)
   with Exit | Unix.Unix_error _ -> ());
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
      Metrics.set active_connections (1 + Atomic.fetch_and_add t.n_active 1);
      (try serve_conn t fd with Unix.Unix_error _ -> ());
      Metrics.set active_connections (Atomic.fetch_and_add t.n_active (-1) - 1);
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
        Metrics.incr connections;
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO
             (Float.min t.config.socket_timeout t.config.batch_deadline);
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

let start ?(config = default_config) ?pool registry =
  let config =
    {
      config with
      workers = max 1 config.workers;
      queue_capacity = max 1 config.queue_capacity;
      socket_timeout = Float.max 0.01 config.socket_timeout;
      batch_deadline = Float.max 0.01 config.batch_deadline;
    }
  in
  let sock, bound_port =
    Exporter.listen ~host:config.host ~port:config.port
      ~backlog:(config.queue_capacity + config.workers)
  in
  let t =
    {
      config;
      registry;
      pool;
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
  Metrics.set port_gauge bound_port;
  Tl_obs.Log.info (fun m -> m "server listening on %s:%d" config.host bound_port);
  t

(* Stop wakes the acceptor ([Exporter.wake]), then drains:

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
    Exporter.wake ~host:t.config.host ~port:t.bound_port;
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
