(** A loopback-bindable TCP query front-end with admission control.

    The server frames the same newline-delimited input as the stdin
    serving loop: one [[NAME:]twig-or-xpath] query per line, a blank line
    flushes the pending batch, ['#'] lines are skipped.  Each flushed
    batch is answered by {!Protocol.answer} and rendered as {!Protocol}
    documents the wire format — one answer line per query, in input
    order ([config.json] selects JSON objects), then one blank line
    terminating the batch.  This module owns only the sockets, framing,
    admission and drain.

    Robustness is structural, not best-effort:

    - {b bounded admission}: one acceptor thread feeds a queue of at most
      [queue_capacity] waiting connections; when it is full the client
      gets a one-line [busy] response and a close instead of unbounded
      buffering, and [tl_server_shed_total] increments;
    - {b fixed worker pool}: [workers] system threads serve connections
      concurrently (I/O overlaps; CPU-parallel evaluation stays inside
      the shared {!Tl_util.Pool} passed to {!start}, whose maps serialize
      internally so worker threads need no extra coordination);
    - {b deadlines and timeouts}: every socket read and write is bounded
      by [socket_timeout] following the {!Tl_obs.Exporter} EINTR/EAGAIN
      discipline, and a connection that goes [batch_deadline] without a
      response — idle, trickling or sending only ['#'] lines — is
      answered with an error and cut, so no client holds its worker
      longer than that per response;
    - {b bounded lines}: a line longer than 1 MiB is answered with one
      error line and the connection is closed, so a client that never
      sends a newline cannot grow the receive buffer without limit;
    - {b graceful drain}: {!stop} stops accepting, busy-sheds the
      queued-but-unstarted connections, half-closes the receive side of
      every in-flight connection so its current batch finishes {e on the
      epoch it started with} and its response is written, then joins all
      threads.

    Hot reload keeps working mid-connection: each flush pins the routed
    datasets' current bundles for the whole batch ({!Protocol.answer}),
    so a concurrent {!Registry.swap} is picked up between batches and
    every response line carries the epoch it was served from.

    Metrics: [tl_server_connections], [tl_server_queries_total],
    [tl_server_batches_total], [tl_server_shed_total], [tl_server_deadline_cuts],
    [tl_server_queue_depth] / [tl_server_active_connections] gauges, and
    the [tl_server_request_ns] per-batch latency histogram. *)

type config = {
  host : string;  (** bind address (default loopback) *)
  port : int;  (** 0 = ephemeral, read back with {!port} *)
  workers : int;  (** serving threads (clamped to [>= 1]) *)
  queue_capacity : int;  (** admission-queue bound (clamped to [>= 1]) *)
  socket_timeout : float;  (** per-socket read/write timeout, seconds *)
  batch_deadline : float;  (** max seconds from taking a connection, or from a response, to the next *)
  json : bool;  (** answer with JSON objects instead of tab-separated text *)
}

val default_config : config
(** Loopback, ephemeral port, 4 workers, queue of 64, 5 s socket timeout,
    30 s batch deadline, text protocol. *)

type t

val start :
  ?config:config -> ?pool:Tl_util.Pool.t -> Registry.t -> t
(** Bind, spawn the acceptor and worker threads, and start serving
    queries against [registry], routed by {!Protocol.answer}'s rule.
    Raises [Unix.Unix_error] when the bind fails.  The optional [pool] is
    used for batch evaluation exactly as in {!Registry.batch}. *)

val port : t -> int
(** The actual bound port — useful with [port = 0]. *)

type stats = { connections : int; queries : int; batches : int; shed : int }

val stats : t -> stats
(** Live totals since {!start}: accepted connections, queries answered
    (including [error] answers), batches flushed, and connections shed by
    admission control.  The same totals back the [tl_server_*] metrics;
    this accessor exists so tests need not scrape. *)

val stop : t -> unit
(** Graceful drain as described above.  Blocks until every worker has
    finished its in-flight batch and exited.  Idempotent. *)
