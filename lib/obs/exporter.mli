(** A minimal blocking HTTP/1.0 exposition endpoint for live scraping.

    {!start} binds a loopback TCP socket and serves registered GET routes
    from a single background system thread; [/metrics] is always present
    and renders the current {!Metrics.snapshot} through
    {!Metrics.to_prometheus} — the {e same} renderer the bench and CLI
    file writers use, so a scrape and a [--metrics] file can never
    disagree in format.  Route callbacks run on the endpoint thread: keep
    them read-only snapshots (metrics text, recent audit records, an
    alarm flag), never mutations of serving state.

    This module is the only place in the library that starts a thread or
    touches a socket; everything else stays thread-free, and the serving
    hot paths never synchronize with a scrape. *)

type response = { status : int; content_type : string; body : string }

val text : ?status:int -> string -> response
(** A [text/plain] response (status 200 by default). *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?timeout:float ->
  ?routes:(string * (unit -> response)) list ->
  unit ->
  t
(** Bind [host] (default ["127.0.0.1"]) on [port] (default [0] = an
    ephemeral port, read back with {!port}), register [routes] (paths
    must start with ['/']; query strings are stripped before matching),
    and start the accept thread.  A route that raises answers 500 with
    the exception text; unknown paths answer 404.  Raises [Unix_error]
    when the bind fails (e.g. the port is taken).

    [timeout] (seconds, default 5.0) bounds each socket read and write.
    The response writer is robust to a {e slow} scraper: interrupted and
    timed-out partial writes are retried as long as the client keeps
    accepting bytes, and only a gone client ([EPIPE]/[ECONNRESET]) or
    several consecutive zero-progress timeout periods abort the response
    — a throttled reader receives the full body instead of a silently
    truncated one. *)

val port : t -> int
(** The actual bound port — useful with [port:0]. *)

val stop : t -> unit
(** Stop accepting, join the endpoint thread, close the socket.
    Idempotent. *)

(** {1 Socket plumbing shared with other servers}

    The TCP query front-end ({!Tl_serve.Server}) faces the same transient
    socket errors as a scrape endpoint; it reuses this module's binding,
    wake-up and write discipline instead of growing a second copy. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying [EINTR] and up to four consecutive
    zero-progress [EAGAIN]/[EWOULDBLOCK] timeout periods; a gone client
    ([EPIPE]/[ECONNRESET]/[ETIMEDOUT]) or a persistent stall raises
    [Exit], which callers treat as "drop this connection". *)

val listen : host:string -> port:int -> backlog:int -> Unix.file_descr * int
(** A listening socket bound to [host]:[port] and the port it got.  A
    client disconnect then surfaces as [EPIPE] on the write path, not as
    a process-killing SIGPIPE. *)

val wake : host:string -> port:int -> unit
(** Wake an [accept] blocked on [host]:[port] with a throwaway connection. *)
