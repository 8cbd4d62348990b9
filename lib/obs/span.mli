(** Nested wall-time spans on the monotonic clock.

    A span is opened and closed around a region of work with {!with_};
    nesting is tracked per domain (each domain has its own stack, so
    spans opened inside a {!Tl_util.Pool} map nest under nothing and
    never race).  The stack is per domain, not per thread, so spans are
    opened only by a domain's main thread: the server's worker threads
    and the exporter's open none.  Spans are {e disabled by default} — when disabled,
    {!with_} costs one atomic load — and are enabled by the [--trace]
    CLI/bench flags or {!set_enabled}.

    Finished spans accumulate in per-domain buffers until {!reset};
    read them back as a merged list ({!finished}), as JSONL
    ({!dump_jsonl}, one object per line with [name], [path], [domain],
    [depth], [start_ns], [dur_ns]), or aggregated into an in-terminal
    flame summary ({!flame}). *)

type span = {
  name : string;
  path : string;  (** semicolon-joined ancestor chain *)
  domain : int;
  depth : int;  (** 1 for a root span *)
  start_ns : int;  (** relative to the process trace epoch *)
  dur_ns : int;
}

val enabled : unit -> bool

val set_enabled : bool -> unit

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span named [name], nested under the
    calling domain's innermost open span.  The span is recorded even
    when [f] raises.  No-op (beyond the enabled check) when disabled. *)

val finished : unit -> span list
(** All finished spans from every domain, sorted by start time (ties:
    domain, then path). *)

val reset : unit -> unit
(** Drop all finished spans and open stacks. *)

val dump_jsonl : out_channel -> int
(** Write {!finished} as JSON Lines; returns the number of spans. *)

val set_sink : string -> unit
(** Register a JSONL trace sink at the given path and enable span
    recording.  The sink is written, flushed, and closed exactly once:
    by {!close_sink}, or — if the process exits first, including via
    [Stdlib.exit] from an error path — by an [at_exit] hook, so a
    requested trace file can never be left truncated.  Registering a new
    sink closes (without draining) the previous one. *)

val close_sink : unit -> (string * int) option
(** Drain the registered sink now: dump {!finished} into it, flush, close.
    Returns the path and span count, or [None] when no sink is pending
    (e.g. it was already drained).  Idempotent. *)

val flame : unit -> string
(** Aggregate finished spans by path into an indented table — calls,
    total, self, and mean milliseconds per span path. *)
