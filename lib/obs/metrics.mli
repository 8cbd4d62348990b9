(** Domain-sharded metrics: counters, gauges, log-scale histograms.

    Each domain records into a private shard held in domain-local
    storage, so instrumentation inside {!Tl_util.Pool} maps is race-free
    and costs one hash lookup plus an integer update — no atomics, no
    locks on the hot path.  Shards survive their domain, so worker
    counts remain visible after [Pool.shutdown].

    {!snapshot} merges all shards {e deterministically}: counter and
    histogram cells are integers combined by addition (order-invariant),
    gauges merge with [max], and names come back sorted.  A parallel run
    that performs the same per-element work as a sequential run
    therefore yields a bit-identical snapshot — the property
    [test/test_obs.ml] checks.

    {!snapshot} and {!reset} must not race with in-flight instrumented
    parallel work; call them between pool maps (their natural place —
    end of a build, a level, a run). *)

val incr : string -> unit
(** Add 1 to a counter (created on first touch). *)

val add : string -> int -> unit
(** Add [by] to a counter. *)

val set_gauge : string -> int -> unit
(** Set a gauge on this domain's shard; shards merge with [max]. *)

val observe : string -> int -> unit
(** Record a value into a log-scale histogram: bucket 0 holds values
    [<= 1], bucket [i >= 1] holds [[2{^i}, 2{^i+1})]. *)

type hist_snapshot = {
  h_observations : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
      (** [(bucket lower bound, count)], non-empty buckets only, ascending. *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
}
(** A merged, name-sorted view of every shard.  Plain data: structural
    equality is meaningful (see {!equal_snapshot}). *)

val snapshot : unit -> snapshot

val equal_snapshot : snapshot -> snapshot -> bool

val reset : unit -> unit
(** Clear every shard (including those of exited domains). *)

val describe : string -> string -> unit
(** [describe name help] registers the [# HELP] text emitted for metric
    [name] by {!to_prometheus}.  Metrics without a registered or built-in
    description fall back to a generated line. *)

val to_prometheus : snapshot -> string
(** Prometheus-style text exposition: [tl_]-prefixed sanitized names,
    [# HELP] + [# TYPE] comments, and for each histogram the full
    cumulative [_bucket{le="..."}] series (empty buckets included up to
    the last populated one, then [+Inf]) plus [_sum] / [_count].  This is
    the single renderer shared by the bench/CLI file writers and the
    {!Exporter} endpoint. *)

val pp_table : snapshot -> string
(** Human-readable tables (via {!Tl_util.Table}). *)

(**/**)

val bucket_of : int -> int
(** Exposed for the bucketing unit tests. *)

val bucket_floor : int -> int
