(** Metrics: counters, gauges and log-scale histograms, held as handles.

    A series is registered once, with its name, its help text and
    optional labels, and the registration returns a handle.  Registering
    the same name and labels again returns the same cell, so a caller may
    register where it first needs a series (module initialisation, a
    bundle build) without coordinating with anyone.  One name is one
    family: every series under it has the same kind and the help text of
    its first registration.  A registered series exists at 0, so a scrape
    taken before the first event already shows it.

    Counters and gauges are single [Atomic] cells and a histogram is its
    cells behind its own mutex, so any thread on any domain may record
    into any handle, and recording hashes no string.  {!snapshot} walks
    the registered series under the registry lock, so it may run while
    other threads record.  Counter and histogram updates are sums, so the
    same work run sequentially or across a {!Tl_util.Pool} reaches the
    same snapshot — the property [test/test_obs.ml] checks. *)

type labels = (string * string) list
(** Label pairs, as in [[ ("dataset", "main") ]], in any order. *)

type counter

type gauge

type histogram

val counter : ?labels:labels -> help:string -> string -> counter
(** [counter ~help name] registers (or finds) the counter series [name]
    with [labels] (default none).  Raises [Invalid_argument] if [name]
    is already registered as another kind; so do {!gauge} and
    {!histogram}. *)

val gauge : ?labels:labels -> help:string -> string -> gauge

val histogram : ?labels:labels -> help:string -> string -> histogram

val incr : counter -> unit

val add : counter -> int -> unit

val set : gauge -> int -> unit

val observe : histogram -> int -> unit
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
  help : (string * string) list;  (** help text by series name *)
}
(** Every registered series, keyed by its name, or for a labelled series
    by [name{key="value",...}] (for instance
    [serve.queries{dataset="main"}]), sorted by name and then labels.
    Plain data: structural equality is meaningful. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Set every registered series back to 0; handles stay valid. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition: [tl_]-prefixed sanitized names, one
    [# HELP] + [# TYPE] pair per name, labels as written, and for each
    histogram the full cumulative [_bucket{le="..."}] series (empty
    buckets included up to the last populated one, then [+Inf]) plus
    [_sum] / [_count].  The one renderer of the bench/CLI file writers
    and the {!Exporter} endpoint. *)

(**/**)

val bucket_of : int -> int
(** Exposed for the bucketing unit tests. *)

val bucket_floor : int -> int
