(** The serving audit log: a lock-free ring buffer of per-query records.

    Every query served through an instrumented {!Engine} entry point
    leaves one record — canonical key id, scheme, returned estimate,
    latency, whether the plan cache hit, whether the feedback source
    answered, whether the non-finite clamp fired, and (when the drift
    {!Monitor} sampled the query) the measured relative error.

    Records go into one ring per log, at slot [seq mod capacity] of
    their atomic admission sequence number: one atomic fetch-and-add and
    one array store, no locks.  Audit instrumentation is therefore safe
    and cheap inside a pooled batch evaluation and from the TCP server's
    worker threads.  The read-side views sort on the unique sequence
    numbers; the record multiset of a parallel batch equals the
    sequential one (modulo the nondeterministic sequence and latency
    fields) — asserted by [test/test_serve.ml].

    The ring holds the newest [capacity] records; older records are
    dropped (but still counted by {!total}).  Each admission
    is also observed in the [serve.latency_ns] histogram of
    {!Tl_obs.Metrics}, so latency quantiles are scrapeable without
    touching the log itself; the [audit.records] counter is bumped once
    per batch by {!count_records}. *)

type record = {
  seq : int;  (** global admission order; unique per log *)
  key_id : int;  (** {!Tl_twig.Twig.Key.id} of the canonical query *)
  scheme : string;  (** {!Tl_core.Estimator.scheme_name} *)
  estimate : float;  (** the value returned to the client (post-clamp) *)
  latency_ns : int;
  plan_hit : bool;  (** plan served from the cache (vs compiled) *)
  feedback_hit : bool;  (** the [?extra] source answered >= 1 lookup *)
  clamped : bool;  (** non-finite result clamped to 0.0 *)
  rel_error : float;  (** monitor-measured relative error; [nan] unless sampled *)
}

type t

val create : ?capacity:int -> unit -> t
(** An audit log holding up to [capacity] records in total, from every
    recording domain and thread (default 4096).  Raises
    [Invalid_argument] when [capacity < 1]. *)

val capacity : t -> int

val record :
  t ->
  key_id:int ->
  scheme:string ->
  estimate:float ->
  latency_ns:int ->
  plan_hit:bool ->
  feedback_hit:bool ->
  clamped:bool ->
  rel_error:float ->
  unit
(** Admit one record.  Lock-free; safe from any domain or thread,
    including pool workers mid-batch. *)

val count_records : int -> unit
(** Add [n] admissions to the [audit.records] counter.  {!record} leaves
    the counter alone, so a batch pays one counter update, not one per
    record. *)

val total : t -> int
(** Records ever admitted (including those rings have since dropped). *)

val size : t -> int
(** Records currently held: at most [capacity]. *)

val records : t -> record list
(** All held records, oldest first (by [seq]).
    Call between batches for an exact snapshot; concurrent recording can
    only add or age out whole records, never tear one. *)

val recent : ?limit:int -> t -> record list
(** The newest [limit] (default 64) records, newest first. *)

val top_slow : ?k:int -> t -> record list
(** The [k] (default 10) slowest held records, slowest first. *)

val top_uncertain : ?k:int -> t -> record list
(** The [k] (default 10) worst-confidence held records: clamped records
    first (maximally untrustworthy), then monitor-sampled records by
    descending measured relative error.  Unsampled, unclamped records
    never appear. *)

val record_json : ?dataset:string -> record -> string
(** One record as a single-line JSON object ([rel_error] is [null] when
    the monitor did not sample the query), led by an escaped
    ["dataset"] field when [dataset] is given. *)

val reset : t -> unit
(** Drop all held records ({!total} keeps counting). *)
