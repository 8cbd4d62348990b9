(* The serving audit log: who asked what, what we answered, how long it
   took, and how much of the machinery was reused.

   Same sharding discipline as [Plan_cache]: every domain that records
   gets a private ring buffer, held by the log itself
   ([Tl_util.Per_domain]) so the read-side views can merge the rings and
   the rings are collected with the log's bundle.  Recording is therefore
   lock-free — one shard lookup, one atomic fetch-and-add for the
   sequence number, one array store — and safe from inside a
   [Tl_util.Pool] batch evaluation.  Merging is
   deterministic: records carry unique sequence numbers, every view sorts
   on them, and the multiset of records (modulo the nondeterministic
   sequence/latency fields) from a parallel batch equals the sequential
   one — the property test/test_serve.ml pins.

   A shard outlives its domain, so records written by pool workers stay
   visible after [Pool.shutdown].  When a ring wraps, the oldest records
   of that shard are dropped; [total] keeps counting. *)

module Twig = Tl_twig.Twig
module Metrics = Tl_obs.Metrics

type record = {
  seq : int;  (* global admission order; unique *)
  key_id : int;
  scheme : string;
  estimate : float;
  latency_ns : int;
  plan_hit : bool;
  feedback_hit : bool;
  clamped : bool;
  rel_error : float;  (* nan when the drift monitor did not sample this query *)
}

let dummy =
  {
    seq = -1;
    key_id = -1;
    scheme = "";
    estimate = 0.0;
    latency_ns = 0;
    plan_hit = false;
    feedback_hit = false;
    clamped = false;
    rel_error = Float.nan;
  }

type shard = { ring : record array; mutable filled : int; mutable next : int }

type t = {
  capacity : int;  (* per shard *)
  seq : int Atomic.t;
  shards : shard Tl_util.Per_domain.t;
}

let () =
  Metrics.describe "audit.records" "Per-query audit records admitted";
  Metrics.describe "serve.latency_ns" "Distribution of per-query serving latencies (ns)"

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Audit.create: capacity must be >= 1";
  {
    capacity;
    seq = Atomic.make 0;
    shards =
      Tl_util.Per_domain.create (fun () ->
          { ring = Array.make capacity dummy; filled = 0; next = 0 });
  }

let capacity t = t.capacity

let record t ~key_id ~scheme ~estimate ~latency_ns ~plan_hit ~feedback_hit ~clamped ~rel_error =
  let seq = Atomic.fetch_and_add t.seq 1 in
  let s = Tl_util.Per_domain.get t.shards in
  s.ring.(s.next) <-
    { seq; key_id; scheme; estimate; latency_ns; plan_hit; feedback_hit; clamped; rel_error };
  s.next <- (s.next + 1) mod t.capacity;
  if s.filled < t.capacity then s.filled <- s.filled + 1;
  Metrics.observe "serve.latency_ns" latency_ns

let count_records n = if n > 0 then Metrics.add "audit.records" n

let total t = Atomic.get t.seq

(* --- read-side views ----------------------------------------------------- *)

let all_shards t = Tl_util.Per_domain.all t.shards

(* Snapshot every shard's live records.  Concurrent writers may overwrite
   a slot mid-read; records are immutable values, so a read sees either
   the old or the new record, never a torn one. *)
let records t =
  let collected =
    List.concat_map
      (fun s -> Array.to_list (Array.sub s.ring 0 s.filled))
      (all_shards t)
  in
  List.sort (fun (a : record) b -> compare a.seq b.seq) collected

let size t = List.fold_left (fun acc s -> acc + s.filled) 0 (all_shards t)

let recent ?(limit = 64) t =
  let newest_first = List.sort (fun (a : record) b -> compare b.seq a.seq) (records t) in
  Tl_util.Prelude.list_take (max 0 limit) newest_first

let top_slow ?(k = 10) t =
  let by_latency (a : record) b =
    match compare b.latency_ns a.latency_ns with 0 -> compare a.seq b.seq | c -> c
  in
  Tl_util.Prelude.list_take (max 0 k) (List.sort by_latency (records t))

(* Confidence view: records the drift monitor sampled, worst measured
   relative error first.  A clamped record is maximally untrustworthy, so
   clamps rank above any finite error. *)
let top_uncertain ?(k = 10) t =
  let confidence_rank (r : record) = if r.clamped then Float.infinity else r.rel_error in
  let sampled =
    List.filter (fun (r : record) -> r.clamped || not (Float.is_nan r.rel_error)) (records t)
  in
  let by_error (a : record) b =
    match compare (confidence_rank b) (confidence_rank a) with
    | 0 -> compare a.seq b.seq
    | c -> c
  in
  Tl_util.Prelude.list_take (max 0 k) (List.sort by_error sampled)

let reset t =
  List.iter
    (fun s ->
      s.filled <- 0;
      s.next <- 0)
    (all_shards t)

(* --- JSONL ---------------------------------------------------------------- *)

let record_json ?dataset (r : record) =
  let tag =
    match dataset with
    | None -> ""
    | Some d -> Printf.sprintf {|"dataset":"%s",|} (Tl_util.Prelude.json_escape d)
  in
  Printf.sprintf
    {|{%s"seq":%d,"key":%d,"scheme":"%s","estimate":%.6g,"latency_ns":%d,"plan_hit":%b,"feedback_hit":%b,"clamped":%b,"rel_error":%s}|}
    tag r.seq r.key_id
    (Tl_util.Prelude.json_escape r.scheme)
    r.estimate r.latency_ns r.plan_hit r.feedback_hit r.clamped
    (if Float.is_nan r.rel_error then "null" else Printf.sprintf "%.6g" r.rel_error)
