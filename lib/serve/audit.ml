(* The serving audit log: who asked what, what we answered, how long it
   took, and how much of the machinery was reused.

   One ring per log.  A record's slot is its sequence number modulo the
   capacity, so recording is lock-free — one atomic fetch-and-add for the
   sequence number, one array store — and safe from inside a
   [Tl_util.Pool] batch evaluation or from the TCP server's worker
   threads alike.  The ring holds the newest [capacity] records.  (Two
   writers a whole ring apart could store out of order and leave the
   older record in their slot; that takes [capacity] admissions between
   one writer's fetch-and-add and its store.)  Merging is deterministic:
   records carry unique sequence numbers, every view sorts on them, and
   the multiset of records (modulo the nondeterministic sequence/latency
   fields) from a parallel batch equals the sequential one — the property
   test/test_serve.ml pins.  [total] keeps counting past the ring. *)

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

type t = {
  seq : int Atomic.t;
  ring : record array;  (* slot [seq mod capacity]; [dummy] until written *)
}

let records = Metrics.counter ~help:"Per-query audit records admitted" "audit.records"
let latency =
  Metrics.histogram ~help:"Distribution of per-query serving latencies (ns)" "serve.latency_ns"

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Audit.create: capacity must be >= 1";
  { seq = Atomic.make 0; ring = Array.make capacity dummy }

let capacity t = Array.length t.ring

let record t ~key_id ~scheme ~estimate ~latency_ns ~plan_hit ~feedback_hit ~clamped ~rel_error =
  let seq = Atomic.fetch_and_add t.seq 1 in
  t.ring.(seq mod Array.length t.ring) <-
    { seq; key_id; scheme; estimate; latency_ns; plan_hit; feedback_hit; clamped; rel_error };
  Metrics.observe latency latency_ns

let count_records n = Metrics.add records n

let total t = Atomic.get t.seq

(* --- read-side views ----------------------------------------------------- *)

(* Snapshot the ring's written slots.  Concurrent writers may overwrite a
   slot mid-read; records are immutable values, so a read sees either the
   old or the new record, never a torn one. *)
let records t =
  let held = List.filter (fun (r : record) -> r.seq >= 0) (Array.to_list t.ring) in
  List.sort (fun (a : record) b -> compare a.seq b.seq) held

let size t = Array.fold_left (fun acc (r : record) -> if r.seq >= 0 then acc + 1 else acc) 0 t.ring

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

let reset t = Array.fill t.ring 0 (Array.length t.ring) dummy

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
