(* Nested monotonic-clock spans.

   Same sharding discipline as Metrics: every domain keeps its own open
   stack and finished buffer in domain-local storage, registered once in
   a global list so [finished]/[dump_jsonl]/[flame] can merge them.
   Spans are disabled by default; when disabled, [with_] is a single
   atomic load on top of the wrapped call. *)

type span = {
  name : string;
  path : string;  (* semicolon-joined ancestor chain, e.g. "build;mine;level" *)
  domain : int;
  depth : int;  (* 1 for a root span *)
  start_ns : int;  (* relative to the trace epoch *)
  dur_ns : int;
}

type frame = { f_path : string; f_depth : int; f_start : int }

type local = { domain : int; mutable stack : frame list; mutable done_rev : span list }

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled v = Atomic.set enabled_flag v

let epoch = Tl_util.Mono_clock.now_ns ()

let registry_mutex = Mutex.create ()

let locals : local list ref = ref []

let local_key =
  Domain.DLS.new_key (fun () ->
      let l = { domain = (Domain.self () :> int); stack = []; done_rev = [] } in
      Mutex.lock registry_mutex;
      locals := l :: !locals;
      Mutex.unlock registry_mutex;
      l)

let with_ name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let l = Domain.DLS.get local_key in
    let path, depth =
      match l.stack with
      | [] -> (name, 1)
      | fr :: _ -> (fr.f_path ^ ";" ^ name, fr.f_depth + 1)
    in
    let start = Tl_util.Mono_clock.now_ns () in
    l.stack <- { f_path = path; f_depth = depth; f_start = start } :: l.stack;
    let finish () =
      let dur = Tl_util.Mono_clock.now_ns () - start in
      (match l.stack with _ :: rest -> l.stack <- rest | [] -> ());
      l.done_rev <-
        { name; path; domain = l.domain; depth; start_ns = start - epoch; dur_ns = dur }
        :: l.done_rev
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let all_locals () =
  Mutex.lock registry_mutex;
  let ls = !locals in
  Mutex.unlock registry_mutex;
  ls

let reset () =
  List.iter
    (fun l ->
      l.stack <- [];
      l.done_rev <- [])
    (all_locals ())

let finished () =
  let spans = List.concat_map (fun l -> l.done_rev) (all_locals ()) in
  List.sort
    (fun a b ->
      match compare a.start_ns b.start_ns with
      | 0 -> ( match compare a.domain b.domain with 0 -> compare a.path b.path | c -> c)
      | c -> c)
    spans

(* --- JSONL sink --------------------------------------------------------- *)

let span_json s =
  Printf.sprintf
    {|{"name":"%s","path":"%s","domain":%d,"depth":%d,"start_ns":%d,"dur_ns":%d}|}
    (Tl_util.Prelude.json_escape s.name)
    (Tl_util.Prelude.json_escape s.path)
    s.domain s.depth s.start_ns s.dur_ns

let dump_jsonl oc =
  let spans = finished () in
  List.iter
    (fun s ->
      output_string oc (span_json s);
      output_char oc '\n')
    spans;
  List.length spans

(* The registered sink is drained exactly once — explicitly via
   [close_sink], or by the [at_exit] hook when the process leaves through
   [exit] (including the CLI's error paths), so a [--trace] file is never
   left truncated or empty by an early exit.  Guarded by a mutex: the
   at_exit hook and an explicit close can race only in pathological
   nested-exit scenarios, but the guard makes close idempotent anyway. *)
let sink_mutex = Mutex.create ()

let sink : (string * out_channel) option ref = ref None

let at_exit_registered = ref false

let drain_sink () =
  Mutex.lock sink_mutex;
  let current = !sink in
  sink := None;
  Mutex.unlock sink_mutex;
  match current with
  | None -> None
  | Some (path, oc) ->
    let spans = dump_jsonl oc in
    flush oc;
    close_out_noerr oc;
    Some (path, spans)

let close_sink () = drain_sink ()

let set_sink path =
  let oc = open_out path in
  Mutex.lock sink_mutex;
  let previous = !sink in
  sink := Some (path, oc);
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit (fun () -> ignore (drain_sink ()))
  end;
  Mutex.unlock sink_mutex;
  (match previous with
  | None -> ()
  | Some (_, old) ->
    flush old;
    close_out_noerr old);
  set_enabled true

(* --- flame summary ------------------------------------------------------ *)

(* One row per distinct path: calls, total time, self time (total minus
   direct children).  Sorting by path string keeps children right under
   their parent since a parent's path is a strict prefix. *)
let flame () =
  let spans = finished () in
  let totals : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let calls, ns = Option.value ~default:(0, 0) (Hashtbl.find_opt totals s.path) in
      Hashtbl.replace totals s.path (calls + 1, ns + s.dur_ns))
    spans;
  let child_ns : (string, int) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun path (_, ns) ->
      match String.rindex_opt path ';' with
      | None -> ()
      | Some i ->
        let parent = String.sub path 0 i in
        Hashtbl.replace child_ns parent (ns + Option.value ~default:0 (Hashtbl.find_opt child_ns parent)))
    totals;
  let rows =
    List.sort compare (Hashtbl.fold (fun path (calls, ns) acc -> (path, calls, ns) :: acc) totals [])
  in
  let ms ns = Printf.sprintf "%.2f" (Tl_util.Mono_clock.ns_to_ms ns) in
  Tl_util.Table.render
    ~header:[ "span"; "calls"; "total ms"; "self ms"; "mean ms" ]
    (List.map
       (fun (path, calls, ns) ->
         let depth = ref 0 in
         String.iter (fun c -> if c = ';' then incr depth) path;
         let name =
           match String.rindex_opt path ';' with
           | None -> path
           | Some i -> String.sub path (i + 1) (String.length path - i - 1)
         in
         let self = ns - Option.value ~default:0 (Hashtbl.find_opt child_ns path) in
         [
           String.make (2 * !depth) ' ' ^ name;
           string_of_int calls;
           ms ns;
           ms self;
           ms (ns / calls);
         ])
       rows)
