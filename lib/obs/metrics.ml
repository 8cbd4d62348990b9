(* Domain-sharded metric cells.

   Every domain that touches a metric gets its own shard (held in
   domain-local storage), so the hot-path operations — counter adds,
   gauge sets, histogram observations — never synchronize and never
   race, even from inside a [Tl_util.Pool] map.  Shards are registered
   in a global list the first time a domain touches any metric; a
   shard outlives its domain, so counts from pool workers survive
   [Pool.shutdown] and are still visible to [snapshot].

   Merging is deterministic by construction: counters and histogram
   cells are integers combined with addition (commutative and
   associative, so shard order is irrelevant), gauges merge with [max],
   and every snapshot lists names in sorted order.  That is what makes
   the parallel-vs-sequential identity property testable bit-for-bit. *)

let bucket_count = 62

type hist = {
  mutable observations : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array;
}

type shard = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let registry_mutex = Mutex.create ()

let shards : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        { counters = Hashtbl.create 16; gauges = Hashtbl.create 8; hists = Hashtbl.create 8 }
      in
      Mutex.lock registry_mutex;
      shards := s :: !shards;
      Mutex.unlock registry_mutex;
      s)

let my_shard () = Domain.DLS.get shard_key

(* --- recording ---------------------------------------------------------- *)

let add name by =
  let s = my_shard () in
  match Hashtbl.find_opt s.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace s.counters name (ref by)

let incr name = add name 1

let set_gauge name v =
  let s = my_shard () in
  match Hashtbl.find_opt s.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace s.gauges name (ref v)

(* Bucket 0 holds values <= 1; bucket i >= 1 holds [2^i, 2^(i+1)). *)
let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 in
    let x = ref v in
    while !x > 1 do
      Stdlib.incr b;
      x := !x lsr 1
    done;
    min (bucket_count - 1) !b
  end

let bucket_floor i = if i = 0 then 0 else 1 lsl i

let observe name v =
  let s = my_shard () in
  let h =
    match Hashtbl.find_opt s.hists name with
    | Some h -> h
    | None ->
      let h =
        { observations = 0; sum = 0; vmin = max_int; vmax = min_int; buckets = Array.make bucket_count 0 }
      in
      Hashtbl.replace s.hists name h;
      h
  in
  h.observations <- h.observations + 1;
  h.sum <- h.sum + v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

(* --- snapshots ---------------------------------------------------------- *)

type hist_snapshot = {
  h_observations : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;  (* (bucket lower bound, count), non-empty buckets only *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

let all_shards () =
  Mutex.lock registry_mutex;
  let s = !shards in
  Mutex.unlock registry_mutex;
  s

let sorted_bindings merge tables =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun table ->
      Hashtbl.iter
        (fun name v ->
          match Hashtbl.find_opt acc name with
          | Some prev -> Hashtbl.replace acc name (merge prev v)
          | None -> Hashtbl.replace acc name v)
        table)
    tables;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name v xs -> (name, v) :: xs) acc [])

let merge_hist a b =
  {
    observations = a.observations + b.observations;
    sum = a.sum + b.sum;
    vmin = min a.vmin b.vmin;
    vmax = max a.vmax b.vmax;
    buckets = Array.init bucket_count (fun i -> a.buckets.(i) + b.buckets.(i));
  }

let copy_hist h = { h with buckets = Array.copy h.buckets }

let snapshot () =
  let shards : shard list = all_shards () in
  let counters =
    sorted_bindings (fun a b -> ref (!a + !b)) (List.map (fun (s : shard) -> s.counters) shards)
  in
  let gauges =
    sorted_bindings (fun a b -> ref (max !a !b)) (List.map (fun (s : shard) -> s.gauges) shards)
  in
  let hists =
    (* Copy before merging so shard cells are never aliased by the result. *)
    let copies =
      List.map
        (fun s ->
          let t = Hashtbl.create (Hashtbl.length s.hists) in
          Hashtbl.iter (fun name h -> Hashtbl.replace t name (copy_hist h)) s.hists;
          t)
        shards
    in
    sorted_bindings merge_hist copies
  in
  {
    counters = List.map (fun (n, r) -> (n, !r)) counters;
    gauges = List.map (fun (n, r) -> (n, !r)) gauges;
    histograms =
      List.map
        (fun (n, h) ->
          let buckets = ref [] in
          for i = bucket_count - 1 downto 0 do
            if h.buckets.(i) > 0 then buckets := (bucket_floor i, h.buckets.(i)) :: !buckets
          done;
          ( n,
            {
              h_observations = h.observations;
              h_sum = h.sum;
              h_min = (if h.observations = 0 then 0 else h.vmin);
              h_max = (if h.observations = 0 then 0 else h.vmax);
              h_buckets = !buckets;
            } ))
        hists;
  }

let equal_snapshot (a : snapshot) (b : snapshot) = a = b

let reset () =
  List.iter
    (fun (s : shard) ->
      Hashtbl.reset s.counters;
      Hashtbl.reset s.gauges;
      Hashtbl.reset s.hists)
    (all_shards ())

(* --- rendering ---------------------------------------------------------- *)

let sanitize name =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_') name

(* Help strings for the # HELP exposition lines.  Subsystems register
   their metrics with [describe]; the built-in table covers the
   long-standing names so a default snapshot is fully annotated. *)
let help_mutex = Mutex.create ()

let help_table : (string, string) Hashtbl.t = Hashtbl.create 64

let describe name help =
  Mutex.lock help_mutex;
  Hashtbl.replace help_table name help;
  Mutex.unlock help_mutex

let builtin_help =
  [
    ("estimates.nonfinite", "Non-finite serving estimates clamped to 0");
    (* The estimator.* counters are tallied once per Estimator.estimate
       call (and per plan behind estimate_interval / first_level_votes)
       from the compiled plan's slots; served plan evaluations do not
       touch them. *)
    ("estimator.decompositions", "Estimate plan slots resolved by decomposition");
    ("estimator.extra_hits", "Lookups the feedback source answered during estimates");
    ("estimator.lookups", "Estimate plan slots resolved (one per distinct sub-twig)");
    ("estimator.summary_hits", "Estimate plan slots resolved to a stored lattice count");
    ("estimator.true_zeros", "Estimate plan slots resolved as true zeros");
    ("experiments.runs", "Experiment drivers executed");
    ("match_count.calls", "Exact twig-count evaluations");
    ("match_count.selectivity", "Distribution of exact twig counts");
    ("miner.candidates_counted", "Candidate patterns whose support was counted");
    ("miner.candidates_generated", "Candidate patterns generated by level-wise extension");
    ("miner.level_patterns", "Patterns kept per mined lattice level");
    ("miner.patterns_kept", "Patterns kept across all mined levels");
    ("miner.roots_visited", "Data nodes at which candidate patterns were counted");
    ("plan.compiles", "Estimation plans compiled");
    ("plan_cache.evictions", "Plans displaced from the shared plan cache");
    ("plan_cache.hits", "Plan lookups served without compiling");
    ("plan_cache.misses", "Plan lookups that compiled");
    ("summary.builds", "Lattice summaries constructed");
    ("summary.entries", "Patterns stored in the most recent summary");
    ("workload.queries_evaluated", "Workload queries evaluated by the harness");
    ("xml.documents_parsed", "XML documents parsed");
    ("xml.input_bytes", "Distribution of parsed XML document sizes");
  ]

let help_for name =
  Mutex.lock help_mutex;
  let registered = Hashtbl.find_opt help_table name in
  Mutex.unlock help_mutex;
  match registered with
  | Some h -> h
  | None -> (
    match List.assoc_opt name builtin_help with
    | Some h -> h
    | None -> "TreeLattice metric " ^ name)

(* One renderer for every exposition surface: the bench/CLI file writers
   and the live {!Exporter} endpoint all call this, so their outputs can
   never drift apart. *)
let to_prometheus snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let header name kind =
    let p = "tl_" ^ sanitize name in
    line "# HELP %s %s" p (help_for name);
    line "# TYPE %s %s" p kind;
    p
  in
  List.iter
    (fun (name, v) ->
      let p = header name "counter" in
      line "%s %d" p v)
    snap.counters;
  List.iter
    (fun (name, v) ->
      let p = header name "gauge" in
      line "%s %d" p v)
    snap.gauges;
  List.iter
    (fun (name, h) ->
      let p = header name "histogram" in
      (* Full cumulative series: every bucket boundary from 0 up to the
         last non-empty bucket, empty buckets included, then +Inf. *)
      let last_floor = List.fold_left (fun _ (floor, _) -> floor) 0 h.h_buckets in
      let cumulative = ref 0 in
      let remaining = ref h.h_buckets in
      let i = ref 0 in
      let continue = ref (h.h_observations > 0) in
      while !continue do
        let floor = bucket_floor !i in
        (match !remaining with
        | (f, count) :: rest when f = floor ->
          cumulative := !cumulative + count;
          remaining := rest
        | _ -> ());
        (* The bucket holding floor f covers values < 2f (or <= 1 for f = 0). *)
        let le = if floor = 0 then 1 else (2 * floor) - 1 in
        line "%s_bucket{le=\"%d\"} %d" p le !cumulative;
        if floor >= last_floor || !i >= bucket_count - 1 then continue := false else Stdlib.incr i
      done;
      line "%s_bucket{le=\"+Inf\"} %d" p h.h_observations;
      line "%s_sum %d" p h.h_sum;
      line "%s_count %d" p h.h_observations)
    snap.histograms;
  Buffer.contents buf

let pp_table snap =
  let buf = Buffer.create 1024 in
  if snap.counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    Buffer.add_string buf
      (Tl_util.Table.render ~header:[ "counter"; "value" ]
         (List.map (fun (n, v) -> [ n; string_of_int v ]) snap.counters))
  end;
  if snap.gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    Buffer.add_string buf
      (Tl_util.Table.render ~header:[ "gauge"; "value" ]
         (List.map (fun (n, v) -> [ n; string_of_int v ]) snap.gauges))
  end;
  if snap.histograms <> [] then begin
    Buffer.add_string buf "histograms (log-scale buckets):\n";
    Buffer.add_string buf
      (Tl_util.Table.render
         ~header:[ "histogram"; "count"; "sum"; "mean"; "min"; "max" ]
         (List.map
            (fun (n, h) ->
              [
                n;
                string_of_int h.h_observations;
                string_of_int h.h_sum;
                (if h.h_observations = 0 then "-"
                 else Printf.sprintf "%.1f" (float_of_int h.h_sum /. float_of_int h.h_observations));
                string_of_int h.h_min;
                string_of_int h.h_max;
              ])
            snap.histograms))
  end;
  Buffer.contents buf
