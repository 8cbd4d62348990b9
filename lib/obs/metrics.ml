(* Metric handles behind one registry.

   Registration is the only operation that touches the registry's
   tables, and it happens under [lock]; recording goes straight to the
   handle's cell: an [Atomic] for counters and gauges, a record behind
   its own mutex for histograms.  So any thread on any domain may record,
   and [snapshot] may walk the series (under [lock], taking each
   histogram's mutex in turn) while they do.  Lock order is registry
   before histogram; recording never takes the registry lock. *)

let bucket_count = 62

type histogram = {
  hlock : Mutex.t;
  mutable observations : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array;
}

type labels = (string * string) list

type counter = int Atomic.t

type gauge = int Atomic.t

type cell = Counter of counter | Gauge of gauge | Histogram of histogram

type series = { name : string; id : string; cell : cell }

let lock = Mutex.create ()

(* Name -> (kind, help), and series id -> series; both guarded by [lock]. *)
let families : (string, string * string) Hashtbl.t = Hashtbl.create 64

let table : (string, series) Hashtbl.t = Hashtbl.create 64

(* Prometheus label-value escaping. *)
let escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | ('\\' | '"') as c -> Buffer.add_char buf '\\'; Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let series_id name = function
  | [] -> name
  | labels ->
    let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
    Printf.sprintf "%s{%s}" name
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) labels))

(* [get] cannot fail: the family's kind was checked first. *)
let register kind fresh get ?(labels = []) ~help name =
  let id = series_id name labels in
  Mutex.protect lock (fun () ->
      (match Hashtbl.find_opt families name with
      | Some (k, _) when k <> kind ->
        invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a %s" name k kind)
      | Some _ -> ()
      | None -> Hashtbl.replace families name (kind, help));
      match Hashtbl.find_opt table id with
      | Some s -> get s.cell
      | None ->
        let cell = fresh () in
        Hashtbl.replace table id { name; id; cell };
        get cell)

let counter =
  register "counter" (fun () -> Counter (Atomic.make 0)) (function Counter c -> c | _ -> assert false)

let gauge =
  register "gauge" (fun () -> Gauge (Atomic.make 0)) (function Gauge g -> g | _ -> assert false)

let histogram =
  register "histogram"
    (fun () ->
      let buckets = Array.make bucket_count 0 in
      Histogram
        { hlock = Mutex.create (); observations = 0; sum = 0; vmin = max_int; vmax = min_int; buckets })
    (function Histogram h -> h | _ -> assert false)

(* --- recording ---------------------------------------------------------- *)

let add c by = ignore (Atomic.fetch_and_add c by)

let incr c = add c 1

let set g v = Atomic.set g v

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

let observe h v =
  let b = bucket_of v in
  Mutex.protect h.hlock (fun () ->
      h.observations <- h.observations + 1;
      h.sum <- h.sum + v;
      if v < h.vmin then h.vmin <- v;
      if v > h.vmax then h.vmax <- v;
      h.buckets.(b) <- h.buckets.(b) + 1)

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
  help : (string * string) list;
}

let read_hist h =
  Mutex.protect h.hlock (fun () ->
      let buckets = ref [] in
      for i = bucket_count - 1 downto 0 do
        if h.buckets.(i) > 0 then buckets := (bucket_floor i, h.buckets.(i)) :: !buckets
      done;
      {
        h_observations = h.observations;
        h_sum = h.sum;
        h_min = (if h.observations = 0 then 0 else h.vmin);
        h_max = (if h.observations = 0 then 0 else h.vmax);
        h_buckets = !buckets;
      })

let snapshot () =
  let series, help =
    Mutex.protect lock (fun () ->
        ( Hashtbl.fold
            (fun _ s acc ->
              let v =
                match s.cell with
                | Counter c -> `Count (Atomic.get c)
                | Gauge g -> `Level (Atomic.get g)
                | Histogram h -> `Dist (read_hist h)
              in
              ((s.name, s.id), v) :: acc)
            table [],
          Hashtbl.fold (fun name (_, help) acc -> (name, help) :: acc) families [] ))
  in
  let series = List.sort (fun (a, _) (b, _) -> compare a b) series in
  let pick f = List.filter_map (fun ((_, id), v) -> Option.map (fun x -> (id, x)) (f v)) series in
  {
    counters = pick (function `Count n -> Some n | _ -> None);
    gauges = pick (function `Level n -> Some n | _ -> None);
    histograms = pick (function `Dist h -> Some h | _ -> None);
    help = List.sort compare help;
  }

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ s ->
          match s.cell with
          | Counter c | Gauge c -> Atomic.set c 0
          | Histogram h ->
            Mutex.protect h.hlock (fun () ->
                h.observations <- 0;
                h.sum <- 0;
                h.vmin <- max_int;
                h.vmax <- min_int;
                Array.fill h.buckets 0 bucket_count 0))
        table)

(* --- rendering ---------------------------------------------------------- *)

let sanitize name =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_') name

(* One renderer for every exposition surface: the bench/CLI file writers
   and the live {!Exporter} endpoint all call this, so their outputs can
   never drift apart. *)
let to_prometheus snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  (* Each series as its prefixed name and the labels inside its braces. *)
  let family kind render series =
    let last = ref "" in
    List.iter
      (fun (id, v) ->
        let name, inner =
          match String.index_opt id '{' with
          | None -> (id, "")
          | Some i -> (String.sub id 0 i, String.sub id (i + 1) (String.length id - i - 2))
        in
        let p = "tl_" ^ sanitize name in
        if name <> !last then begin
          last := name;
          line "# HELP %s %s" p (Option.value (List.assoc_opt name snap.help) ~default:name);
          line "# TYPE %s %s" p kind
        end;
        render p inner v)
      series
  in
  let braces inner = if inner = "" then "" else "{" ^ inner ^ "}" in
  let scalar p inner v = line "%s%s %d" p (braces inner) v in
  family "counter" scalar snap.counters;
  family "gauge" scalar snap.gauges;
  family "histogram"
    (fun p inner h ->
      let le bound = Printf.sprintf "{%sle=\"%s\"}" (if inner = "" then "" else inner ^ ",") bound in
      (* Full cumulative series: every bucket boundary from 0 up to the
         last non-empty bucket, empty buckets included, then +Inf.  The
         bucket holding floor f covers values < 2f (or <= 1 for f = 0). *)
      let last = List.fold_left (fun _ (floor, _) -> bucket_of floor) 0 h.h_buckets in
      let cumulative = ref 0 in
      if h.h_observations > 0 then
        for i = 0 to last do
          let floor = bucket_floor i in
          cumulative := !cumulative + Option.value (List.assoc_opt floor h.h_buckets) ~default:0;
          line "%s_bucket%s %d" p (le (string_of_int (max 1 ((2 * floor) - 1)))) !cumulative
        done;
      line "%s_bucket%s %d" p (le "+Inf") h.h_observations;
      line "%s_sum%s %d" p (braces inner) h.h_sum;
      line "%s_count%s %d" p (braces inner) h.h_observations)
    snap.histograms;
  Buffer.contents buf
