(* Seeded inputs: the four generated documents and, per dataset, the pool
   of query lines a workload draws from.  The program under test sees only
   what is written here: XML files and query lines. *)

module Dataset = Tl_datasets.Dataset
module Data_tree = Tl_tree.Data_tree
module Twig = Tl_twig.Twig
module Workload = Tl_workload.Workload
module Xorshift = Tl_util.Xorshift

type doc = { name : string; xml : string; summary : string }

(* Dataset order is the paper's Table 1 order: nasa, imdb, xmark, psd. *)
let write_documents ~work ~target ~seed =
  List.mapi
    (fun i (d : Dataset.t) ->
      let xml = Filename.concat work (d.Dataset.name ^ ".xml") in
      let root = d.Dataset.document ~target ~seed:((seed * 7919) + i) in
      Tl_xml.Xml_writer.to_file ~indent:true xml { decl = Some [ ("version", "1.0") ]; root };
      { name = d.Dataset.name; xml; summary = Filename.concat work (d.Dataset.name ^ ".summary") })
    Dataset.all

(* One distinct query line: the text sent (with its [NAME:] route and
   newline) and the query as the server sees it after routing. *)
type entry = { line : string; query : string }

type mix = Hot | Churn

(* A dataset's pool: [entries] plus the draw that picks one. *)
type pool = { dataset : string; entries : entry array; draw : Xorshift.t -> int }

let xpath_share = 0.25

let render ~names ~xpath ~anchored twig =
  if xpath then
    Tl_twig.Xpath.to_string (Tl_twig.Xpath.of_twig_ast ~anchored (Tl_twig.Twig_parse.of_twig ~names twig))
  else Twig.pp ~names twig

let entry dataset query = { line = Printf.sprintf "%s:%s\n" dataset query; query }

(* Occurring twigs of the given sizes, interleaved by size (one of each
   size in turn, while a size lasts), so any prefix of the array — the head
   of a zipf draw — mixes sizes alike whatever the seed. *)
let positives ~seed ctx ~sizes ~count =
  let per_size =
    List.map
      (fun (wl : Workload.t) -> Array.map (fun (q : Workload.query) -> q.Workload.twig) wl.Workload.queries)
      (Workload.positive_sweep ~seed ctx ~sizes ~count)
  in
  let longest = List.fold_left (fun acc a -> max acc (Array.length a)) 0 per_size in
  Array.of_list
    (List.concat
       (List.init longest (fun i -> List.filter_map (fun a -> if i < Array.length a then Some a.(i) else None) per_size)))

(* Every twig appears twice: in twig syntax at index i and in XPath syntax
   at index n + i.  XPath lines are anchored at the document root half the
   time, so both the scaled and the plain XPath answers are exercised. *)
let both_syntaxes rng ~dataset ~names ~root_label twigs =
  let n = Array.length twigs in
  Array.init (2 * n) (fun i ->
      let twig = twigs.(i mod n) in
      let xpath = i >= n in
      let anchored = xpath && (twig.Twig.label = root_label || Xorshift.bool rng) in
      entry dataset (render ~names ~xpath ~anchored twig))

let pick_syntax rng n i = if Xorshift.bernoulli rng xpath_share then n + i else i

(* Hot: zipf-skewed (s = 1.1) draws over a few hundred distinct occurring
   twigs of 2-6 nodes, few enough that the plan cache (1024 plans per
   dataset) holds them all.  Churn: uniform draws over thousands of 4-8
   node twigs, more than the plan cache holds, plus 10% zero-selectivity
   lines — half negative mutants, half carrying a tag no document has. *)
let pool ~seed ~mix ~dataset tree =
  let ctx = Tl_twig.Match_count.create_ctx tree in
  let names = Data_tree.label_name tree in
  let root_label = Data_tree.label tree (Data_tree.root tree) in
  let rng = Xorshift.create (seed lxor 0x5bd1e995) in
  match mix with
  | Hot ->
    let twigs = positives ~seed ctx ~sizes:[ 2; 3; 4; 5; 6 ] ~count:60 in
    let n = Array.length twigs in
    let entries = both_syntaxes rng ~dataset ~names ~root_label twigs in
    (* Xorshift.zipf caches its table in a global Hashtbl; filling it here,
       before any client thread runs, leaves the threads only reading it. *)
    ignore (Xorshift.zipf (Xorshift.create 1) ~n ~s:1.1);
    { dataset; entries; draw = (fun r -> pick_syntax r n (Xorshift.zipf r ~n ~s:1.1 - 1)) }
  | Churn ->
    let twigs = positives ~seed ctx ~sizes:[ 4; 5; 6; 7; 8 ] ~count:700 in
    let n = Array.length twigs in
    let base = { Workload.size = 0; sanity = 0.0; queries = Array.map (fun twig -> { Workload.twig; truth = 1 }) twigs } in
    let negatives =
      Array.map
        (fun (q : Workload.query) -> entry dataset (Twig.pp ~names q.Workload.twig))
        (Workload.negative ~seed:(seed + 17) ctx ~base ~count:150).Workload.queries
    in
    (* A tag name the generators never emit; relabelling one node of an
       occurring twig with it makes a query whose answer must be 0.  The
       label id is one past the document's, only used to render the text. *)
    let unknown = Data_tree.label_count tree in
    let novel =
      Array.init 150 (fun j ->
          let twig = twigs.(Xorshift.int rng n) in
          let size = Twig.size twig in
          let target = Xorshift.int rng size in
          let tag = Printf.sprintf "nx%d_%d" seed j in
          let pos = ref (-1) in
          let names' l = if l = unknown then tag else names l in
          let rec relabel (t : Twig.t) =
            incr pos;
            let label = if !pos = target then unknown else t.Twig.label in
            Twig.node label (List.map relabel t.Twig.children)
          in
          entry dataset (Twig.pp ~names:names' (relabel twig)))
    in
    let entries = Array.concat [ both_syntaxes rng ~dataset ~names ~root_label twigs; negatives; novel ] in
    let n_neg = Array.length negatives and n_novel = Array.length novel in
    let draw r =
      let u = Xorshift.float r 1.0 in
      if u < 0.05 && n_neg > 0 then (2 * n) + Xorshift.int r n_neg
      else if u < 0.10 then (2 * n) + n_neg + Xorshift.int r n_novel
      else pick_syntax r n (Xorshift.int r n)
    in
    { dataset; entries; draw }

(* One request: [size] lines routed round robin over the datasets, drawn
   with the client's own generator.  Returns the request bytes (ending in
   the blank flush line) and, per line, (pool index, entry index). *)
let batch rng pools ~size =
  let n_pools = Array.length pools in
  let picks = Array.make size (0, 0) in
  let buf = Buffer.create (size * 48) in
  for j = 0 to size - 1 do
    let p = j mod n_pools in
    let e = pools.(p).draw rng in
    picks.(j) <- (p, e);
    Buffer.add_string buf pools.(p).entries.(e).line
  done;
  Buffer.add_char buf '\n';
  (Buffer.contents buf, picks)
