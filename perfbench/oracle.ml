(* The correctness oracle, computed in the bench process before timing.

   Served answers are checked bit for bit against
   [Registry.parse_query] + [Estimator.estimate] on the same summary —
   the direct estimator path, not the plan cache the server uses — with
   the anchored-XPath scaling the parse returns.  Built summaries are
   checked against the document with [Match_count]. *)

module Registry = Tl_serve.Registry
module Estimator = Tl_core.Estimator
module Summary = Tl_lattice.Summary
module Data_tree = Tl_tree.Data_tree
module Match_count = Tl_twig.Match_count
module Twig = Tl_twig.Twig
module Xorshift = Tl_util.Xorshift

(* The server is started with [--scheme voting -k 4]; these must agree. *)
let scheme = Estimator.Recursive_voting

let scheme_name = Estimator.scheme_name scheme

let registry () = Registry.create ~config:{ Registry.default_config with Registry.scheme; k = 4 } ()

let bundle reg name =
  match Registry.find reg name with Some b -> b | None -> failwith ("oracle: no dataset " ^ name)

(* The expected estimate text ([%.17g], as the server prints it) of every
   entry of every pool. *)
let expected reg (pools : Inputs.pool array) =
  Array.map
    (fun (pool : Inputs.pool) ->
      let b = bundle reg pool.Inputs.dataset in
      let summary = Registry.summary b in
      let memo = Hashtbl.create 1024 in
      let estimate twig =
        let id = Twig.Key.id (Twig.key twig) in
        match Hashtbl.find_opt memo id with
        | Some v -> v
        | None ->
          let v = Estimator.estimate summary scheme twig in
          Hashtbl.replace memo id v;
          v
      in
      Array.map
        (fun (e : Inputs.entry) ->
          match Registry.parse_query b e.Inputs.query with
          | Ok (twig, transform) -> Printf.sprintf "%.17g" (transform (estimate twig))
          | Error msg -> failwith (Printf.sprintf "oracle: generated query %S rejected: %s" e.Inputs.query msg))
        pool.Inputs.entries)
    pools

(* Problems with one built summary file, checked against its document:
   - the entry count equals [entries] (the same document mined in this
     process) and the level-1 entries are exactly the
     document's tags with their node counts;
   - a seeded sample of 48 stored entries has the exact count;
   - a seeded sample of occurring twigs of 2-4 nodes is stored, with the
     exact count (completeness). *)
let check_summary ~seed ~entries ctx path =
  let tree = Match_count.tree ctx in
  let summary, names = Tl_lattice.Summary_io.load_file path in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := (path ^ ": " ^ s) :: !problems) fmt in
  let to_tree = Array.map (Data_tree.label_of_string tree) names in
  let of_tree = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace of_tree n i) names;
  if Array.exists Option.is_none to_tree then problem "labels outside the document"
  else begin
    let relabel = Twig.map_labels (fun l -> Option.get to_tree.(l)) in
    if Summary.entries summary <> entries then
      problem "%d entries, expected %d" (Summary.entries summary) entries;
    let level1 = Summary.level summary 1 in
    if List.length level1 <> Data_tree.label_count tree then
      problem "%d level-1 entries for %d tags" (List.length level1) (Data_tree.label_count tree);
    List.iter
      (fun (twig, count) ->
        let l = Option.get to_tree.(twig.Twig.label) in
        if Array.length (Data_tree.nodes_with_label tree l) <> count then
          problem "tag %s stored with count %d" names.(twig.Twig.label) count)
      level1;
    let stored = Array.of_list (Summary.fold (fun twig count acc -> (twig, count) :: acc) summary []) in
    let rng = Xorshift.create (seed + 4242) in
    Array.iter
      (fun (twig, count) ->
        let exact = Match_count.selectivity ctx (relabel twig) in
        if exact <> count then problem "entry stored with count %d, exact %d" count exact)
      (Xorshift.sample_without_replacement rng (min 48 (Array.length stored)) stored);
    let to_summary l = Hashtbl.find of_tree (Data_tree.label_name tree l) in
    List.iter
      (fun (wl : Tl_workload.Workload.t) ->
        Array.iter
          (fun (q : Tl_workload.Workload.query) ->
            match Summary.find summary (Twig.map_labels to_summary q.Tl_workload.Workload.twig) with
            | Some c when c = q.Tl_workload.Workload.truth -> ()
            | Some c -> problem "occurring twig stored with count %d, exact %d" c q.Tl_workload.Workload.truth
            | None -> problem "occurring twig of %d nodes missing" wl.Tl_workload.Workload.size)
          wl.Tl_workload.Workload.queries)
      (Tl_workload.Workload.positive_sweep ~seed:(seed + 99) ctx ~sizes:[ 2; 3; 4 ] ~count:8)
  end;
  List.rev !problems
