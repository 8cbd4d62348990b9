module Data_tree = Tl_tree.Data_tree
module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count
module Summary = Tl_lattice.Summary

type t = { tree : Data_tree.t; ctx : Match_count.ctx; summary : Summary.t }

let of_summary tree summary = { tree; ctx = Match_count.create_ctx tree; summary }

let build ?pool ?(k = 4) tree = of_summary tree (Summary.build ?pool ~k tree)

let tree t = t.tree

let summary t = t.summary

let k t = Summary.k t.summary

let default_scheme = Estimator.Recursive_voting

let estimate ?(scheme = default_scheme) t twig = Estimator.estimate t.summary scheme twig

let estimate_interval t twig = Estimator.estimate_interval t.summary twig

let exact t twig = Match_count.selectivity t.ctx twig

(* Anchored: only matches rooted at THE root count.  Assuming matches
   spread uniformly over root-labeled nodes (exact when the root tag occurs
   once, the usual case for XML). *)
let anchored_scale tree (twig : Twig.t) estimate =
  let root_label = Data_tree.label tree (Data_tree.root tree) in
  if twig.Twig.label <> root_label then 0.0
  else
    let occurrences = Array.length (Data_tree.nodes_with_label tree root_label) in
    estimate /. float_of_int (max 1 occurrences)

(* --- query text ---------------------------------------------------------- *)

let parse_text t text =
  let size = Data_tree.label_count t.tree in
  Tl_twig.Query.parse ~size ~find:(Data_tree.label_of_string t.tree) text

let estimate_text ?scheme t text =
  Result.map
    (fun { Tl_twig.Query.twig; anchored; _ } ->
      let estimate = estimate ?scheme t twig in
      if anchored then anchored_scale t.tree twig estimate else estimate)
    (parse_text t text)

let exact_text t text =
  Result.map
    (fun { Tl_twig.Query.twig; anchored; _ } ->
      if anchored then Match_count.selectivity_rooted t.ctx twig (Data_tree.root t.tree)
      else exact t twig)
    (parse_text t text)

let prune ?scheme t ~delta = { t with summary = Derivable.prune ?scheme t.summary ~delta }

let add_document ?pool t other =
  let remap = Array.map (Data_tree.intern_label t.tree) (Data_tree.label_names other) in
  let mined = Tl_mining.Miner.mine ?pool (Match_count.create_ctx other) ~max_size:(k t) in
  let remapped =
    List.map
      (fun (twig, count) -> (Twig.canonicalize (Twig.map_labels (fun l -> remap.(l)) twig), count))
      (Tl_mining.Miner.all mined)
  in
  let other_summary = Summary.of_patterns ~k:(k t) ~complete:true remapped in
  { t with summary = Summary.merge t.summary other_summary }
