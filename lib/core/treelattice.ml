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

let parse_query t query =
  (* Unknown tags are interned fresh: they occur nowhere, so the twig has
     true selectivity 0 and every estimator correctly reports ~0 for it. *)
  Tl_twig.Twig_parse.parse_twig ~intern:(fun tag -> Some (Data_tree.intern_label t.tree tag)) query

let estimate_string ?scheme t query = Result.map (estimate ?scheme t) (parse_query t query)

let exact_string t query = Result.map (exact t) (parse_query t query)

let pp_twig t twig = Twig.pp ~names:(Data_tree.label_name t.tree) twig

(* --- XPath frontend ------------------------------------------------------ *)

let parse_xpath t query =
  match Tl_twig.Xpath.parse query with
  | Error msg -> Error msg
  | Ok xp ->
    (match Tl_twig.Xpath.to_twig ~intern:(fun tag -> Some (Data_tree.intern_label t.tree tag)) xp with
    | Ok twig -> Ok (xp.Tl_twig.Xpath.anchored, twig)
    | Error msg -> Error msg)

(* Anchored: only matches rooted at THE root count.  Assuming matches
   spread uniformly over root-labeled nodes (exact when the root tag occurs
   once, the usual case for XML). *)
let anchored_scale tree (twig : Twig.t) estimate =
  let root_label = Data_tree.label tree (Data_tree.root tree) in
  if twig.Twig.label <> root_label then 0.0
  else
    let occurrences = Array.length (Data_tree.nodes_with_label tree root_label) in
    estimate /. float_of_int (max 1 occurrences)

let estimate_xpath ?scheme t query =
  match parse_xpath t query with
  | Error _ as e -> e |> Result.map (fun _ -> 0.0)
  | Ok (anchored, twig) ->
    let estimate = estimate ?scheme t twig in
    Ok (if anchored then anchored_scale t.tree twig estimate else estimate)

let exact_xpath t query =
  match parse_xpath t query with
  | Error msg -> Error msg
  | Ok (anchored, twig) ->
    if anchored then Ok (Match_count.selectivity_rooted t.ctx twig (Data_tree.root t.tree))
    else Ok (exact t twig)

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
