module Data_tree = Tl_tree.Data_tree
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator

type t = { vtree : Value_tree.t; structural : Summary.t; values : Value_summary.t }

let create ?(k = 4) ?(top = 32) vtree =
  { vtree; structural = Summary.build ~k (Value_tree.tree vtree); values = Value_summary.build ~top vtree }

let vtree t = t.vtree

let structural t = t.structural

let values t = t.values

let estimate ?(scheme = Tl_core.Treelattice.default_scheme) t query =
  let query = Value_query.canonicalize query in
  let structural_estimate = Estimator.estimate t.structural scheme (Value_query.strip query) in
  if structural_estimate = 0.0 then 0.0
  else
    List.fold_left
      (fun acc (label, value) -> acc *. Value_summary.value_probability t.values label value)
      structural_estimate (Value_query.predicates query)

let exact t query = Value_match.selectivity t.vtree query

let parse t query =
  let tree = Value_tree.tree t.vtree in
  Value_query.parse ~intern:(fun tag -> Some (Data_tree.intern_label tree tag)) query

let estimate_string ?scheme t query = Result.map (estimate ?scheme t) (parse t query)

let exact_string t query = Result.map (exact t) (parse t query)
