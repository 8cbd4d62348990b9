module Data_tree = Tl_tree.Data_tree

(* Indexed value query: preorder arrays plus per-node sibling groups, where
   a group key is (label, value constraint) — two same-label children with
   different constraints are distinct assignment targets and must land on
   distinct data children, hence the permanent runs per (label) with
   per-member value checks folded into the match counts. *)
type qnode = { qlabel : int; qvalue : string option; groups : (int * int array) array }

let prepare query =
  let query = Value_query.canonicalize query in
  let nodes = ref [] in
  let next = ref 0 in
  let rec walk (q : Value_query.t) =
    let id = !next in
    incr next;
    let kid_ids = List.map walk q.Value_query.children in
    nodes := (id, q, kid_ids) :: !nodes;
    id
  in
  ignore (walk query);
  let n = !next in
  let qnodes = Array.make n { qlabel = 0; qvalue = None; groups = [||] } in
  List.iter
    (fun (id, (q : Value_query.t), kid_ids) ->
      let by_label = Hashtbl.create 4 in
      List.iter2
        (fun (c : Value_query.t) cid ->
          let l = c.Value_query.label in
          Hashtbl.replace by_label l (cid :: Option.value ~default:[] (Hashtbl.find_opt by_label l)))
        q.Value_query.children kid_ids;
      let groups =
        Hashtbl.fold (fun l members acc -> (l, Array.of_list (List.rev members)) :: acc) by_label []
      in
      qnodes.(id) <- { qlabel = q.Value_query.label; qvalue = q.Value_query.value; groups = Array.of_list groups })
    !nodes;
  qnodes

let value_ok vtree v = function
  | None -> true
  | Some expected -> (
    match Value_tree.value vtree v with Some actual -> String.equal actual expected | None -> false)

(* No memo, as in {!Tl_twig.Match_count}: a pair (w, q) is reached only
   from (parent of w, parent of q), so the only repeated work would be a
   sibling group's mask loop, which reads sub-counts computed once per data
   child.  That loop is Match_count's own; only the value checks are
   local. *)
let run vtree query =
  let tree = Value_tree.tree vtree in
  let qnodes = prepare query in
  let rec node_count v q =
    let { qvalue; groups; _ } = qnodes.(q) in
    if not (value_ok vtree v qvalue) then 0
    else begin
      let total = ref 1 in
      let gi = ref 0 in
      while !total <> 0 && !gi < Array.length groups do
        let group_label, group = groups.(!gi) in
        total := !total * group_count group_label group v;
        incr gi
      done;
      !total
    end
  and group_count group_label group v =
    let m = Array.length group in
    if m = 1 then
      Data_tree.fold_children_with_label tree v group_label
        (fun acc w -> acc + node_count w group.(0))
        0
    else begin
      let c = Data_tree.count_children_with_label tree v group_label in
      let subs = Array.make (c * m) 0 in
      ignore
        (Data_tree.fold_children_with_label tree v group_label
           (fun row w ->
             for i = 0 to m - 1 do
               subs.((row * m) + i) <- node_count w group.(i)
             done;
             row + 1)
           0);
      Tl_twig.Match_count.injective_assignments ~members:m subs
    end
  in
  (qnodes, node_count)

let selectivity vtree query =
  let query = Value_query.canonicalize query in
  let qnodes, node_count = run vtree query in
  let tree = Value_tree.tree vtree in
  Array.fold_left
    (fun acc v -> acc + node_count v 0)
    0
    (Data_tree.nodes_with_label tree qnodes.(0).qlabel)

let selectivity_rooted vtree query v =
  let query = Value_query.canonicalize query in
  let qnodes, node_count = run vtree query in
  if Data_tree.label (Value_tree.tree vtree) v = qnodes.(0).qlabel then node_count v 0 else 0
