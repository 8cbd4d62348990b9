type node = int
type label = int

type t = {
  interner : Tl_util.Interner.t;
  labels : label array;
  parents : node array;  (* -1 for the root *)
  children : node array array;  (* document order *)
  children_sorted : node array array;  (* sorted by (label, document order) *)
  by_label : node array array;  (* label -> nodes in preorder *)
  edge_pairs : (label * label, unit) Hashtbl.t;
  subtree_sizes : int array;
}

(* --- construction ------------------------------------------------------ *)

(* Derive the sorted-children, by-label, and edge-pair indices from the
   core arrays. *)
let assemble interner labels parents children =
  let n = Array.length labels in
  let children_sorted =
    Array.map
      (fun kids ->
        let sorted = Array.copy kids in
        Array.sort (fun a b -> compare (labels.(a), a) (labels.(b), b)) sorted;
        sorted)
      children
  in
  let nlabels = Tl_util.Interner.size interner in
  let by_label_counts = Array.make nlabels 0 in
  Array.iter (fun l -> by_label_counts.(l) <- by_label_counts.(l) + 1) labels;
  let by_label = Array.init nlabels (fun l -> Array.make by_label_counts.(l) 0) in
  let fill = Array.make nlabels 0 in
  for v = 0 to n - 1 do
    let l = labels.(v) in
    by_label.(l).(fill.(l)) <- v;
    fill.(l) <- fill.(l) + 1
  done;
  let edge_pairs = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    let p = parents.(v) in
    if p >= 0 then Hashtbl.replace edge_pairs (labels.(p), labels.(v)) ()
  done;
  (* Preorder ids make each subtree a contiguous range; sizes accumulate in
     one reverse sweep. *)
  let subtree_sizes = Array.make n 1 in
  for v = n - 1 downto 1 do
    subtree_sizes.(parents.(v)) <- subtree_sizes.(parents.(v)) + subtree_sizes.(v)
  done;
  { interner; labels; parents; children; children_sorted; by_label; edge_pairs; subtree_sizes }

let of_preorder ~tags ~parents =
  let n = Array.length tags in
  if n = 0 then invalid_arg "Data_tree.of_preorder: empty node sequence";
  if Array.length parents <> n then invalid_arg "Data_tree.of_preorder: length mismatch";
  if parents.(0) <> -1 then invalid_arg "Data_tree.of_preorder: node 0 must be the root";
  for v = 1 to n - 1 do
    if parents.(v) < 0 || parents.(v) >= v then
      invalid_arg "Data_tree.of_preorder: parents must precede children in preorder"
  done;
  let interner = Tl_util.Interner.create () in
  let labels = Array.map (Tl_util.Interner.intern interner) tags in
  let parents = Array.copy parents in
  let fanouts = Array.make n 0 in
  for v = 1 to n - 1 do
    fanouts.(parents.(v)) <- fanouts.(parents.(v)) + 1
  done;
  let children = Array.init n (fun v -> Array.make fanouts.(v) 0) in
  let fill = Array.make n 0 in
  for v = 1 to n - 1 do
    let p = parents.(v) in
    children.(p).(fill.(p)) <- v;
    fill.(p) <- fill.(p) + 1
  done;
  assemble interner labels parents children

(* Preorder tags and parents for [of_preorder]: an explicit stack keeps
   deep documents off the call stack, and pushing each element's children
   ahead of the rest keeps preorder. *)
let of_element root_el =
  let tags = ref [] and parents = ref [] and next_id = ref 0 in
  let stack = ref [ (root_el, -1) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (el, parent) :: rest ->
      let id = !next_id in
      incr next_id;
      tags := el.Tl_xml.Xml_dom.tag :: !tags;
      parents := parent :: !parents;
      let kids =
        List.filter_map
          (function
            | Tl_xml.Xml_dom.Element e -> Some (e, id)
            | Tl_xml.Xml_dom.Text _ | Tl_xml.Xml_dom.Comment _ | Tl_xml.Xml_dom.Pi _ -> None)
          el.Tl_xml.Xml_dom.children
      in
      stack := kids @ rest
  done;
  of_preorder ~tags:(Array.of_list (List.rev !tags)) ~parents:(Array.of_list (List.rev !parents))

let of_xml (doc : Tl_xml.Xml_dom.t) = of_element doc.root

(* --- accessors ---------------------------------------------------------- *)

let root _ = 0
let size t = Array.length t.labels
let label t v = t.labels.(v)
let label_name t l = Tl_util.Interner.name t.interner l
let label_of_string t s = Tl_util.Interner.find t.interner s
let label_count t = Tl_util.Interner.size t.interner
let label_names t = Tl_util.Interner.names t.interner
let intern_label t s = Tl_util.Interner.intern t.interner s
let parent t v = if t.parents.(v) < 0 then None else Some t.parents.(v)
let children t v = t.children.(v)
let fanout t v = Array.length t.children.(v)

(* Locate the range [lo, hi) of [l]-labeled entries in the sorted children
   array of [v]. *)
let label_range t v l =
  let sorted = t.children_sorted.(v) in
  let n = Array.length sorted in
  let rec lower lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.labels.(sorted.(mid)) < l then lower (mid + 1) hi else lower lo mid
  in
  let rec upper lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.labels.(sorted.(mid)) <= l then upper (mid + 1) hi else upper lo mid
  in
  let lo = lower 0 n in
  let hi = upper lo n in
  (sorted, lo, hi)

let children_with_label t v l =
  let sorted, lo, hi = label_range t v l in
  Array.sub sorted lo (hi - lo)

let count_children_with_label t v l =
  let _, lo, hi = label_range t v l in
  hi - lo

let fold_children_with_label t v l f acc =
  let sorted, lo, hi = label_range t v l in
  let acc = ref acc in
  for i = lo to hi - 1 do
    acc := f !acc sorted.(i)
  done;
  !acc

let nodes_with_label t l = if l < 0 || l >= Array.length t.by_label then [||] else t.by_label.(l)

let subtree_end t v = v + t.subtree_sizes.(v)

let is_descendant t w ~ancestor = w > ancestor && w < subtree_end t ancestor

(* Range [lo, hi) of entries in the preorder-sorted [arr] with values in
   (v, subtree_end v). *)
let descendant_range t v arr =
  let n = Array.length arr in
  let stop = subtree_end t v in
  let rec lower lo hi = (* first index with arr.(i) > v *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid) <= v then lower (mid + 1) hi else lower lo mid
  in
  let rec upper lo hi = (* first index with arr.(i) >= stop *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid) < stop then upper (mid + 1) hi else upper lo mid
  in
  let lo = lower 0 n in
  let hi = upper lo n in
  (lo, hi)

let descendants_with_label t v l =
  let arr = nodes_with_label t l in
  let lo, hi = descendant_range t v arr in
  Array.sub arr lo (hi - lo)

let fold_descendants_with_label t v l f acc =
  let arr = nodes_with_label t l in
  let lo, hi = descendant_range t v arr in
  let acc = ref acc in
  for i = lo to hi - 1 do
    acc := f !acc arr.(i)
  done;
  !acc

let edge_label_pairs t = Hashtbl.fold (fun pair () acc -> pair :: acc) t.edge_pairs []

let has_edge_labels t lp lc = Hashtbl.mem t.edge_pairs (lp, lc)

let postorder t =
  let n = size t in
  let order = Array.make n 0 in
  let next = ref 0 in
  (* Preorder ids guarantee children have larger ids than parents, so a
     reverse sweep that emits a node after all its descendants is simply
     decreasing id order... which is NOT postorder.  Use an explicit
     two-phase stack instead. *)
  let stack = ref [ (0, false) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (v, expanded) :: rest ->
      stack := rest;
      if expanded then begin
        order.(!next) <- v;
        incr next
      end
      else begin
        stack := (v, true) :: !stack;
        let kids = t.children.(v) in
        for i = Array.length kids - 1 downto 0 do
          stack := (kids.(i), false) :: !stack
        done
      end
  done;
  order

let iter_nodes t f =
  for v = 0 to size t - 1 do
    f v
  done

let depth t =
  let n = size t in
  let depths = Array.make n 1 in
  let deepest = ref 1 in
  (* Preorder ids: parents precede children, so one forward pass works. *)
  for v = 1 to n - 1 do
    depths.(v) <- depths.(t.parents.(v)) + 1;
    if depths.(v) > !deepest then deepest := depths.(v)
  done;
  !deepest
