type node = int
type label = int

type t = {
  interner : Tl_util.Interner.t;
  labels : label array;
  parents : node array;  (* -1 for the root *)
  children : node array array;  (* document order *)
  (* The children of [v] sorted by (label, document order) are the entries
     [kid_start.(v)] to [kid_start.(v + 1) - 1] of [kid_nodes], and
     [kid_labels] holds each entry's label, so a label range is a binary
     search over one contiguous int array. *)
  kid_start : int array;  (* n + 1 offsets *)
  kid_nodes : node array;
  kid_labels : label array;
  by_label : node array array;  (* label -> nodes in preorder *)
  edge_pairs : (label * label, unit) Hashtbl.t;
}

(* --- construction ------------------------------------------------------ *)

(* Derive the by-label, flat child index and edge-pair indices from the
   core arrays. *)
let assemble interner labels parents children =
  let n = Array.length labels in
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
  (* Walking each label's preorder list in label order and appending every
     node to its parent's next slot leaves each parent's slots sorted by
     (label, document order), with no comparisons. *)
  let kid_start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    kid_start.(v + 1) <- kid_start.(v) + Array.length children.(v)
  done;
  let kid_nodes = Array.make (n - 1) 0 and kid_labels = Array.make (n - 1) 0 in
  let next = Array.sub kid_start 0 n in
  for l = 0 to nlabels - 1 do
    Array.iter
      (fun v ->
        let p = parents.(v) in
        if p >= 0 then begin
          kid_nodes.(next.(p)) <- v;
          kid_labels.(next.(p)) <- l;
          next.(p) <- next.(p) + 1
        end)
      by_label.(l)
  done;
  let edge_pairs = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    let p = parents.(v) in
    if p >= 0 then Hashtbl.replace edge_pairs (labels.(p), labels.(v)) ()
  done;
  { interner; labels; parents; children; kid_start; kid_nodes; kid_labels; by_label; edge_pairs }

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

(* The first of the child-index entries [lo, hi) whose label is at least
   [l], or [hi]: entries are sorted by label within a node's range. *)
let first_label_at_least t lo hi l =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.kid_labels.(mid) < l then lo := mid + 1 else hi := mid
  done;
  !lo

let children_with_label t v l =
  let lo = first_label_at_least t t.kid_start.(v) t.kid_start.(v + 1) l in
  let hi = first_label_at_least t lo t.kid_start.(v + 1) (l + 1) in
  Array.sub t.kid_nodes lo (hi - lo)

let count_children_with_label t v l =
  let lo = first_label_at_least t t.kid_start.(v) t.kid_start.(v + 1) l in
  first_label_at_least t lo t.kid_start.(v + 1) (l + 1) - lo

(* One search: the fold walks the run of [l] until its label changes. *)
let fold_children_with_label t v l f acc =
  let stop = t.kid_start.(v + 1) in
  let i = ref (first_label_at_least t t.kid_start.(v) stop l) in
  let acc = ref acc in
  while !i < stop && t.kid_labels.(!i) = l do
    acc := f !acc t.kid_nodes.(!i);
    incr i
  done;
  !acc

let nodes_with_label t l = if l < 0 || l >= Array.length t.by_label then [||] else t.by_label.(l)

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
