module Xorshift = Tl_util.Xorshift
module Xml_dom = Tl_xml.Xml_dom

type gen = Xorshift.t -> Xml_dom.element

type kids = Xorshift.t -> Xml_dom.element list

type count =
  | Const of int
  | Uniform of int * int
  | Geometric of float * int
  | Zipf of int * float
  | Shifted of int * count

let rec sample_count rng = function
  | Const n -> n
  | Uniform (lo, hi) -> Xorshift.int_in rng lo hi
  | Geometric (p, cap) -> min cap (Xorshift.geometric rng p)
  | Zipf (n, s) -> Xorshift.zipf rng ~n ~s
  | Shifted (offset, c) -> offset + sample_count rng c

let elem tag groups rng =
  let children = List.concat_map (fun group -> group rng) groups in
  Xml_dom.element tag (List.map (fun e -> Xml_dom.Element e) children)

let leaf tag _rng = Xml_dom.element tag []

let one g rng = [ g rng ]

let opt p g rng = if Xorshift.bernoulli rng p then [ g rng ] else []

let repeat count g rng = List.init (sample_count rng count) (fun _ -> g rng)

let choice weighted rng =
  let choices = Array.of_list weighted in
  [ (Xorshift.pick_weighted rng choices) rng ]

let group gs rng = List.concat_map (fun g -> g rng) gs

let nothing _rng = []

let cond p ~then_ ~else_ rng = if Xorshift.bernoulli rng p then then_ rng else else_ rng

let rec element_count (el : Xml_dom.element) =
  List.fold_left
    (fun acc node ->
      match node with
      | Xml_dom.Element e -> acc + element_count e
      | Xml_dom.Text _ | Xml_dom.Comment _ | Xml_dom.Pi _ -> acc)
    1 el.children

let generate_document ~root ~record ?(prologue = []) ~target ~seed () =
  let rng = Xorshift.create seed in
  let fixed = List.map (fun g -> g rng) prologue in
  let so_far = ref (1 + List.fold_left (fun acc e -> acc + element_count e) 0 fixed) in
  let records = ref [] in
  let continue () = !so_far < target || !records = [] in
  while continue () do
    let r = record rng in
    so_far := !so_far + element_count r;
    records := r :: !records
  done;
  Xml_dom.element root (List.map (fun e -> Xml_dom.Element e) (fixed @ List.rev !records))
