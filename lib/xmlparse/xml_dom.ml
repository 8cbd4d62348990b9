type node =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of string * string

and element = { tag : string; attrs : (string * string) list; children : node list }

type t = { decl : (string * string) list option; root : element }

let element ?(attrs = []) tag children = { tag; attrs; children }

(* --- parsing ----------------------------------------------------------- *)

(* An element whose close event has not arrived yet; children accumulate
   in reverse. *)
type open_element = { o_tag : string; o_attrs : (string * string) list; mutable o_kids : node list }

(* Fold the scanner's events into a document.  Comments and PIs outside
   the root have no parent and are dropped. *)
let build parse =
  let decl = ref None and root = ref None and stack = ref [] in
  let add node = match !stack with top :: _ -> top.o_kids <- node :: top.o_kids | [] -> () in
  parse (function
    | Xml_sax.Declaration attrs -> decl := Some attrs
    | Xml_sax.Start_element (tag, attrs) -> stack := { o_tag = tag; o_attrs = attrs; o_kids = [] } :: !stack
    | Xml_sax.End_element _ -> (
      match !stack with
      | top :: rest ->
        let el = { tag = top.o_tag; attrs = top.o_attrs; children = List.rev top.o_kids } in
        stack := rest;
        if rest = [] then root := Some el else add (Element el)
      | [] -> ())
    | Xml_sax.Text s -> add (Text s)
    | Xml_sax.Comment c -> add (Comment c)
    | Xml_sax.Pi (target, body) -> add (Pi (target, body)));
  (* The scanner rejects a document without a root element. *)
  { decl = !decl; root = Option.get !root }

let parse_string input = build (Xml_sax.parse_string input)

let parse_file path = build (Xml_sax.parse_file path)

(* --- queries ----------------------------------------------------------- *)

let rec equal_element a b =
  String.equal a.tag b.tag
  && List.equal (fun (k, v) (k', v') -> String.equal k k' && String.equal v v') a.attrs b.attrs
  && List.equal equal_node a.children b.children

and equal_node a b =
  match (a, b) with
  | Element a, Element b -> equal_element a b
  | Text a, Text b | Comment a, Comment b -> String.equal a b
  | Pi (t, c), Pi (t', c') -> String.equal t t' && String.equal c c'
  | (Element _ | Text _ | Comment _ | Pi _), _ -> false

let fold_elements f acc doc =
  let rec go acc el =
    let acc = f acc el in
    List.fold_left
      (fun acc child -> match child with Element e -> go acc e | Text _ | Comment _ | Pi _ -> acc)
      acc el.children
  in
  go acc doc.root

let count_elements doc = fold_elements (fun acc _ -> acc + 1) 0 doc

let tags doc =
  let seen = Hashtbl.create 32 in
  let order =
    fold_elements
      (fun acc el ->
        if Hashtbl.mem seen el.tag then acc
        else begin
          Hashtbl.replace seen el.tag ();
          el.tag :: acc
        end)
      [] doc
  in
  List.rev order

let depth doc =
  let rec go el =
    let deepest =
      List.fold_left
        (fun acc child -> match child with Element e -> max acc (go e) | Text _ | Comment _ | Pi _ -> acc)
        0 el.children
    in
    1 + deepest
  in
  go doc.root
