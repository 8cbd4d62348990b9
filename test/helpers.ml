(* Shared test utilities: QCheck generators for random labeled trees and
   twigs, and small hand-built documents reused across suites. *)

module TB = Tl_tree.Tree_builder
module Twig = Tl_twig.Twig

let alphabet = [| "a"; "b"; "c"; "d"; "e"; "f" |]

(* A random tree spec with at most [max_nodes] nodes and fan-out <= 4,
   labels drawn from [letters] — small enough that brute-force oracles
   stay fast, rich enough to hit repeated-sibling cases. *)
let spec_gen_over letters ~max_nodes : TB.spec QCheck2.Gen.t =
  let open QCheck2.Gen in
  let label = map (fun i -> letters.(i)) (int_bound (Array.length letters - 1)) in
  let rec build budget =
    if budget <= 1 then map TB.leaf label
    else
      let* l = label in
      let* nkids = int_bound (min 4 (budget - 1)) in
      if nkids = 0 then return (TB.leaf l)
      else begin
        let per_child = (budget - 1) / nkids in
        let* kids = flatten_l (List.init nkids (fun _ -> build (max 1 per_child))) in
        return (TB.node l kids)
      end
  in
  build max_nodes

let spec_gen ~max_nodes = spec_gen_over alphabet ~max_nodes

let tree_gen ~max_nodes = QCheck2.Gen.map TB.build (spec_gen ~max_nodes)

(* Trees over only two or three labels, so every label repeats and a
   pattern usually occurs at a strict subset of its root label's nodes. *)
let few_labels_tree_gen ~max_nodes =
  let open QCheck2.Gen in
  let* labels = int_range 2 3 in
  map TB.build (spec_gen_over (Array.sub alphabet 0 labels) ~max_nodes)

(* Random twig over integer labels [0, nlabels). *)
let twig_gen ?(nlabels = 5) ~max_nodes () : Twig.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let label = int_bound (nlabels - 1) in
  let rec build budget =
    if budget <= 1 then map Twig.leaf label
    else
      let* l = label in
      let* nkids = int_bound (min 3 (budget - 1)) in
      if nkids = 0 then return (Twig.leaf l)
      else begin
        let per_child = (budget - 1) / nkids in
        let* kids = flatten_l (List.init nkids (fun _ -> build (max 1 per_child))) in
        return (Twig.node l kids)
      end
  in
  build max_nodes

let rec spec_pp (s : TB.spec) = TB.to_element s |> element_pp

and element_pp (el : Tl_xml.Xml_dom.element) =
  match el.children with
  | [] -> el.tag
  | kids ->
    el.tag ^ "("
    ^ String.concat ","
        (List.filter_map
           (fun n -> match n with Tl_xml.Xml_dom.Element e -> Some (element_pp e) | _ -> None)
           kids)
    ^ ")"

let twig_pp t = Twig.encode t

(* The Fig. 11-style document: heterogeneous b-nodes under one root. *)
let fig11_spec =
  TB.node "a"
    (TB.replicate 3 (TB.node "b" (TB.replicate 4 (TB.leaf "c")))
    @ [ TB.node "b" (TB.leaf "c" :: TB.replicate 4 (TB.leaf "d")) ])

(* A perfectly regular document: every x has exactly one y and one z, every
   y has exactly two w — conditional independence holds exactly, so
   decomposition estimates must be exact on it. *)
let regular_spec =
  TB.node "r"
    (TB.replicate 5 (TB.node "x" [ TB.node "y" (TB.replicate 2 (TB.leaf "w")); TB.leaf "z" ]))

(* The paper's Fig. 1 computer-shop document. *)
let shop_spec =
  TB.node "computer"
    [
      TB.node "laptops"
        [
          TB.node "laptop" [ TB.leaf "brand"; TB.leaf "price" ];
          TB.node "laptop" [ TB.leaf "brand"; TB.leaf "price" ];
        ];
      TB.node "desktops" [ TB.node "desktop" [ TB.leaf "brand" ] ];
    ]

let tree_of spec = TB.build spec

(* Resolve a twig written with tag names against a tree. *)
let twig_of_string tree s =
  match
    Tl_twig.Twig_parse.parse_twig ~intern:(Tl_tree.Data_tree.label_of_string tree) s
  with
  | Ok t -> t
  | Error msg -> failwith ("twig_of_string: " ^ msg)

let qcheck_case ?(count = 100) ~name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- XML text in every encoding the scanner accepts ------------------------ *)

module Dom = Tl_xml.Xml_dom

let utf8 cp =
  let buf = Buffer.create 4 in
  Buffer.add_utf_8_uchar buf (Uchar.of_int cp);
  Buffer.contents buf

(* Code points for text and attribute values: ASCII letters and digits,
   whitespace, the five markup characters, a closing bracket (so text can
   hold "]]>"), and 2-, 3- and 4-byte UTF-8, the last two astral. *)
let xml_code_points =
  [| 0x61; 0x5A; 0x30; 0x20; 0x09; 0x0A; 0x0D; 0x3C; 0x3E; 0x26; 0x22; 0x27; 0x5D; 0xE9; 0x4E2D;
     0x1F600; 0x10348 |]

let named_entity = function
  | 0x3C -> [ "&lt;" ]
  | 0x3E -> [ "&gt;" ]
  | 0x26 -> [ "&amp;" ]
  | 0x27 -> [ "&apos;" ]
  | 0x22 -> [ "&quot;" ]
  | _ -> []

(* One code point as markup, flagged [true] when literal: literally where
   [literal] allows it (and then most often), otherwise as a named entity
   or a decimal or hex character reference. *)
let encode_gen ~literal cp =
  let open QCheck2.Gen in
  let refs =
    map
      (fun r -> (false, r))
      (oneofl
         (Printf.sprintf "&#%d;" cp :: Printf.sprintf "&#x%X;" cp :: Printf.sprintf "&#x%x;" cp
        :: named_entity cp))
  in
  if literal cp then frequency [ (3, return (true, utf8 cp)); (1, refs) ] else refs

(* What the parser reads back from code points flagged literal or not.
   End-of-line handling turns a literal CR LF pair, or a lone literal CR,
   into LF; in an attribute value ([attr]), attribute-value normalization
   then turns each literal tab or LF into a space.  A reference keeps its
   character. *)
let decoded ~attr pieces =
  let buf = Buffer.create 16 in
  let rec go = function
    | [] -> ()
    | (0x0D, true) :: (0x0A, true) :: rest | (0x0D, true) :: rest -> go ((0x0A, true) :: rest)
    | ((0x09 | 0x0A), true) :: rest when attr ->
      Buffer.add_char buf ' ';
      go rest
    | (cp, _) :: rest ->
      Buffer.add_string buf (utf8 cp);
      go rest
  in
  go pieces;
  Buffer.contents buf

(* [cps] as markup, with the value the parser must read back. *)
let encoded_gen ~attr ~literal cps =
  let open QCheck2.Gen in
  let+ pieces = flatten_l (List.map (encode_gen ~literal) cps) in
  ( decoded ~attr (List.map2 (fun cp (lit, _) -> (cp, lit)) cps pieces),
    String.concat "" (List.map snd pieces) )

let ws0_gen = QCheck2.Gen.oneofl [ ""; ""; " "; "\n"; "\t "; "\r\n" ]
let ws1_gen = QCheck2.Gen.oneofl [ " "; "\n"; "\t "; "\r\n  " ]
let value_gen ~max = QCheck2.Gen.(list_size (int_bound max) (oneofa xml_code_points))

(* [name="value"] after at least one whitespace character, in either
   quote. *)
let attr_gen name (cps : int list) =
  let open QCheck2.Gen in
  let* quote = oneofl [ 0x22; 0x27 ]
  and* lead = ws1_gen
  and* before = ws0_gen
  and* after = ws0_gen in
  let q = utf8 quote in
  let+ value, text =
    encoded_gen ~attr:true ~literal:(fun cp -> cp <> 0x3C && cp <> 0x26 && cp <> quote) cps
  in
  ((name, value), lead ^ name ^ before ^ "=" ^ after ^ q ^ text ^ q)

let text_gen =
  let open QCheck2.Gen in
  let* cps = list_size (int_range 1 6) (oneofa xml_code_points)
  and* cdata = bool in
  let value = String.concat "" (List.map utf8 cps) in
  if cdata && not (Tl_util.Prelude.string_contains ~needle:"]]>" value) then
    return
      (Dom.Text (decoded ~attr:false (List.map (fun cp -> (cp, true)) cps)), "<![CDATA[" ^ value ^ "]]>")
  else
    let+ value, text = encoded_gen ~attr:false ~literal:(fun cp -> cp <> 0x3C && cp <> 0x26) cps in
    (Dom.Text value, text)

let comment_gen =
  let open QCheck2.Gen in
  let+ body = string_size ~gen:(oneofl [ 'a'; ' '; '-'; '?'; '<'; '&'; '\n' ]) (int_bound 6) in
  (Dom.Comment body, "<!--" ^ body ^ "-->")

(* The scanner drops the whitespace after a PI target, so a body starts
   with a non-blank character; [xml] itself is reserved. *)
let pi_gen =
  let open QCheck2.Gen in
  let* target = oneofl [ "p"; "php"; "a.b"; "xml-stylesheet"; "xml-model"; "xmlfoo" ]
  and* first = oneofl [ 'h'; '='; '"'; '<' ]
  and* rest = string_size ~gen:(oneofl [ 'a'; ' '; '\''; '>'; '&'; '\n' ]) (int_bound 6)
  and* empty = bool
  and* gap0 = ws0_gen
  and* gap1 = ws1_gen in
  let body = if empty then "" else String.make 1 first ^ rest in
  return (Dom.Pi (target, body), "<?" ^ target ^ (if empty then gap0 else gap1 ^ body) ^ "?>")

(* Adjacent text runs (CDATA next to references next to literals) reach
   the DOM as one text node.  A run whose markup ends in a literal CR
   before one whose markup starts with a literal LF makes one CR LF pair,
   so the two runs' line breaks are one. *)
let merge_text nodes =
  let ends_cr s = s <> "" && s.[String.length s - 1] = '\r' in
  let starts_lf s = s <> "" && s.[0] = '\n' in
  List.fold_right
    (fun (node, text) acc ->
      match (node, acc) with
      | Dom.Text a, (Dom.Text b, btext) :: rest ->
        let b = if ends_cr text && starts_lf btext then String.sub b 1 (String.length b - 1) else b in
        (Dom.Text (a ^ b), text ^ btext) :: rest
      | node, acc -> (node, text) :: acc)
    nodes []

let xml_tags = [ "a"; "b"; "item"; "x-y"; "_n"; "ns:t"; "c.1" ]
let xml_attr_names = [ "id"; "x-y"; "_k"; "ns:a"; "v.1" ]

let rec xml_element_gen depth =
  let open QCheck2.Gen in
  let* tag = oneofl xml_tags
  and* nattrs = int_bound 3
  and* names = shuffle_l xml_attr_names
  and* self_close = bool
  and* inner = ws0_gen
  and* close_ws = ws0_gen in
  let* attrs =
    flatten_l
      (List.filteri (fun i _ -> i < nattrs) names
      |> List.map (fun name -> value_gen ~max:5 >>= attr_gen name))
  and* kids = if depth = 0 then return [] else list_size (int_bound 5) (xml_node_gen (depth - 1)) in
  let start = "<" ^ tag ^ String.concat "" (List.map snd attrs) ^ inner in
  let text =
    if kids = [] && self_close then start ^ "/>"
    else start ^ ">" ^ String.concat "" (List.map snd kids) ^ "</" ^ tag ^ close_ws ^ ">"
  in
  return (Dom.element ~attrs:(List.map fst attrs) tag (List.map fst (merge_text kids)), text)

and xml_node_gen depth =
  let open QCheck2.Gen in
  frequency
    [
      (4, map (fun (el, text) -> (Dom.Element el, text)) (xml_element_gen depth));
      (3, text_gen);
      (1, comment_gen);
      (1, pi_gen);
    ]

(* Whitespace, comments and PIs outside the root; the DOM drops them. *)
let misc_gen =
  let open QCheck2.Gen in
  map (String.concat "")
    (list_size (int_bound 3) (oneof [ ws1_gen; map snd comment_gen; map snd pi_gen ]))

let doctype_gen =
  QCheck2.Gen.oneofl
    [
      "<!DOCTYPE a>";
      {|<!DOCTYPE a SYSTEM "a.dtd">|};
      "<!DOCTYPE a [<!ELEMENT a ANY><!ATTLIST a id CDATA #IMPLIED>]>";
      "<!DOCTYPE a [\n  <!ENTITY % p \"x\">\n  <![INCLUDE[ <!ELEMENT b (#PCDATA)> ]]>\n  <!-- [nested] -->\n]>";
    ]

(* An optional [<?xml ...?>] declaration, whose pseudo-attributes may use
   references too. *)
let declaration_gen =
  let open QCheck2.Gen in
  let pseudo = [ ("version", "1.0"); ("encoding", "UTF-8"); ("standalone", "yes") ] in
  let* n = int_bound 3
  and* close_ws = ws0_gen in
  let+ attrs =
    flatten_l
      (List.filteri (fun i _ -> i < n) pseudo
      |> List.map (fun (name, v) ->
             attr_gen name (List.init (String.length v) (fun i -> Char.code v.[i]))))
  in
  (List.map fst attrs, "<?xml" ^ String.concat "" (List.map snd attrs) ^ close_ws ^ "?>")

(* A random document together with the text that encodes it: every
   construct {!Tl_xml.Xml_lexer} accepts, each in one of its equivalent
   encodings.  The DOM is what [Xml_dom.parse_string] must give back. *)
let xml_doc_gen : (Dom.t * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* decl = option declaration_gen
  and* lead = ws0_gen
  and* before_doctype = misc_gen
  and* doctype = option doctype_gen
  and* before_root = misc_gen
  and* root, root_text = xml_element_gen 3
  and* after_root = misc_gen in
  let prolog = match decl with Some (_, text) -> text | None -> lead in
  return
    ( { Dom.decl = Option.map fst decl; root },
      prolog ^ before_doctype ^ Option.value doctype ~default:"" ^ before_root ^ root_text
      ^ after_root )
