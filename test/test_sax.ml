(* Tests for the SAX parser, the streaming tree loader, and the preorder
   tree constructor they share. *)

module Xml_sax = Tl_xml.Xml_sax
module Xml_dom = Tl_xml.Xml_dom
module Xml_error = Tl_xml.Xml_error
module Data_tree = Tl_tree.Data_tree
module Tree_load = Tl_tree.Tree_load

let events = Xml_sax.events_of_string

let expect_parse_error input =
  match events input with
  | exception Xml_error.Parse_error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" input

(* --- event stream ----------------------------------------------------------- *)

let test_basic_events () =
  match events {|<?xml version="1.0"?><a x="1"><b>hi</b><c/></a>|} with
  | [
   Declaration [ ("version", "1.0") ];
   Start_element ("a", [ ("x", "1") ]);
   Start_element ("b", []);
   Text "hi";
   End_element "b";
   Start_element ("c", []);
   End_element "c";
   End_element "a";
  ] ->
    ()
  | other -> Alcotest.failf "unexpected event stream (%d events)" (List.length other)

let test_text_coalescing () =
  (* Entity references and CDATA merge into one Text event per run. *)
  match events "<a>x&amp;y<![CDATA[&z]]>!</a>" with
  | [ Start_element _; Text t; End_element _ ] -> Alcotest.(check string) "coalesced" "x&y&z!" t
  | _ -> Alcotest.fail "expected a single text event"

let test_comment_and_pi_events () =
  match events "<a><!--note--><?p data?></a>" with
  | [ Start_element _; Comment c; Pi (target, content); End_element _ ] ->
    Alcotest.(check string) "comment" "note" c;
    Alcotest.(check string) "pi target" "p" target;
    Alcotest.(check string) "pi content" "data" content
  | _ -> Alcotest.fail "expected comment then pi"

let test_doctype_skipped () =
  match events {|<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>|} with
  | [ Start_element ("a", []); End_element "a" ] -> ()
  | _ -> Alcotest.fail "doctype should produce no events"

let test_sax_errors () =
  expect_parse_error "<a><b></a></b>";
  expect_parse_error "<a>";
  expect_parse_error "<a/><b/>";
  expect_parse_error "stray <a/>";
  expect_parse_error "<a/>trailing";
  expect_parse_error "";
  expect_parse_error "</a>"

let test_whitespace_normalization () =
  (* End-of-line handling turns CR LF and a lone CR into LF; attribute
     values read each literal tab or LF as a space.  References keep their
     character in both. *)
  (match events "<a x=\"1\n2\" y=\"\t\r\n&#10;&#9;\">p\r\nq\rr&#13;</a>" with
  | [ Start_element ("a", attrs); Text t; End_element "a" ] ->
    Alcotest.(check (list (pair string string))) "attributes" [ ("x", "1 2"); ("y", "  \n\t") ] attrs;
    Alcotest.(check string) "text" "p\nq\nr\r" t
  | _ -> Alcotest.fail "expected one element with one text run");
  match events "<a>\r<b x=></b></a>" with
  | exception Xml_error.Parse_error (pos, _) -> Alcotest.(check int) "a lone CR ends a line" 2 pos.line
  | _ -> Alcotest.fail "expected a parse error"

let test_sax_matches_dom () =
  (* Same grammar: replaying SAX events must rebuild the DOM parse. *)
  let input = {|<?xml version="1.0"?><r a="1"><x>t&lt;</x><!--c--><y><z/></y>tail</r>|} in
  let dom = Xml_dom.parse_string input in
  let stack = ref [ Xml_dom.element "STAGING" [] ] in
  let add node =
    match !stack with
    | top :: rest -> stack := { top with children = node :: top.children } :: rest
    | [] -> assert false
  in
  Xml_sax.parse_string input (fun event ->
      match event with
      | Declaration _ -> ()
      | Start_element (tag, attrs) -> stack := Xml_dom.element ~attrs tag [] :: !stack
      | End_element _ -> (
        match !stack with
        | el :: rest ->
          stack := rest;
          add (Xml_dom.Element { el with children = List.rev el.children })
        | [] -> assert false)
      | Text t -> add (Xml_dom.Text t)
      | Comment c -> add (Xml_dom.Comment c)
      | Pi (t, c) -> add (Xml_dom.Pi (t, c)));
  match !stack with
  | [ { children = [ Xml_dom.Element rebuilt ]; _ } ] ->
    Alcotest.(check bool) "same document" true (Xml_dom.equal_element dom.root rebuilt)
  | _ -> Alcotest.fail "reconstruction failed"

(* --- of_preorder -------------------------------------------------------------- *)

let test_of_preorder_basic () =
  let t = Data_tree.of_preorder ~tags:[| "a"; "b"; "c"; "b" |] ~parents:[| -1; 0; 1; 0 |] in
  Alcotest.(check int) "size" 4 (Data_tree.size t);
  Alcotest.(check string) "root tag" "a" (Data_tree.label_name t (Data_tree.label t 0));
  Alcotest.(check (list int)) "root children" [ 1; 3 ] (Array.to_list (Data_tree.children t 0));
  Alcotest.(check (option int)) "parent" (Some 1) (Data_tree.parent t 2);
  let b = Option.get (Data_tree.label_of_string t "b") in
  Alcotest.(check (list int)) "by label" [ 1; 3 ] (Array.to_list (Data_tree.nodes_with_label t b))

let test_of_preorder_validation () =
  let expect_invalid tags parents =
    match Data_tree.of_preorder ~tags ~parents with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected validation failure"
  in
  expect_invalid [||] [||];
  expect_invalid [| "a" |] [| -1; 0 |];
  expect_invalid [| "a"; "b" |] [| 0; 0 |];
  expect_invalid [| "a"; "b" |] [| -1; 1 |];
  expect_invalid [| "a"; "b" |] [| -1; -1 |]

(* --- streaming loader ----------------------------------------------------------- *)

let same_tree a b =
  Data_tree.size a = Data_tree.size b
  && begin
       let ok = ref true in
       Data_tree.iter_nodes a (fun v ->
           if Data_tree.label_name a (Data_tree.label a v) <> Data_tree.label_name b (Data_tree.label b v)
           then ok := false;
           if Data_tree.parent a v <> Data_tree.parent b v then ok := false);
       !ok
     end

let test_load_matches_dom_route () =
  let input = {|<r><x a="ignored">text<y/><y><z/></y></x><x/></r>|} in
  let via_dom = Data_tree.of_xml (Xml_dom.parse_string input) in
  let via_sax = Tree_load.of_string input in
  Alcotest.(check bool) "identical trees" true (same_tree via_dom via_sax)

let test_load_file () =
  let path = Filename.temp_file "tl_sax" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "<a><b/><b><c/></b></a>";
      close_out oc;
      let t = Tree_load.of_file path in
      Alcotest.(check int) "loaded size" 4 (Data_tree.size t))

let test_load_grows_buffers () =
  (* More nodes than the initial buffer capacity. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<r>";
  for _ = 1 to 500 do
    Buffer.add_string buf "<k/>"
  done;
  Buffer.add_string buf "</r>";
  let t = Tree_load.of_string (Buffer.contents buf) in
  Alcotest.(check int) "all nodes loaded" 501 (Data_tree.size t)

let prop_sax_route_equals_dom_route =
  Helpers.qcheck_case ~name:"SAX and DOM loading build identical trees" ~count:100
    (Helpers.spec_gen ~max_nodes:40)
    (fun spec ->
      let el = Tl_tree.Tree_builder.to_element spec in
      let text = Tl_xml.Xml_writer.to_string { decl = None; root = el } in
      same_tree (Data_tree.of_xml (Xml_dom.parse_string text)) (Tree_load.of_string text))

let prop_same_estimates_either_route =
  Helpers.qcheck_case ~name:"summaries agree between loading routes" ~count:25
    (Helpers.spec_gen ~max_nodes:25)
    (fun spec ->
      let el = Tl_tree.Tree_builder.to_element spec in
      let text = Tl_xml.Xml_writer.to_string { decl = None; root = el } in
      let s1 = Tl_lattice.Summary.build ~k:3 (Data_tree.of_xml (Xml_dom.parse_string text)) in
      let s2 = Tl_lattice.Summary.build ~k:3 (Tree_load.of_string text) in
      Tl_lattice.Summary.entries s1 = Tl_lattice.Summary.entries s2
      && Tl_lattice.Summary.fold
           (fun tw c acc -> acc && Tl_lattice.Summary.find s2 tw = Some c)
           s1 true)

(* [text] cut at a random byte or with one byte replaced. *)
let corrupt text =
  let open QCheck2.Gen in
  let* truncate = bool
  and* at = nat
  and* byte = oneof [ oneofl [ '<'; '>'; '/'; '&'; ';'; '='; '"'; '!'; '?'; '-'; '['; ' '; 'a' ]; char ] in
  let at = at mod String.length text in
  return
    (if truncate then String.sub text 0 at else String.mapi (fun i c -> if i = at then byte else c) text)

(* A spec document, corrupted. *)
let corrupted_gen =
  let open QCheck2.Gen in
  let* spec = Helpers.spec_gen ~max_nodes:30
  and* indent = bool in
  let root = Tl_tree.Tree_builder.to_element spec in
  corrupt (Tl_xml.Xml_writer.to_string ~indent { decl = Some [ ("version", "1.0") ]; root })

(* Both loading routes build the same tree or raise the same positioned
   error. *)
let same_outcome text =
  let outcome load =
    match load text with
    | tree -> Ok tree
    | exception Xml_error.Parse_error (pos, msg) -> Error (pos, msg)
  in
  match (outcome (fun text -> Data_tree.of_xml (Xml_dom.parse_string text)), outcome Tree_load.of_string) with
  | Ok a, Ok b -> same_tree a b
  | Error a, Error b -> a = b
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_corrupted_same_outcome =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"corrupt input: same tree or same error"
       ~print:(Printf.sprintf "%S") corrupted_gen same_outcome)

let test_load_records_parse () =
  let input = "<a><b/><b/></a>" in
  Tl_obs.Metrics.reset ();
  Tl_obs.Span.reset ();
  Tl_obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Tl_obs.Span.set_enabled false;
      Tl_obs.Span.reset ())
  @@ fun () ->
  ignore (Tree_load.of_string input);
  let snap = Tl_obs.Metrics.snapshot () in
  Alcotest.(check int) "documents parsed" 1 (List.assoc "xml.documents_parsed" snap.counters);
  Alcotest.(check int) "input bytes" (String.length input)
    (List.assoc "xml.input_bytes" snap.histograms).h_sum;
  Alcotest.(check (list string)) "span" [ "xml.parse" ]
    (List.map (fun (sp : Tl_obs.Span.span) -> sp.name) (Tl_obs.Span.finished ()))

(* --- prolog PIs and generated documents -------------------------------------- *)

let test_xml_prefixed_prolog_pis () =
  (* Only a PI whose target is exactly [xml] is the declaration. *)
  List.iter
    (fun (input, decl) ->
      let dom = Xml_dom.parse_string input in
      Alcotest.(check bool) ("declaration of " ^ input) true (dom.decl = decl);
      Alcotest.(check string) "root" "a" dom.root.tag;
      Alcotest.(check bool) ("same tree for " ^ input) true
        (same_tree (Data_tree.of_xml dom) (Tree_load.of_string input)))
    [
      ({|<?xml-stylesheet href="s.css"?>
<a><b/></a>|}, None);
      ({|<?xml version="1.0"?><?xml-stylesheet href="s.css"?><?xml-model?>
<a><b/><?xml-x y?></a><?xmlfoo?>|}, Some [ ("version", "1.0") ]);
      ({|<?xml-model href="m.rng"?><?xml version="1.0"?><a/>|}, None);
      ("<?xml?><a/>", Some []);
    ];
  match events {|<?xml-stylesheet href="s.css"?><a/>|} with
  | Pi ("xml-stylesheet", {|href="s.css"|}) :: _ -> ()
  | _ -> Alcotest.fail "expected the stylesheet PI first"

let generated name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:(fun (_, text) -> Printf.sprintf "%S" text) Helpers.xml_doc_gen prop)

let prop_generated_parses_to_its_dom =
  generated "text parses to the DOM it encodes" 300 (fun ((expected : Xml_dom.t), text) ->
      let dom = Xml_dom.parse_string text in
      dom.decl = expected.decl && Xml_dom.equal_element dom.root expected.root)

let prop_writer_round_trip =
  generated "writer output re-parses equal" 300 (fun (_, text) ->
      let dom = Xml_dom.parse_string text in
      let again = Xml_dom.parse_string (Tl_xml.Xml_writer.to_string dom) in
      again.decl = dom.decl && Xml_dom.equal_element again.root dom.root)

let prop_generated_same_tree =
  generated "tree_load agrees with the DOM route" 300 (fun (_, text) ->
      same_tree (Data_tree.of_xml (Xml_dom.parse_string text)) (Tree_load.of_string text))

let prop_generated_corrupt_same_outcome =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"corrupt generated text: same tree or same error"
       ~print:(Printf.sprintf "%S")
       QCheck2.Gen.(Helpers.xml_doc_gen >>= fun (_, text) -> corrupt text)
       same_outcome)

let () =
  Alcotest.run "sax"
    [
      ( "events",
        [
          Alcotest.test_case "basic stream" `Quick test_basic_events;
          Alcotest.test_case "text coalescing" `Quick test_text_coalescing;
          Alcotest.test_case "comment and pi" `Quick test_comment_and_pi_events;
          Alcotest.test_case "doctype skipped" `Quick test_doctype_skipped;
          Alcotest.test_case "errors" `Quick test_sax_errors;
          Alcotest.test_case "whitespace normalization" `Quick test_whitespace_normalization;
          Alcotest.test_case "matches dom" `Quick test_sax_matches_dom;
        ] );
      ( "of_preorder",
        [
          Alcotest.test_case "basic" `Quick test_of_preorder_basic;
          Alcotest.test_case "validation" `Quick test_of_preorder_validation;
        ] );
      ( "tree_load",
        [
          Alcotest.test_case "matches dom route" `Quick test_load_matches_dom_route;
          Alcotest.test_case "file" `Quick test_load_file;
          Alcotest.test_case "buffer growth" `Quick test_load_grows_buffers;
          prop_sax_route_equals_dom_route;
          prop_same_estimates_either_route;
          prop_corrupted_same_outcome;
          Alcotest.test_case "parse metrics and span" `Quick test_load_records_parse;
          Alcotest.test_case "xml-prefixed prolog PIs" `Quick test_xml_prefixed_prolog_pis;
        ] );
      ( "generated",
        [
          prop_generated_parses_to_its_dom;
          prop_writer_round_trip;
          prop_generated_same_tree;
          prop_generated_corrupt_same_outcome;
        ] );
    ]
