(* Tests for the XML substrate: lexer, parser, writer, round-trips. *)

module Xml_dom = Tl_xml.Xml_dom
module Xml_writer = Tl_xml.Xml_writer
module Xml_error = Tl_xml.Xml_error

let parse = Xml_dom.parse_string

let root s = (parse s).Xml_dom.root

let check_tag = Alcotest.(check string)

let expect_parse_error input =
  match parse input with
  | exception Xml_error.Parse_error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" input

(* --- basic structure ----------------------------------------------------- *)

let test_single_element () =
  let el = root "<a/>" in
  check_tag "tag" "a" el.tag;
  Alcotest.(check int) "no children" 0 (List.length el.children)

let test_nested_elements () =
  let el = root "<a><b><c/></b><d/></a>" in
  check_tag "tag" "a" el.tag;
  Alcotest.(check int) "two children" 2 (List.length el.children);
  match el.children with
  | [ Element b; Element d ] ->
    check_tag "first child" "b" b.tag;
    check_tag "second child" "d" d.tag;
    (match b.children with
    | [ Element c ] -> check_tag "grandchild" "c" c.tag
    | _ -> Alcotest.fail "expected one grandchild")
  | _ -> Alcotest.fail "expected two element children"

let test_text_content () =
  let el = root "<a>hello <b/> world</a>" in
  match el.children with
  | [ Text t1; Element _; Text t2 ] ->
    Alcotest.(check string) "leading text" "hello " t1;
    Alcotest.(check string) "trailing text" " world" t2
  | _ -> Alcotest.fail "expected text/element/text"

let test_attributes () =
  let el = root {|<a x="1" y='two'/>|} in
  Alcotest.(check (list (pair string string))) "attrs" [ ("x", "1"); ("y", "two") ] el.attrs

let test_attribute_entities () =
  let el = root {|<a x="a&amp;b&lt;c&#65;"/>|} in
  Alcotest.(check (list (pair string string))) "resolved" [ ("x", "a&b<cA") ] el.attrs

let test_duplicate_attribute_rejected () = expect_parse_error {|<a x="1" x="2"/>|}

let test_attr_missing_quotes () = expect_parse_error "<a x=1/>"

(* --- references ------------------------------------------------------------ *)

let test_predefined_entities () =
  let el = root "<a>&lt;&gt;&amp;&apos;&quot;</a>" in
  match el.children with
  | [ Text t ] -> Alcotest.(check string) "entities" "<>&'\"" t
  | _ -> Alcotest.fail "expected one text node"

let test_numeric_references () =
  let el = root "<a>&#65;&#x42;&#x1F600;</a>" in
  match el.children with
  | [ Text t ] -> Alcotest.(check string) "char refs" "AB\xF0\x9F\x98\x80" t
  | _ -> Alcotest.fail "expected one text node"

let test_unknown_entity_rejected () = expect_parse_error "<a>&nope;</a>"

let test_bad_charref_rejected () = expect_parse_error "<a>&#xZZ;</a>"

(* Surrogates pass a plain [<= 0x10FFFF] range check but are not Unicode
   scalar values; the lexer must reject them as a positioned parse error,
   not leak [Uchar.of_int]'s [Invalid_argument]. *)
let test_surrogate_charref_rejected () =
  List.iter expect_parse_error
    [ "<a>&#xD800;</a>"; "<a>&#xDFFF;</a>"; "<a>&#55296;</a>" ]

let test_out_of_range_charref_rejected () = expect_parse_error "<a>&#x110000;</a>"

let test_astral_charref_accepted () =
  let el = root "<a>&#x1F600;</a>" in
  match el.children with
  | [ Text t ] -> Alcotest.(check string) "astral ref" "\xF0\x9F\x98\x80" t
  | _ -> Alcotest.fail "expected one text node"

(* --- other markup ------------------------------------------------------------ *)

let test_cdata () =
  let el = root "<a><![CDATA[<not><parsed>&amp;]]></a>" in
  match el.children with
  | [ Text t ] -> Alcotest.(check string) "cdata verbatim" "<not><parsed>&amp;" t
  | _ -> Alcotest.fail "expected one text node"

let test_comments () =
  let el = root "<a><!-- a comment --><b/></a>" in
  match el.children with
  | [ Comment c; Element _ ] -> Alcotest.(check string) "comment body" " a comment " c
  | _ -> Alcotest.fail "expected comment then element"

let test_processing_instruction () =
  let el = root "<a><?target some content?></a>" in
  match el.children with
  | [ Pi (target, content) ] ->
    Alcotest.(check string) "target" "target" target;
    Alcotest.(check string) "content" "some content" content
  | _ -> Alcotest.fail "expected a PI"

let test_declaration () =
  let doc = parse {|<?xml version="1.0" encoding="UTF-8"?><a/>|} in
  Alcotest.(check (option (list (pair string string))))
    "decl"
    (Some [ ("version", "1.0"); ("encoding", "UTF-8") ])
    doc.decl

let test_doctype_skipped () =
  let doc = parse {|<?xml version="1.0"?><!DOCTYPE a SYSTEM "a.dtd" [<!ELEMENT a EMPTY>]><a/>|} in
  check_tag "root after doctype" "a" doc.root.tag

let test_leading_misc_skipped () =
  let doc = parse "<!-- preamble --><?pi data?><a/>" in
  check_tag "root" "a" doc.root.tag

(* --- error cases ------------------------------------------------------------- *)

let test_mismatched_close () = expect_parse_error "<a><b></a></b>"

let test_unclosed_element () = expect_parse_error "<a><b>"

let test_trailing_content () = expect_parse_error "<a/><b/>"

let test_empty_input () = expect_parse_error ""

let test_junk_before_root () = expect_parse_error "junk <a/>"

let test_doctype_after_root () = expect_parse_error "<a/><!DOCTYPE x>"

let test_error_position () =
  match parse "<a>\n  <b x=></b></a>" with
  | exception Xml_error.Parse_error (pos, _) ->
    Alcotest.(check int) "line" 2 pos.line;
    Alcotest.(check bool) "column sensible" true (pos.column > 1)
  | _ -> Alcotest.fail "expected a parse error"

(* --- writer --------------------------------------------------------------------- *)

let test_escapes () =
  Alcotest.(check string) "text escape" "a&amp;b&lt;c&gt;d" (Xml_writer.escape_text "a&b<c>d");
  Alcotest.(check string) "attr escape" "&quot;x&amp;" (Xml_writer.escape_attr "\"x&");
  Alcotest.(check string) "no-op fast path" "plain" (Xml_writer.escape_text "plain");
  Alcotest.(check string) "text CR" "&#13;\n\t" (Xml_writer.escape_text "\r\n\t");
  Alcotest.(check string) "attr whitespace" "&#9;&#10;&#13; " (Xml_writer.escape_attr "\t\n\r ")

let test_normalized_whitespace_round_trip () =
  let doc = parse "<a x=\"1\n2\" y=\"&#13;&#9;&#10;\">p\r\nq&#13;</a>" in
  Alcotest.(check (list (pair string string))) "attributes" [ ("x", "1 2"); ("y", "\r\t\n") ]
    doc.root.attrs;
  Alcotest.(check bool) "text" true (doc.root.children = [ Xml_dom.Text "p\nq\r" ]);
  let written = Xml_writer.to_string doc in
  Alcotest.(check string) "written as references" {|<a x="1 2" y="&#13;&#9;&#10;">p
q&#13;</a>|}
    written;
  Alcotest.(check bool) "re-parses equal" true
    (Xml_dom.equal_element doc.root (parse written).root)

let test_write_simple () =
  let doc = parse {|<a x="1"><b>text</b><c/></a>|} in
  Alcotest.(check string) "serialized" {|<a x="1"><b>text</b><c/></a>|} (Xml_writer.to_string doc)

let test_serialized_size () =
  let doc = parse "<a><b/></a>" in
  Alcotest.(check int) "size = string length"
    (String.length (Xml_writer.to_string doc))
    (Xml_writer.serialized_size doc)

let test_roundtrip_with_special_chars () =
  let original = {|<a t="&lt;&amp;&quot;">body &amp; more</a>|} in
  let doc = parse original in
  let reparsed = parse (Xml_writer.to_string doc) in
  Alcotest.(check bool) "roundtrip equal" true (Xml_dom.equal_element doc.root reparsed.root)

let rec strip_ws_element (el : Xml_dom.element) =
  let children =
    List.filter_map
      (fun n ->
        match n with
        | Xml_dom.Element e -> Some (Xml_dom.Element (strip_ws_element e))
        | Xml_dom.Text t when String.trim t = "" -> None
        | other -> Some other)
      el.children
  in
  { el with children }

let test_indent_preserves_structure () =
  let doc = parse "<a><b><c/></b><d>leaf text</d></a>" in
  let indented = Xml_writer.to_string ~indent:true doc in
  Alcotest.(check bool) "has newlines" true (String.contains indented '\n');
  let reparsed = parse indented in
  Alcotest.(check bool) "same structure modulo whitespace" true
    (Xml_dom.equal_element doc.root (strip_ws_element reparsed.root))

let test_parse_file_and_to_file () =
  let path = Filename.temp_file "tl_test" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let doc = parse {|<root a="1"><kid/>text</root>|} in
      Xml_writer.to_file path doc;
      let loaded = Xml_dom.parse_file path in
      Alcotest.(check bool) "file roundtrip" true (Xml_dom.equal_element doc.root loaded.root))

(* --- document queries -------------------------------------------------------------- *)

let test_count_elements () =
  Alcotest.(check int) "count" 4 (Xml_dom.count_elements (parse "<a><b/><b><c/></b>x</a>"))

let test_tags_first_appearance_order () =
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (Xml_dom.tags (parse "<a><b/><c/><b/></a>"))

let test_depth () =
  Alcotest.(check int) "depth 1" 1 (Xml_dom.depth (parse "<a/>"));
  Alcotest.(check int) "depth 3" 3 (Xml_dom.depth (parse "<a><b><c/></b><d/></a>"))

(* --- properties ---------------------------------------------------------------------- *)

let prop_generated_roundtrip =
  Helpers.qcheck_case ~name:"random tree write/parse roundtrip" ~count:200
    (Helpers.spec_gen ~max_nodes:30)
    (fun spec ->
      let el = Tl_tree.Tree_builder.to_element spec in
      let doc : Xml_dom.t = { decl = None; root = el } in
      let reparsed = parse (Xml_writer.to_string doc) in
      Xml_dom.equal_element el reparsed.root)

let prop_indent_roundtrip =
  Helpers.qcheck_case ~name:"indented write/parse keeps element structure" ~count:100
    (Helpers.spec_gen ~max_nodes:25)
    (fun spec ->
      let el = Tl_tree.Tree_builder.to_element spec in
      let doc : Xml_dom.t = { decl = None; root = el } in
      let reparsed = parse (Xml_writer.to_string ~indent:true doc) in
      Xml_dom.equal_element el (strip_ws_element reparsed.root))

let () =
  Alcotest.run "xml"
    [
      ( "structure",
        [
          Alcotest.test_case "single element" `Quick test_single_element;
          Alcotest.test_case "nesting" `Quick test_nested_elements;
          Alcotest.test_case "text content" `Quick test_text_content;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "attribute entities" `Quick test_attribute_entities;
          Alcotest.test_case "duplicate attribute" `Quick test_duplicate_attribute_rejected;
          Alcotest.test_case "unquoted attribute" `Quick test_attr_missing_quotes;
        ] );
      ( "references",
        [
          Alcotest.test_case "predefined entities" `Quick test_predefined_entities;
          Alcotest.test_case "numeric references" `Quick test_numeric_references;
          Alcotest.test_case "unknown entity" `Quick test_unknown_entity_rejected;
          Alcotest.test_case "bad charref" `Quick test_bad_charref_rejected;
          Alcotest.test_case "surrogate charref" `Quick test_surrogate_charref_rejected;
          Alcotest.test_case "out-of-range charref" `Quick test_out_of_range_charref_rejected;
          Alcotest.test_case "astral charref" `Quick test_astral_charref_accepted;
        ] );
      ( "markup",
        [
          Alcotest.test_case "cdata" `Quick test_cdata;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "processing instruction" `Quick test_processing_instruction;
          Alcotest.test_case "xml declaration" `Quick test_declaration;
          Alcotest.test_case "doctype skipped" `Quick test_doctype_skipped;
          Alcotest.test_case "leading misc skipped" `Quick test_leading_misc_skipped;
        ] );
      ( "errors",
        [
          Alcotest.test_case "mismatched close" `Quick test_mismatched_close;
          Alcotest.test_case "unclosed element" `Quick test_unclosed_element;
          Alcotest.test_case "trailing content" `Quick test_trailing_content;
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "junk before root" `Quick test_junk_before_root;
          Alcotest.test_case "error position" `Quick test_error_position;
          Alcotest.test_case "doctype after root" `Quick test_doctype_after_root;
        ] );
      ( "writer",
        [
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "normalized whitespace round trip" `Quick
            test_normalized_whitespace_round_trip;
          Alcotest.test_case "simple write" `Quick test_write_simple;
          Alcotest.test_case "serialized size" `Quick test_serialized_size;
          Alcotest.test_case "special chars roundtrip" `Quick test_roundtrip_with_special_chars;
          Alcotest.test_case "indent keeps structure" `Quick test_indent_preserves_structure;
          Alcotest.test_case "file io" `Quick test_parse_file_and_to_file;
          prop_generated_roundtrip;
          prop_indent_roundtrip;
        ] );
      ( "queries",
        [
          Alcotest.test_case "count elements" `Quick test_count_elements;
          Alcotest.test_case "tags order" `Quick test_tags_first_appearance_order;
          Alcotest.test_case "depth" `Quick test_depth;
        ] );
    ]
