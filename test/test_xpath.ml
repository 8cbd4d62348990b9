(* Tests for the XPath frontend. *)

module Xpath = Tl_twig.Xpath
module Twig = Tl_twig.Twig
module Twig_parse = Tl_twig.Twig_parse
module Treelattice = Tl_core.Treelattice

let parse_ok s =
  match Xpath.parse s with Ok t -> t | Error m -> Alcotest.failf "parse %S failed: %s" s m

let expect_error ~mentions s =
  match Xpath.parse s with
  | Ok _ -> Alcotest.failf "expected %S to be rejected" s
  | Error msg ->
    let contains needle =
      let nl = String.length needle and hl = String.length msg in
      let rec scan i = i + nl <= hl && (String.sub msg i nl = needle || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool) (Printf.sprintf "%S error mentions %S (got %S)" s mentions msg) true
      (contains mentions)

let ast_string t = Twig_parse.to_string t.Xpath.ast

(* --- structure ---------------------------------------------------------- *)

let test_simple_paths () =
  Alcotest.(check string) "bare name" "a" (ast_string (parse_ok "a"));
  Alcotest.(check string) "leading //" "a" (ast_string (parse_ok "//a"));
  Alcotest.(check string) "chain" "a(b(c))" (ast_string (parse_ok "//a/b/c"));
  Alcotest.(check bool) "// is unanchored" false (parse_ok "//a").Xpath.anchored;
  Alcotest.(check bool) "bare is unanchored" false (parse_ok "a").Xpath.anchored;
  Alcotest.(check bool) "/ is anchored" true (parse_ok "/a/b").Xpath.anchored

let test_predicates () =
  Alcotest.(check string) "single predicate" "a(b)" (ast_string (parse_ok "a[b]"));
  Alcotest.(check string) "fig1 twig" "laptop(brand,price)" (ast_string (parse_ok "//laptop[brand][price]"));
  Alcotest.(check string) "predicate path" "a(b(c))" (ast_string (parse_ok "a[b/c]"));
  Alcotest.(check string) "nested predicate" "a(b(c,d))" (ast_string (parse_ok "a[b[c][d]]"));
  Alcotest.(check string) "predicate then spine" "a(b,c(d))" (ast_string (parse_ok "a[b]/c/d"));
  Alcotest.(check string) "whitespace tolerated" "a(b,c)" (ast_string (parse_ok " a [ b ] [ c ] "))

let test_rejections () =
  expect_error ~mentions:"descendant" "a//b";
  expect_error ~mentions:"descendant" "a[b//c]";
  expect_error ~mentions:"wildcard" "a/*";
  expect_error ~mentions:"attribute" "a[@id]";
  expect_error ~mentions:"value" "a[b=3]";
  expect_error ~mentions:"positional" "a[1]";
  expect_error ~mentions:"text()" "a[text()]";
  expect_error ~mentions:"trailing" "a]b";
  expect_error ~mentions:"tag name" "";
  expect_error ~mentions:"]" "a[b"

let test_to_string_roundtrip () =
  List.iter
    (fun q ->
      let parsed = parse_ok q in
      let rendered = Xpath.to_string parsed in
      let reparsed = parse_ok rendered in
      Alcotest.(check string) (q ^ " roundtrips") (ast_string parsed) (ast_string reparsed);
      Alcotest.(check bool) "anchoring preserved" parsed.Xpath.anchored reparsed.Xpath.anchored)
    [ "//a/b/c"; "/site/people"; "a[b][c/d]"; "//x[y[z]]/w" ]

let test_to_twig () =
  let intern = function "a" -> Some 0 | "b" -> Some 1 | _ -> None in
  (match Xpath.to_twig ~intern (parse_ok "a[b]") with
  | Ok tw -> Alcotest.(check string) "twig" "0(1)" (Twig.encode tw)
  | Error m -> Alcotest.failf "unexpected error %s" m);
  match Xpath.to_twig ~intern (parse_ok "a[zzz]") with
  | Error m -> Alcotest.(check bool) "unknown tag reported" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected unknown-tag error"

(* --- the one query parser ------------------------------------------------------ *)

let test_query_parse () =
  let find = function "a" -> Some 0 | "b" -> Some 1 | _ -> None in
  let parse = Tl_twig.Query.parse ~size:2 ~find in
  let ok s = match parse s with Ok q -> q | Error m -> Alcotest.failf "parse %S: %s" s m in
  let encoding s = Twig.encode (ok s).Tl_twig.Query.twig in
  Alcotest.(check string) "twig text" "0(1)" (encoding "a(b)");
  Alcotest.(check string) "xpath text without a leading /" "0(1)" (encoding "a[b]");
  Alcotest.(check bool) "/ anchors" true (ok "/a/b").anchored;
  Alcotest.(check bool) "// does not" false (ok "//a/b").anchored;
  Alcotest.(check bool) "twig text does not" false (ok "a(b)").anchored;
  (* Unknown tags take ids from [size] up in order of first appearance, and
     sort after every known id. *)
  let q = ok "zz(b,yy,zz)" in
  Alcotest.(check (list string)) "unknown tags in order" [ "zz"; "yy" ] q.unknown;
  Alcotest.(check string) "overflow ids" "2(1,2,3)" (Twig.encode q.twig);
  let name = Tl_twig.Query.name ~size:2 ~known:(fun l -> [| "a"; "b" |].(l)) q in
  Alcotest.(check (list string)) "names" [ "b"; "zz"; "yy" ] (List.map name [ 1; 2; 3 ]);
  Alcotest.(check (list string)) "no unknown tags" [] (ok "a[b]").unknown;
  (* Text malformed in both syntaxes gets the diagnosis of the one it
     starts like. *)
  Alcotest.(check (result reject string)) "twig diagnosis"
    (Error "syntax error at offset 3: expected ')'") (Result.map ignore (parse "a(b"));
  Alcotest.(check (result reject string)) "xpath diagnosis"
    (Error "XPath error at offset 3: expected a tag name, found end of input")
    (Result.map ignore (parse "/a["));
  let resolve = Tl_twig.Query.resolver ~size:2 ~find in
  Alcotest.(check (list int)) "resolver" [ 2; 0; 3; 2 ] (List.map resolve [ "yy"; "a"; "xx"; "yy" ])

(* --- integration with the front-end ---------------------------------------- *)

let shop_tl () = Treelattice.build ~k:3 (Helpers.tree_of Helpers.shop_spec)

let test_estimate_xpath_unanchored () =
  let tl = shop_tl () in
  match Treelattice.estimate_text tl "//laptop[brand][price]" with
  | Ok v -> Alcotest.(check (float 1e-6)) "fig1 selectivity" 2.0 v
  | Error m -> Alcotest.failf "unexpected %s" m

let test_estimate_xpath_anchored () =
  let tl = shop_tl () in
  (match Treelattice.estimate_text tl "/computer/laptops" with
  | Ok v -> Alcotest.(check (float 1e-6)) "anchored at root tag" 1.0 v
  | Error m -> Alcotest.failf "unexpected %s" m);
  match Treelattice.estimate_text tl "/laptops/laptop" with
  | Ok v -> Alcotest.(check (float 1e-6)) "anchored off-root is 0" 0.0 v
  | Error m -> Alcotest.failf "unexpected %s" m

let test_exact_xpath () =
  let tl = shop_tl () in
  (match Treelattice.exact_text tl "//laptop[brand][price]" with
  | Ok v -> Alcotest.(check int) "exact unanchored" 2 v
  | Error m -> Alcotest.failf "unexpected %s" m);
  (match Treelattice.exact_text tl "/computer/laptops/laptop" with
  | Ok v -> Alcotest.(check int) "exact anchored" 2 v
  | Error m -> Alcotest.failf "unexpected %s" m);
  match Treelattice.exact_text tl "/laptop" with
  | Ok v -> Alcotest.(check int) "anchored non-root tag" 0 v
  | Error m -> Alcotest.failf "unexpected %s" m

let test_xpath_errors_surface () =
  let tl = shop_tl () in
  match Treelattice.estimate_text tl "laptop//brand" with
  | Error m -> Alcotest.(check bool) "error surfaced" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected an error"

(* --- equivalence with the twig syntax ------------------------------------------ *)

let prop_xpath_equals_twig_syntax =
  Helpers.qcheck_case ~name:"XPath and twig syntax agree on estimates" ~count:40
    (Helpers.tree_gen ~max_nodes:25)
    (fun tree ->
      let tl = Treelattice.build ~k:3 tree in
      let rng = Tl_util.Xorshift.create 47 in
      let ok = ref true in
      for _ = 1 to 5 do
        match Tl_twig.Twig_enum.random_subtree rng tree ~size:4 with
        | None -> ()
        | Some twig ->
          (* Render the twig as XPath via its AST and re-estimate. *)
          let ast = Twig_parse.of_twig ~names:(Tl_tree.Data_tree.label_name tree) twig in
          let query = Xpath.to_string (Xpath.of_twig_ast ~anchored:false ast) in
          let direct = Treelattice.estimate tl twig in
          (match Treelattice.estimate_text tl query with
          | Ok via_xpath ->
            if Float.abs (direct -. via_xpath) > 1e-9 *. Float.max 1.0 direct then ok := false
          | Error _ -> ok := false)
      done;
      !ok)

let () =
  Alcotest.run "xpath"
    [
      ( "parsing",
        [
          Alcotest.test_case "simple paths" `Quick test_simple_paths;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "to_string roundtrip" `Quick test_to_string_roundtrip;
          Alcotest.test_case "to_twig" `Quick test_to_twig;
          Alcotest.test_case "one query parser" `Quick test_query_parse;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "estimate unanchored" `Quick test_estimate_xpath_unanchored;
          Alcotest.test_case "estimate anchored" `Quick test_estimate_xpath_anchored;
          Alcotest.test_case "exact" `Quick test_exact_xpath;
          Alcotest.test_case "errors surface" `Quick test_xpath_errors_surface;
          prop_xpath_equals_twig_syntax;
        ] );
    ]
