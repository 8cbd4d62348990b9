(* Tests for the value-predicates extension (future work #1): value trees,
   value queries, exact matching, histograms, and factorized estimation. *)

module Value_tree = Tl_values.Value_tree
module Value_query = Tl_values.Value_query
module Value_match = Tl_values.Value_match
module Value_summary = Tl_values.Value_summary
module Value_estimator = Tl_values.Value_estimator
module Data_tree = Tl_tree.Data_tree
module Twig = Tl_twig.Twig

let close = Alcotest.(check (float 1e-6))

let bookstore =
  {|<store>
      <book><title>ocaml</title><genre>cs</genre><price>30</price></book>
      <book><title>haskell</title><genre>cs</genre><price>30</price></book>
      <book><title>poems</title><genre>art</genre><price>10</price></book>
      <book><title>essays</title><genre>art</genre></book>
      <magazine><title>ocaml</title></magazine>
    </store>|}

let vtree_of s = Value_tree.of_xml (Tl_xml.Xml_dom.parse_string s)

let shop () = vtree_of bookstore

let label vt name = Option.get (Data_tree.label_of_string (Value_tree.tree vt) name)

let parse vt q =
  let tree = Value_tree.tree vt in
  match Value_query.parse ~intern:(Data_tree.label_of_string tree) q with
  | Ok vq -> vq
  | Error m -> Alcotest.failf "parse %S: %s" q m

(* --- value tree -------------------------------------------------------------- *)

let test_value_extraction () =
  let vt = shop () in
  let tree = Value_tree.tree vt in
  Alcotest.(check int) "sizes align" 18 (Data_tree.size tree);
  (* Root and books are interior: no values. *)
  Alcotest.(check (option string)) "root has no value" None (Value_tree.value vt 0);
  Alcotest.(check (option string)) "book has no value" None (Value_tree.value vt 1);
  (* First title. *)
  Alcotest.(check (option string)) "leaf value" (Some "ocaml") (Value_tree.value vt 2);
  Alcotest.(check int) "valued leaves" 12 (Value_tree.valued_nodes vt)

let test_value_trimming_and_cdata () =
  let vt = vtree_of "<a><b>  spaced  </b><c><![CDATA[raw]]></c><d></d></a>" in
  Alcotest.(check (option string)) "trimmed" (Some "spaced") (Value_tree.value vt 1);
  Alcotest.(check (option string)) "cdata" (Some "raw") (Value_tree.value vt 2);
  Alcotest.(check (option string)) "empty leaf" None (Value_tree.value vt 3)

(* --- value queries ------------------------------------------------------------- *)

let test_query_parse_and_pp () =
  let vt = shop () in
  let names = Data_tree.label_name (Value_tree.tree vt) in
  let q = parse vt {|book(genre=cs,title="ocaml")|} in
  Alcotest.(check int) "size" 3 (Value_query.size q);
  Alcotest.(check (list (pair int string))) "predicates"
    (List.sort compare [ (label vt "genre", "cs"); (label vt "title", "ocaml") ])
    (List.sort compare (Value_query.predicates q));
  (* pp round-trips through parse. *)
  let q2 = parse vt (Value_query.pp ~names q) in
  Alcotest.(check bool) "pp/parse roundtrip" true (Value_query.equal q q2)

let test_query_quoted_values () =
  let vt = vtree_of {|<a><b>hello world</b></a>|} in
  let q = parse vt {|a(b="hello world")|} in
  Alcotest.(check (list (pair int string))) "quoted value" [ (label vt "b", "hello world") ]
    (Value_query.predicates q);
  let escaped = parse vt {|a(b="say \"hi\" \\ ok")|} in
  Alcotest.(check (list (pair int string))) "escapes" [ (label vt "b", {|say "hi" \ ok|}) ]
    (Value_query.predicates escaped)

let test_query_parse_errors () =
  let vt = shop () in
  let tree = Value_tree.tree vt in
  let expect_error q =
    match Value_query.parse ~intern:(Data_tree.label_of_string tree) q with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to fail" q
  in
  expect_error "";
  expect_error "book(";
  expect_error "book(title=)";
  expect_error {|book(title=")|};
  expect_error "book(unknowntag)";
  expect_error "book)x"

let test_query_canonical_order_insensitive () =
  let vt = shop () in
  let a = parse vt "book(genre=cs,title=ocaml)" in
  let b = parse vt "book(title=ocaml,genre=cs)" in
  Alcotest.(check bool) "order-insensitive" true (Value_query.equal a b);
  Alcotest.(check string) "same encoding" (Value_query.encode a) (Value_query.encode b)

let test_query_value_distinguishes () =
  let vt = shop () in
  let a = parse vt "book(title=ocaml)" in
  let b = parse vt "book(title=poems)" in
  let c = parse vt "book(title)" in
  Alcotest.(check bool) "different values differ" false (Value_query.equal a b);
  Alcotest.(check bool) "constrained differs from free" false (Value_query.equal a c);
  Alcotest.(check bool) "strip equalizes" true
    (Twig.equal (Value_query.strip a) (Value_query.strip b))

(* --- exact matching --------------------------------------------------------------- *)

let test_exact_counts () =
  let vt = shop () in
  let count q = Value_match.selectivity vt (parse vt q) in
  Alcotest.(check int) "unconstrained" 4 (count "book(title)");
  Alcotest.(check int) "value on one leaf" 2 (count "book(genre=cs)");
  Alcotest.(check int) "two predicates" 1 (count {|book(title=ocaml,genre=cs)|});
  Alcotest.(check int) "conflicting" 0 (count "book(title=ocaml,genre=art)");
  Alcotest.(check int) "value anywhere" 2 (count "title=ocaml");
  Alcotest.(check int) "deep" 2 (count "store(book(price=30))");
  Alcotest.(check int) "absent value" 0 (count "book(title=zzz)")

(* Sibling groups of repeated labels: three titles under one book, and
   authors with and without names. *)
let library =
  {|<store>
      <book><title>a</title><title>b</title><title>c</title><genre>cs</genre>
        <author><name>x</name></author><author><name>y</name><name>z</name></author><author/></book>
      <book><title>d</title><title>e</title><genre>art</genre><author><name>x</name></author><author/></book>
      <book><title>f</title><genre>cs</genre><author><name>x</name></author></book>
    </store>|}

let test_exact_matches_enumeration_oracle () =
  (* Filtering enumerated structural matches by the predicates must agree
     with the value DP.  A predicate constrains every query node carrying
     its label, so each query below constrains all or none of a label's
     nodes. *)
  let check doc q =
    let vt = vtree_of doc in
    let q = parse vt q in
    let structural = Value_query.strip q in
    let labels = (Twig.index structural).Twig.node_labels in
    let predicates = Value_query.predicates q in
    let expected =
      Tl_twig.Match_enum.enumerate (Value_tree.tree vt) structural
      |> List.filter (fun assignment ->
             Array.for_all2
               (fun l v ->
                 match List.assoc_opt l predicates with
                 | Some value -> Value_tree.value vt v = Some value
                 | None -> true)
               labels assignment)
      |> List.length
    in
    Alcotest.(check int) "DP = filtered enumeration" expected (Value_match.selectivity vt q)
  in
  check bookstore "book(title,genre=cs)";
  (* A repeated-label group of childless nodes. *)
  check library "book(title,title)";
  check library "book(title,title,genre=cs)";
  check library "store(book(title,title,title))";
  (* Mixed groups: same-label members with and without children. *)
  check library "book(author(name),author)";
  check library "book(author(name=x),author,genre=cs)";
  check library "book(author(name,name),author)"

let test_rooted () =
  let vt = shop () in
  let q = parse vt "book(genre=cs)" in
  let total = ref 0 in
  Data_tree.iter_nodes (Value_tree.tree vt) (fun v ->
      total := !total + Value_match.selectivity_rooted vt q v);
  Alcotest.(check int) "rooted sums" (Value_match.selectivity vt q) !total

(* --- value summary -------------------------------------------------------------- *)

let test_histogram () =
  let vt = shop () in
  let summary = Value_summary.build vt in
  let title = label vt "title" in
  (* ocaml appears twice among 5 title nodes (incl. the magazine's). *)
  close "P(ocaml|title)" (2.0 /. 5.0) (Value_summary.value_probability summary title "ocaml");
  close "P(poems|title)" (1.0 /. 5.0) (Value_summary.value_probability summary title "poems");
  close "unknown value" 0.0 (Value_summary.value_probability summary title "zzz");
  close "unvalued label" 0.0 (Value_summary.value_probability summary (label vt "book") "x");
  match Value_summary.top_values summary title with
  | (top, 2) :: _ -> Alcotest.(check string) "most frequent" "ocaml" top
  | _ -> Alcotest.fail "unexpected histogram"

let test_histogram_tail_bucket () =
  let vt = shop () in
  let summary = Value_summary.build ~top:1 vt in
  let title = label vt "title" in
  (* Only "ocaml" retained; the other 3 distinct titles fall into the tail:
     tail estimate = 3/3/5. *)
  close "tail uniformity" (1.0 /. 5.0) (Value_summary.value_probability summary title "poems");
  close "retained exact" (2.0 /. 5.0) (Value_summary.value_probability summary title "ocaml");
  Alcotest.(check bool) "memory accounted" true (Value_summary.memory_bytes summary > 0)

(* --- estimation -------------------------------------------------------------------- *)

let test_estimate_factorizes () =
  let vt = shop () in
  let est = Value_estimator.create ~k:3 vt in
  (match Value_estimator.estimate_string est "book(genre=cs)" with
  | Ok v ->
    (* sigma(book(genre)) = 4; P(cs|genre) = 2/4. *)
    close "single predicate" 2.0 v
  | Error m -> Alcotest.failf "unexpected %s" m);
  match Value_estimator.estimate_string est "title=ocaml" with
  | Ok v -> close "bare valued label" 2.0 v
  | Error m -> Alcotest.failf "unexpected %s" m

let test_estimate_exact_on_independent_values () =
  (* Values assigned independently of structure: factorized estimates are
     exact.  Document: 8 x-nodes; y-values split 50/50; z always "k". *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<r>";
  for i = 0 to 7 do
    Buffer.add_string buf
      (Printf.sprintf "<x><y>%s</y><z>k</z></x>" (if i mod 2 = 0 then "p" else "q"))
  done;
  Buffer.add_string buf "</r>";
  let vt = vtree_of (Buffer.contents buf) in
  let est = Value_estimator.create ~k:3 vt in
  List.iter
    (fun (q, expected) ->
      match Value_estimator.estimate_string est q with
      | Ok v ->
        close q (float_of_int expected) v;
        (match Value_estimator.exact_string est q with
        | Ok truth -> Alcotest.(check int) (q ^ " truth") expected truth
        | Error m -> Alcotest.failf "unexpected %s" m)
      | Error m -> Alcotest.failf "unexpected %s" m)
    [ ("x(y=p)", 4); ("x(y=p,z=k)", 4); ("x(y=q,z)", 4); ("r(x(y=p))", 4) ]

let test_estimate_unknown_tag_is_zero () =
  let vt = shop () in
  let est = Value_estimator.create ~k:3 vt in
  match Value_estimator.estimate_string est "book(nonexistent=1)" with
  | Ok v -> close "unknown tag" 0.0 v
  | Error m -> Alcotest.failf "unknown tags should estimate 0: %s" m

let prop_estimate_bounded_by_structural =
  Helpers.qcheck_case ~name:"value predicates never increase the estimate" ~count:30
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let vt = shop () in
      let est = Value_estimator.create ~k:3 vt in
      let rng = Tl_util.Xorshift.create seed in
      let tree = Value_tree.tree vt in
      match Tl_twig.Twig_enum.random_subtree rng tree ~size:3 with
      | None -> true
      | Some twig ->
        let structural =
          Tl_core.Estimator.estimate (Value_estimator.structural est)
            Tl_core.Treelattice.default_scheme twig
        in
        (* Constrain the twig root's value arbitrarily. *)
        let vq = Value_query.canonicalize
            { (Value_query.of_twig twig) with Value_query.value = Some "ocaml" } in
        Value_estimator.estimate est vq <= structural +. 1e-9)

let () =
  Alcotest.run "values"
    [
      ( "value_tree",
        [
          Alcotest.test_case "extraction" `Quick test_value_extraction;
          Alcotest.test_case "trimming and cdata" `Quick test_value_trimming_and_cdata;
        ] );
      ( "value_query",
        [
          Alcotest.test_case "parse and pp" `Quick test_query_parse_and_pp;
          Alcotest.test_case "quoted values" `Quick test_query_quoted_values;
          Alcotest.test_case "parse errors" `Quick test_query_parse_errors;
          Alcotest.test_case "canonical order" `Quick test_query_canonical_order_insensitive;
          Alcotest.test_case "values distinguish" `Quick test_query_value_distinguishes;
        ] );
      ( "value_match",
        [
          Alcotest.test_case "exact counts" `Quick test_exact_counts;
          Alcotest.test_case "enumeration oracle" `Quick test_exact_matches_enumeration_oracle;
          Alcotest.test_case "rooted sums" `Quick test_rooted;
        ] );
      ( "value_summary",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "tail bucket" `Quick test_histogram_tail_bucket;
        ] );
      ( "value_estimator",
        [
          Alcotest.test_case "factorized estimate" `Quick test_estimate_factorizes;
          Alcotest.test_case "exact under independence" `Quick test_estimate_exact_on_independent_values;
          Alcotest.test_case "unknown tag" `Quick test_estimate_unknown_tag_is_zero;
          prop_estimate_bounded_by_structural;
        ] );
    ]
