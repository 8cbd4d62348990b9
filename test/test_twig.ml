(* Tests for the twig ADT: canonical forms, encoding, the node-indexed view,
   decomposition edits, and the textual syntax. *)

module Twig = Tl_twig.Twig
module Twig_parse = Tl_twig.Twig_parse

let t = Alcotest.testable (Fmt.of_to_string Twig.encode) Twig.equal

(* 0(1,2(3)) style shorthand *)
let n = Twig.node
let l = Twig.leaf

(* --- shape accessors --------------------------------------------------------- *)

let test_size_depth_width () =
  let tw = n 0 [ l 1; n 2 [ l 3; l 4 ] ] in
  Alcotest.(check int) "size" 5 (Twig.size tw);
  Alcotest.(check int) "depth" 3 (Twig.depth tw);
  Alcotest.(check int) "width" 2 (Twig.width tw);
  Alcotest.(check int) "leaf size" 1 (Twig.size (l 9));
  Alcotest.(check int) "leaf depth" 1 (Twig.depth (l 9));
  Alcotest.(check int) "leaf width" 0 (Twig.width (l 9))

let test_labels_preorder () =
  Alcotest.(check (list int)) "labels" [ 0; 1; 2; 3 ] (Twig.labels (n 0 [ l 1; n 2 [ l 3 ] ]))

(* --- canonical form ------------------------------------------------------------ *)

let test_canonicalize_sorts_children () =
  let a = n 0 [ l 2; l 1 ] in
  let b = n 0 [ l 1; l 2 ] in
  Alcotest.check t "sibling order ignored" (Twig.canonicalize a) (Twig.canonicalize b);
  Alcotest.(check bool) "canonical flag" true (Twig.is_canonical (Twig.canonicalize a))

let test_canonicalize_deep () =
  let a = n 0 [ n 1 [ l 3; l 2 ]; n 1 [ l 2; l 2 ] ] in
  let b = n 0 [ n 1 [ l 2; l 2 ]; n 1 [ l 2; l 3 ] ] in
  Alcotest.check t "nested reordering" (Twig.canonicalize a) (Twig.canonicalize b)

let test_canonicalize_idempotent () =
  let tw = Twig.canonicalize (n 5 [ n 3 [ l 9 ]; l 1; l 7 ]) in
  Alcotest.check t "idempotent" tw (Twig.canonicalize tw)

let test_equal_distinguishes_structure () =
  Alcotest.(check bool) "different shapes differ" false
    (Twig.equal (n 0 [ n 1 [ l 2 ] ]) (n 0 [ l 1; l 2 ]));
  Alcotest.(check bool) "different labels differ" false (Twig.equal (l 1) (l 2))

let test_encode_decode_roundtrip () =
  let tw = Twig.canonicalize (n 10 [ n 2 [ l 30 ]; l 4 ]) in
  Alcotest.check t "decode inverse" tw (Twig.decode (Twig.encode tw));
  Alcotest.(check string) "leaf encoding" "7" (Twig.encode (l 7))

let test_decode_errors () =
  let expect_invalid s =
    match Twig.decode s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected decode failure for %S" s
  in
  expect_invalid "";
  expect_invalid "a";
  expect_invalid "1(";
  expect_invalid "1(2";
  expect_invalid "1)2";
  expect_invalid "1(2,)"

let test_hash_agrees_with_equal () =
  let a = Twig.canonicalize (n 0 [ l 2; l 1 ]) in
  let b = Twig.canonicalize (n 0 [ l 1; l 2 ]) in
  Alcotest.(check int) "equal twigs hash alike" (Twig.hash a) (Twig.hash b)

(* --- hash-consed keys ------------------------------------------------------------- *)

let test_key_identity_modulo_order () =
  let a = Twig.key (n 0 [ l 2; n 1 [ l 3; l 4 ] ]) in
  let b = Twig.key (n 0 [ n 1 [ l 4; l 3 ]; l 2 ]) in
  Alcotest.(check int) "same id" (Twig.Key.id a) (Twig.Key.id b);
  Alcotest.(check bool) "Key.equal" true (Twig.Key.equal a b);
  Alcotest.(check bool) "same physical representative" true (Twig.Key.twig a == Twig.Key.twig b)

let test_canonicalize_shares_representative () =
  let a = Twig.canonicalize (n 0 [ l 2; l 1 ]) in
  let b = Twig.canonicalize (n 0 [ l 1; l 2 ]) in
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check bool) "idempotent physically" true (Twig.canonicalize a == a)

let test_key_encode_matches () =
  let tw = n 5 [ n 3 [ l 9 ]; l 1 ] in
  Alcotest.(check string) "Key.encode = encode" (Twig.encode tw) (Twig.Key.encode (Twig.key tw))

let test_interned_count_stable () =
  let tw = n 7 [ l 8; n 9 [ l 7 ] ] in
  ignore (Twig.key tw);
  let before = Twig.Key.interned () in
  (* Re-interning the same structure (any sibling order) allocates nothing. *)
  ignore (Twig.key (n 7 [ n 9 [ l 7 ]; l 8 ]));
  ignore (Twig.key tw);
  Alcotest.(check int) "no new ids" before (Twig.Key.interned ());
  ignore (Twig.key (n 7 [ l 8; n 9 [ l 7 ]; l 800 ]));
  Alcotest.(check bool) "fresh structure allocates" true (Twig.Key.interned () > before)

let test_key_compare_agrees () =
  let a = Twig.key (l 1) and b = Twig.key (n 1 [ l 2 ]) in
  Alcotest.(check int) "Key.compare = Twig.compare"
    (compare (Twig.compare (Twig.Key.twig a) (Twig.Key.twig b)) 0)
    (compare (Twig.Key.compare a b) 0)

let prop_key_id_iff_encoding =
  Helpers.qcheck_case ~name:"key ids coincide exactly when encodings do"
    QCheck2.Gen.(pair (Helpers.twig_gen ~max_nodes:8 ()) (Helpers.twig_gen ~max_nodes:8 ()))
    (fun (a, b) ->
      let ka = Twig.key a and kb = Twig.key b in
      Twig.Key.id ka = Twig.Key.id kb = String.equal (Twig.encode a) (Twig.encode b))

let prop_derived_twigs_are_canonical =
  Helpers.qcheck_case ~name:"induced/remove/grow results are pinned representatives"
    (Helpers.twig_gen ~max_nodes:10 ())
    (fun tw ->
      let ix = Twig.index tw in
      let n = Array.length ix.Twig.node_labels in
      let all = List.init n Fun.id in
      Twig.is_canonical (Twig.induced ix all)
      && List.for_all (fun i -> Twig.is_canonical (Twig.remove ix i)) (Twig.degree_one ix)
      && Twig.is_canonical (Twig.grow ix 0 42))

(* --- paths ------------------------------------------------------------------------ *)

let test_paths () =
  let p = Twig.of_path [ 1; 2; 3 ] in
  Alcotest.(check bool) "is_path" true (Twig.is_path p);
  Alcotest.(check (option (list int))) "labels back" (Some [ 1; 2; 3 ]) (Twig.path_labels p);
  Alcotest.(check bool) "branching is not a path" false (Twig.is_path (n 0 [ l 1; l 2 ]));
  Alcotest.(check (option (list int))) "branching has no path labels" None
    (Twig.path_labels (n 0 [ l 1; l 2 ]));
  Alcotest.check_raises "empty path" (Invalid_argument "Twig.of_path: empty label list") (fun () ->
      ignore (Twig.of_path []))

(* --- automorphisms ------------------------------------------------------------------ *)

let test_automorphisms () =
  Alcotest.(check int) "leaf" 1 (Twig.automorphisms (l 0));
  Alcotest.(check int) "distinct children" 1 (Twig.automorphisms (n 0 [ l 1; l 2 ]));
  Alcotest.(check int) "two identical" 2 (Twig.automorphisms (n 0 [ l 1; l 1 ]));
  Alcotest.(check int) "three identical" 6 (Twig.automorphisms (n 0 [ l 1; l 1; l 1 ]));
  Alcotest.(check int) "nested identical" 8
    (Twig.automorphisms (n 0 [ n 1 [ l 2; l 2 ]; n 1 [ l 2; l 2 ] ]));
  Alcotest.(check int) "identical subtrees with internal structure" 2
    (Twig.automorphisms (n 0 [ n 1 [ l 2 ]; n 1 [ l 2 ]; n 1 [ l 3 ] ]))

(* --- node-indexed view ----------------------------------------------------------------- *)

let test_index_layout () =
  let ix = Twig.index (n 0 [ l 2; n 1 [ l 3 ] ]) in
  (* Canonical order sorts children by encoding: "1(3)" < "2". *)
  Alcotest.(check (array int)) "labels in canonical preorder" [| 0; 1; 3; 2 |] ix.Twig.node_labels;
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 0 |] ix.Twig.parents;
  Alcotest.(check (list int)) "root kids" [ 1; 3 ] ix.Twig.kids.(0)

let test_degree_one () =
  (* Root with one child is degree-1 (its child is not, if it has children). *)
  let path_ix = Twig.index (Twig.of_path [ 0; 1; 2 ]) in
  Alcotest.(check (list int)) "path: root and leaf" [ 0; 2 ] (Twig.degree_one path_ix);
  let star_ix = Twig.index (n 0 [ l 1; l 2; l 3 ]) in
  Alcotest.(check (list int)) "star: leaves only" [ 1; 2; 3 ] (Twig.degree_one star_ix);
  let single_ix = Twig.index (l 5) in
  Alcotest.(check (list int)) "single node has degree 0, nothing removable" []
    (Twig.degree_one single_ix)

let test_remove_leaf () =
  let ix = Twig.index (n 0 [ l 1; l 2 ]) in
  Alcotest.check t "remove leaf 1" (Twig.canonicalize (n 0 [ l 2 ])) (Twig.remove ix 1);
  Alcotest.check t "remove leaf 2" (Twig.canonicalize (n 0 [ l 1 ])) (Twig.remove ix 2)

let test_remove_root () =
  let ix = Twig.index (Twig.of_path [ 0; 1; 2 ]) in
  Alcotest.check t "root removal promotes child" (Twig.of_path [ 1; 2 ]) (Twig.remove ix 0)

let test_remove_errors () =
  let ix = Twig.index (n 0 [ n 1 [ l 2 ]; l 3 ]) in
  Alcotest.check_raises "internal node" (Invalid_argument "Twig.remove: node is not degree-1")
    (fun () -> ignore (Twig.remove ix 1));
  Alcotest.check_raises "branching root" (Invalid_argument "Twig.remove: node is not degree-1")
    (fun () -> ignore (Twig.remove ix 0));
  let single = Twig.index (l 9) in
  Alcotest.check_raises "single node" (Invalid_argument "Twig.remove: cannot remove from a single-node twig")
    (fun () -> ignore (Twig.remove single 0))

let test_induced () =
  let ix = Twig.index (n 0 [ n 1 [ l 2 ]; l 3 ]) in
  (* Canonical preorder: 0, 1, 2, 3. *)
  Alcotest.check t "prefix" (Twig.canonicalize (n 0 [ n 1 [ l 2 ] ])) (Twig.induced ix [ 0; 1; 2 ]);
  Alcotest.check t "subtree rooted below" (Twig.canonicalize (n 1 [ l 2 ])) (Twig.induced ix [ 1; 2 ]);
  Alcotest.check_raises "disconnected" (Invalid_argument "Twig.induced: node set is not connected")
    (fun () -> ignore (Twig.induced ix [ 0; 2 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Twig.induced: empty node set") (fun () ->
      ignore (Twig.induced ix []))

let test_grow () =
  let ix = Twig.index (n 0 [ l 1 ]) in
  Alcotest.check t "grow under root" (Twig.canonicalize (n 0 [ l 1; l 2 ])) (Twig.grow ix 0 2);
  Alcotest.check t "grow under leaf" (Twig.canonicalize (n 0 [ n 1 [ l 2 ] ])) (Twig.grow ix 1 2)

let test_map_labels () =
  let tw = n 0 [ l 1; l 2 ] in
  let mapped = Twig.map_labels (fun x -> x + 10) tw in
  Alcotest.(check (list int)) "mapped labels" [ 10; 11; 12 ] (Twig.labels mapped)

let test_pp () =
  let names = function 0 -> "a" | 1 -> "b" | 2 -> "c" | _ -> "?" in
  Alcotest.(check string) "pretty" "a(b,c)" (Twig.pp ~names (n 0 [ l 1; l 2 ]));
  Alcotest.(check string) "leaf pretty" "b" (Twig.pp ~names (l 1))

(* --- textual syntax --------------------------------------------------------------------- *)

let test_parse_roundtrip () =
  let ast = Twig_parse.parse "a(b, c(d , e) ,f)" in
  Alcotest.(check string) "normalized" "a(b,c(d,e),f)" (Twig_parse.to_string ast);
  Alcotest.(check string) "single tag" "solo" (Twig_parse.to_string (Twig_parse.parse "  solo  "))

let test_parse_errors () =
  let expect_syntax s =
    match Twig_parse.parse s with
    | exception Twig_parse.Syntax_error _ -> ()
    | _ -> Alcotest.failf "expected syntax error for %S" s
  in
  expect_syntax "";
  expect_syntax "a(";
  expect_syntax "a(b";
  expect_syntax "a)b";
  expect_syntax "a(b,,c)";
  expect_syntax "a(b) trailing"

let test_to_twig () =
  let intern = function "a" -> Some 0 | "b" -> Some 1 | _ -> None in
  (match Twig_parse.to_twig ~intern (Twig_parse.parse "a(b,b)") with
  | Ok tw -> Alcotest.check t "converted" (Twig.canonicalize (n 0 [ l 1; l 1 ])) tw
  | Error _ -> Alcotest.fail "expected success");
  match Twig_parse.to_twig ~intern (Twig_parse.parse "a(zzz)") with
  | Error tag -> Alcotest.(check string) "unknown tag reported" "zzz" tag
  | Ok _ -> Alcotest.fail "expected unknown-tag error"

let test_of_twig_inverse () =
  let names = function 0 -> "a" | 1 -> "b" | _ -> "?" in
  let ast = Twig_parse.of_twig ~names (n 0 [ l 1 ]) in
  Alcotest.(check string) "rendered" "a(b)" (Twig_parse.to_string ast)

let test_parse_twig_wrapper () =
  let intern = function "a" -> Some 0 | _ -> None in
  (match Twig_parse.parse_twig ~intern "a" with
  | Ok tw -> Alcotest.check t "ok" (l 0) tw
  | Error m -> Alcotest.failf "unexpected error %s" m);
  (match Twig_parse.parse_twig ~intern "a((" with
  | Error m -> Alcotest.(check bool) "syntax error surfaced" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected error");
  match Twig_parse.parse_twig ~intern "nope" with
  | Error m -> Alcotest.(check bool) "unknown tag surfaced" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected error"

(* --- properties ----------------------------------------------------------------------------- *)

let gen = Helpers.twig_gen ~max_nodes:12 ()

let prop_canonicalize_idempotent =
  Helpers.qcheck_case ~name:"canonicalize is idempotent" gen (fun tw ->
      let c = Twig.canonicalize tw in
      Twig.equal c (Twig.canonicalize c) && Twig.is_canonical c)

let prop_encode_decode =
  Helpers.qcheck_case ~name:"decode . encode = canonicalize" gen (fun tw ->
      Twig.equal (Twig.canonicalize tw) (Twig.decode (Twig.encode tw)))

let prop_shuffle_invariant =
  Helpers.qcheck_case ~name:"encoding invariant under child reversal" gen (fun tw ->
      let rec reverse (tw : Twig.t) = Twig.node tw.label (List.rev_map reverse tw.children) in
      String.equal (Twig.encode tw) (Twig.encode (reverse tw)))

let prop_remove_shrinks =
  Helpers.qcheck_case ~name:"removing a degree-1 node shrinks size by one" gen (fun tw ->
      Twig.size tw < 2
      ||
      let ix = Twig.index tw in
      List.for_all (fun i -> Twig.size (Twig.remove ix i) = Twig.size tw - 1) (Twig.degree_one ix))

let prop_grow_then_size =
  Helpers.qcheck_case ~name:"grow adds one node everywhere" gen (fun tw ->
      let ix = Twig.index tw in
      let n = Array.length ix.Twig.node_labels in
      List.for_all
        (fun i -> Twig.size (Twig.grow ix i 99) = Twig.size tw + 1)
        (List.init n Fun.id))

let prop_degree_one_nonempty =
  Helpers.qcheck_case ~name:"every twig of size >= 2 has >= 2 removable nodes" gen (fun tw ->
      Twig.size tw < 2 || List.length (Twig.degree_one (Twig.index tw)) >= 2)

(* --- leaf-pair splits cached on the key ------------------------------------------------------ *)

(* The splits the recursive decomposition would build by hand: every
   unordered pair of degree-1 nodes, in [degree_one] order. *)
let fresh_splits tw =
  let ix = Twig.index tw in
  let n = Array.length ix.Twig.node_labels in
  let rec pairs = function [] -> [] | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest in
  List.map
    (fun (u, v) ->
      let cap = Twig.induced ix (List.filter (fun i -> i <> u && i <> v) (List.init n Fun.id)) in
      let twin =
        ix.Twig.parents.(u) >= 0
        && ix.Twig.parents.(u) = ix.Twig.parents.(v)
        && ix.Twig.node_labels.(u) = ix.Twig.node_labels.(v)
      in
      (Twig.key (Twig.remove ix u), Twig.key (Twig.remove ix v), Twig.key cap, twin))
    (pairs (Twig.degree_one ix))

let prop_splits_match_fresh =
  Helpers.qcheck_case ~name:"cached splits = fresh remove/induced, in order" gen (fun tw ->
      let k = Twig.key tw in
      if Twig.size tw < 3 then
        Twig.Key.leaf_pairs k = 0
        && match Twig.Key.split k 0 with exception Invalid_argument _ -> true | _ -> false
      else begin
        let expected = fresh_splits tw in
        let n = Twig.Key.leaf_pairs k in
        (* Built back to front, then read front to back: slot order must not
           depend on build order. *)
        for i = n - 1 downto 0 do
          ignore (Twig.Key.split k i)
        done;
        n = List.length expected
        && List.for_all2
             (fun i (t1, t2, cap, twin) ->
               let sp = Twig.Key.split k i in
               Twig.Key.equal sp.Twig.Key.t1 t1
               && Twig.Key.equal sp.Twig.Key.t2 t2
               && Twig.Key.equal sp.Twig.Key.cap cap
               && sp.Twig.Key.twin = twin
               && Twig.Key.split k i == sp)
             (List.init n Fun.id) expected
      end)

let built () =
  let snap = Tl_obs.Metrics.snapshot () in
  Option.value ~default:0 (List.assoc_opt "twig.leaf_pairs_built" snap.Tl_obs.Metrics.counters)

(* Labels no other test uses, so the key starts with nothing built. *)
let test_split_built_once_per_pair () =
  (* preorder 0:7001 1:7003 2:7002 3:7002 4:7004; degree-1 = [0; 2; 3; 4] *)
  let tw = n 7001 [ n 7003 [ l 7004; l 7002; l 7002 ] ] in
  let k = Twig.key tw in
  let b0 = built () in
  Alcotest.(check int) "four degree-1 nodes, six pairs" 6 (Twig.Key.leaf_pairs k);
  Alcotest.(check int) "counting pairs builds nothing" b0 (built ());
  let first = Twig.Key.split k 0 in
  Alcotest.(check int) "the first split alone" (b0 + 1) (built ());
  Alcotest.(check bool) "root and a leaf are no twins" false first.Twig.Key.twin;
  Alcotest.(check bool) "cached: same split back" true (Twig.Key.split k 0 == first);
  Alcotest.(check int) "a cached split is not rebuilt" (b0 + 1) (built ());
  for i = 0 to 5 do
    ignore (Twig.Key.split k i)
  done;
  Alcotest.(check int) "each pair built once" (b0 + 6) (built ());
  Alcotest.(check bool) "pair (2, 3): same-labeled siblings are twins" true
    (Twig.Key.split k 3).Twig.Key.twin;
  Alcotest.(check bool) "first split kept across later builds" true (Twig.Key.split k 0 == first);
  Alcotest.check_raises "out of range" (Invalid_argument "Twig.Key.split: pair index out of bounds")
    (fun () -> ignore (Twig.Key.split k 6))

let () =
  Alcotest.run "twig"
    [
      ( "shape",
        [
          Alcotest.test_case "size/depth/width" `Quick test_size_depth_width;
          Alcotest.test_case "labels preorder" `Quick test_labels_preorder;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "sorts children" `Quick test_canonicalize_sorts_children;
          Alcotest.test_case "deep reordering" `Quick test_canonicalize_deep;
          Alcotest.test_case "idempotent" `Quick test_canonicalize_idempotent;
          Alcotest.test_case "structure distinguished" `Quick test_equal_distinguishes_structure;
          Alcotest.test_case "encode/decode" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "hash consistency" `Quick test_hash_agrees_with_equal;
          prop_canonicalize_idempotent;
          prop_encode_decode;
          prop_shuffle_invariant;
        ] );
      ( "keys",
        [
          Alcotest.test_case "identity modulo order" `Quick test_key_identity_modulo_order;
          Alcotest.test_case "canonicalize shares" `Quick test_canonicalize_shares_representative;
          Alcotest.test_case "encode agreement" `Quick test_key_encode_matches;
          Alcotest.test_case "interned count stable" `Quick test_interned_count_stable;
          Alcotest.test_case "compare agreement" `Quick test_key_compare_agrees;
          prop_key_id_iff_encoding;
          prop_derived_twigs_are_canonical;
        ] );
      ( "paths",
        [
          Alcotest.test_case "path twigs" `Quick test_paths;
        ] );
      ( "automorphisms",
        [ Alcotest.test_case "counts" `Quick test_automorphisms ] );
      ( "indexed",
        [
          Alcotest.test_case "layout" `Quick test_index_layout;
          Alcotest.test_case "degree one" `Quick test_degree_one;
          Alcotest.test_case "remove leaf" `Quick test_remove_leaf;
          Alcotest.test_case "remove root" `Quick test_remove_root;
          Alcotest.test_case "remove errors" `Quick test_remove_errors;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "grow" `Quick test_grow;
          Alcotest.test_case "map labels" `Quick test_map_labels;
          Alcotest.test_case "pp" `Quick test_pp;
          prop_remove_shrinks;
          prop_grow_then_size;
          prop_degree_one_nonempty;
        ] );
      ( "splits",
        [
          Alcotest.test_case "built once per pair, on demand" `Quick test_split_built_once_per_pair;
          prop_splits_match_fresh;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "to_twig" `Quick test_to_twig;
          Alcotest.test_case "of_twig" `Quick test_of_twig_inverse;
          Alcotest.test_case "parse_twig wrapper" `Quick test_parse_twig_wrapper;
        ] );
    ]
