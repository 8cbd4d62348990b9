(* Tests for the exact twig match counter (Definition 1 semantics),
   including the injective sibling-group permanents and the brute-force
   enumeration oracle. *)

module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count
module Twig_enum = Tl_twig.Twig_enum
module Data_tree = Tl_tree.Data_tree
module TB = Tl_tree.Tree_builder

let n = Twig.node
let lf = Twig.leaf

let count_of tree query = Match_count.count tree (Helpers.twig_of_string tree query)

(* --- hand-computed counts -------------------------------------------------- *)

let test_fig1_shop () =
  (* The paper's Fig. 1: //laptop[brand][price] has two matches. *)
  let tree = Helpers.tree_of Helpers.shop_spec in
  Alcotest.(check int) "laptop(brand,price)" 2 (count_of tree "laptop(brand,price)");
  Alcotest.(check int) "single label" 2 (count_of tree "laptop");
  Alcotest.(check int) "brand anywhere" 3 (count_of tree "brand");
  Alcotest.(check int) "full path" 2 (count_of tree "computer(laptops(laptop(brand)))");
  Alcotest.(check int) "desktop has no price" 0 (count_of tree "desktop(price)")

let test_repeated_siblings_permanent () =
  (* b with 4 c-children: query b(c,c) has 4*3 = 12 injective matches. *)
  let tree = TB.build (TB.node "b" (TB.replicate 4 (TB.leaf "c"))) in
  Alcotest.(check int) "b(c)" 4 (count_of tree "b(c)");
  Alcotest.(check int) "b(c,c)" 12 (count_of tree "b(c,c)");
  Alcotest.(check int) "b(c,c,c)" 24 (count_of tree "b(c,c,c)");
  Alcotest.(check int) "b(c,c,c,c)" 24 (count_of tree "b(c,c,c,c)");
  Alcotest.(check int) "five do not fit" 0 (count_of tree "b(c,c,c,c,c)")

let test_mixed_sibling_groups () =
  (* b(c,c,d): choose 2 of 3 c's ordered (6) x 1 d = 6. *)
  let tree = TB.build (TB.node "b" (TB.leaf "d" :: TB.replicate 3 (TB.leaf "c"))) in
  Alcotest.(check int) "b(c,c,d)" 6 (count_of tree "b(c,c,d)")

let test_childless_and_mixed_groups () =
  (* A group of childless members counts c (c - 1) ... (c - m + 1). *)
  let a_with_bs k = TB.build (TB.node "a" (TB.replicate k (TB.leaf "b"))) in
  Alcotest.(check int) "a(b,b,b) over five b's" 60 (count_of (a_with_bs 5) "a(b,b,b)");
  Alcotest.(check int) "a(b,b,b) over two b's" 0 (count_of (a_with_bs 2) "a(b,b,b)");
  (* Mixed group over b, b(c), b(c,c,c): b(c) goes to the second (1 way)
     or third (3 ways) child and b to either other child, so 2 * 1 + 2 * 3. *)
  let tree =
    TB.build (TB.node "a" [ TB.leaf "b"; TB.node "b" [ TB.leaf "c" ]; TB.node "b" (TB.replicate 3 (TB.leaf "c")) ])
  in
  Alcotest.(check int) "a(b,b(c))" 8 (count_of tree "a(b,b(c))")

let test_permanent_with_subtree_weights () =
  (* Two c-children with different subtree counts: c1 has 2 e's, c2 has 1 e.
     Query b(c(e),c(e)): injective assignments = 2*1 + 1*2 = 4. *)
  let tree =
    TB.build
      (TB.node "b"
         [ TB.node "c" [ TB.leaf "e"; TB.leaf "e" ]; TB.node "c" [ TB.leaf "e" ] ])
  in
  Alcotest.(check int) "weighted permanent" 4 (count_of tree "b(c(e),c(e))")

let test_deep_chain () =
  let tree = TB.build (TB.path [ "a"; "b"; "c"; "d" ]) in
  Alcotest.(check int) "full path" 1 (count_of tree "a(b(c(d)))");
  Alcotest.(check int) "suffix" 1 (count_of tree "b(c)");
  Alcotest.(check int) "absent shape" 0 (count_of tree "a(c)")

let test_fig11_document () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  Alcotest.(check int) "sigma(b)" 4 (count_of tree "b");
  Alcotest.(check int) "sigma(c)" 13 (count_of tree "c");
  Alcotest.(check int) "sigma(b(c,d))" 4 (count_of tree "b(c,d)");
  Alcotest.(check int) "sigma(a(b(c,d)))" 4 (count_of tree "a(b(c,d))")

let test_absent_label_zero () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let twig = Twig.leaf 999 in
  Alcotest.(check int) "unknown label" 0 (Match_count.count tree twig)

let test_rooted_counts () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let ctx = Match_count.create_ctx tree in
  let twig = Helpers.twig_of_string tree "laptop(brand)" in
  let total = ref 0 in
  Data_tree.iter_nodes tree (fun v -> total := !total + Match_count.selectivity_rooted ctx twig v);
  Alcotest.(check int) "rooted counts sum to selectivity" (Match_count.selectivity ctx twig) !total

let test_ctx_reuse () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let ctx = Match_count.create_ctx tree in
  let q1 = Helpers.twig_of_string tree "b(c,d)" in
  let q2 = Helpers.twig_of_string tree "a(b(c),b(d))" in
  let first = Match_count.selectivity ctx q1 in
  ignore (Match_count.selectivity ctx q2);
  ignore (Match_count.selectivity ctx (Twig.leaf 0));
  Alcotest.(check int) "same answer after reuse" first (Match_count.selectivity ctx q1)

(* m same-label siblings with children of their own cost a 2^m mask DP;
   a data node with fewer matching children than m must answer 0 before
   paying it.  At m = 24 the DP would allocate 2^24 ints. *)
let test_wide_group_cannot_fit () =
  let xml = "<a>" ^ String.concat "" (List.init 3 (fun _ -> "<b><c/></b>")) ^ "</a>" in
  let query m = "a(" ^ String.concat "," (List.init m (fun _ -> "b(c)")) ^ ")" in
  let t0 = Tl_util.Mono_clock.now_ns () in
  let tree = Tl_tree.Data_tree.of_xml (Tl_xml.Xml_dom.parse_string xml) in
  Alcotest.(check int) "three fit: 3!" 6 (count_of tree (query 3));
  Alcotest.(check int) "Match_count: 24 cannot fit" 0 (count_of tree (query 24));
  let vt = Tl_values.Value_tree.of_xml (Tl_xml.Xml_dom.parse_string xml) in
  let value_count m =
    match Tl_values.Value_query.parse ~intern:(Data_tree.label_of_string tree) (query m) with
    | Ok vq -> Tl_values.Value_match.selectivity vt vq
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  Alcotest.(check int) "Value_match: three fit" 6 (value_count 3);
  Alcotest.(check int) "Value_match: 24 cannot fit" 0 (value_count 24);
  Alcotest.(check int) "injective_assignments: 3 rows, 24 members" 0
    (Match_count.injective_assignments ~members:24 (Array.make (3 * 24) 1));
  let elapsed = Tl_util.Mono_clock.elapsed_ns ~since:t0 in
  Alcotest.(check bool) (Printf.sprintf "within 1 s (%d ns)" elapsed) true (elapsed < 1_000_000_000)

let test_cross_branch_query () =
  (* a(b(c),b(d)): b's must be distinct. *)
  let tree =
    TB.build
      (TB.node "a"
         [ TB.node "b" [ TB.leaf "c"; TB.leaf "d" ]; TB.node "b" [ TB.leaf "c" ] ])
  in
  (* Pairs: (b1,b2): b1 has d? query children are b(c) and b(d):
     b(c) matches b1 (1) and b2 (1); b(d) matches only b1 (1).
     Injective: b(c)->b2, b(d)->b1 = 1; b(c)->b1, b(d)->b1 invalid.
     So 1 assignment... plus b(c)->b1 with b(d)->b2 = 0. Total 1. *)
  Alcotest.(check int) "injective across branches" 1 (count_of tree "a(b(c),b(d))")

(* --- enumeration oracle ------------------------------------------------------- *)

let test_enum_occurrences_small () =
  let tree = TB.build (TB.node "a" [ TB.leaf "b"; TB.leaf "b" ]) in
  let occ = Twig_enum.occurrences tree ~max_size:3 in
  let render = List.map (fun (tw, c) -> (Twig.encode tw, c)) occ in
  (* Subsets: a, b x2, a(b) x2, a(b,b) x1. *)
  let a = Data_tree.label tree 0 and b = Data_tree.label tree 1 in
  let expect =
    List.sort compare
      [
        (Twig.encode (lf a), 1);
        (Twig.encode (lf b), 2);
        (Twig.encode (n a [ lf b ]), 2);
        (Twig.encode (n a [ lf b; lf b ]), 1);
      ]
  in
  Alcotest.(check (list (pair string int))) "subset counts" expect (List.sort compare render)

let test_enum_selectivities_match_dp () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let ctx = Match_count.create_ctx tree in
  List.iter
    (fun (tw, enum_count) ->
      Alcotest.(check int)
        (Printf.sprintf "pattern %s" (Twig.encode tw))
        enum_count (Match_count.selectivity ctx tw))
    (Twig_enum.selectivities tree ~max_size:3)

let test_random_subtree_is_occurring () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let ctx = Match_count.create_ctx tree in
  let rng = Tl_util.Xorshift.create 5 in
  for _ = 1 to 50 do
    match Twig_enum.random_subtree rng tree ~size:4 with
    | Some tw ->
      Alcotest.(check int) "sampled size" 4 (Twig.size tw);
      Alcotest.(check bool) "occurs" true (Match_count.selectivity ctx tw > 0)
    | None -> Alcotest.fail "sampling failed on a tree with size-4 subtrees"
  done

let test_random_subtree_too_big () =
  let tree = TB.build (TB.leaf "only") in
  let rng = Tl_util.Xorshift.create 6 in
  Alcotest.(check (option int)) "oversized request" None
    (Option.map Twig.size (Twig_enum.random_subtree rng tree ~size:5))

(* --- the big property: DP counter == enumeration oracle ------------------------- *)

let dp_equals_oracle ~max_size tree =
  let ctx = Match_count.create_ctx tree in
  List.for_all
    (fun (tw, expected) -> Match_count.selectivity ctx tw = expected)
    (Twig_enum.selectivities tree ~max_size)

let prop_dp_equals_oracle =
  Helpers.qcheck_case ~name:"DP count equals brute-force oracle on random trees" ~count:60
    (Helpers.tree_gen ~max_nodes:14) (dp_equals_oracle ~max_size:4)

(* Over two or three labels, groups of two or three same-label leaves and
   groups mixing leaves with inner nodes are common, so both the closed
   form and the hoisted sub-counts of the mask loop are exercised. *)
let prop_dp_equals_oracle_few_labels =
  Helpers.qcheck_case ~name:"few labels: DP count = oracle at max_size 5" ~count:60
    (Helpers.few_labels_tree_gen ~max_nodes:14) (dp_equals_oracle ~max_size:5)

let prop_downward_closure =
  Helpers.qcheck_case ~name:"occurring twigs have occurring sub-twigs" ~count:60
    (Helpers.tree_gen ~max_nodes:20)
    (fun tree ->
      let ctx = Match_count.create_ctx tree in
      let rng = Tl_util.Xorshift.create 7 in
      match Twig_enum.random_subtree rng tree ~size:4 with
      | None -> true
      | Some tw ->
        (* The sampled twig occurs by construction, so every one-node
           removal must occur too (downward closure of occurrence — the
           miner's pruning rule). *)
        Match_count.selectivity ctx tw > 0
        &&
        let ix = Twig.index tw in
        List.for_all
          (fun i -> Match_count.selectivity ctx (Twig.remove ix i) > 0)
          (Twig.degree_one ix))

(* The counting loop over a chosen root set: its total is the sum of the
   rooted counts, and the roots it keeps are exactly those with a non-zero
   rooted count, in input order.  The twig is an occurring one half the
   time, and the roots a shuffled random subset of every node (labels
   included that cannot be the twig's root). *)
let prop_count_over_subset =
  Helpers.qcheck_case ~name:"count_over a root subset = sum of rooted counts" ~count:200
    QCheck2.Gen.(triple (Helpers.tree_gen ~max_nodes:20) (Helpers.twig_gen ~nlabels:4 ~max_nodes:4 ()) int)
    (fun (tree, random_twig, seed) ->
      let ctx = Match_count.create_ctx tree in
      let rng = Tl_util.Xorshift.create seed in
      let twig =
        if Tl_util.Xorshift.bool rng then random_twig
        else
          Option.value ~default:random_twig
            (Twig_enum.random_subtree rng tree ~size:(Tl_util.Xorshift.int_in rng 1 4))
      in
      let roots =
        Array.of_list
          (List.filter (fun _ -> Tl_util.Xorshift.bool rng) (List.init (Data_tree.size tree) Fun.id))
      in
      Tl_util.Xorshift.shuffle rng roots;
      let rooted = List.map (fun v -> (v, Match_count.selectivity_rooted ctx twig v)) (Array.to_list roots) in
      let total, kept = Match_count.count_over ctx twig roots ~keep_roots:true in
      let unkept, _ = Match_count.count_over ctx twig roots ~keep_roots:false in
      total = List.fold_left (fun acc (_, c) -> acc + c) 0 rooted
      && unkept = total
      && Array.to_list kept = List.filter_map (fun (v, c) -> if c <> 0 then Some v else None) rooted)

let () =
  Alcotest.run "match_count"
    [
      ( "hand-computed",
        [
          Alcotest.test_case "fig1 shop" `Quick test_fig1_shop;
          Alcotest.test_case "repeated siblings" `Quick test_repeated_siblings_permanent;
          Alcotest.test_case "mixed sibling groups" `Quick test_mixed_sibling_groups;
          Alcotest.test_case "childless and mixed groups" `Quick test_childless_and_mixed_groups;
          Alcotest.test_case "weighted permanent" `Quick test_permanent_with_subtree_weights;
          Alcotest.test_case "deep chain" `Quick test_deep_chain;
          Alcotest.test_case "fig11 document" `Quick test_fig11_document;
          Alcotest.test_case "absent label" `Quick test_absent_label_zero;
          Alcotest.test_case "rooted counts" `Quick test_rooted_counts;
          Alcotest.test_case "ctx reuse" `Quick test_ctx_reuse;
          Alcotest.test_case "cross-branch injectivity" `Quick test_cross_branch_query;
          Alcotest.test_case "wide group that cannot fit" `Quick test_wide_group_cannot_fit;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "subset counts" `Quick test_enum_occurrences_small;
          Alcotest.test_case "selectivities match dp" `Quick test_enum_selectivities_match_dp;
          Alcotest.test_case "random subtree occurs" `Quick test_random_subtree_is_occurring;
          Alcotest.test_case "random subtree too big" `Quick test_random_subtree_too_big;
          prop_dp_equals_oracle;
          prop_dp_equals_oracle_few_labels;
          prop_downward_closure;
          prop_count_over_subset;
        ] );
    ]
