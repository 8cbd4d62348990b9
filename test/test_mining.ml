(* Tests for the level-wise lattice miner. *)

module Miner = Tl_mining.Miner
module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count
module Twig_enum = Tl_twig.Twig_enum
module Data_tree = Tl_tree.Data_tree
module TB = Tl_tree.Tree_builder

let mine tree k = Miner.mine (Match_count.create_ctx tree) ~max_size:k

let as_pairs result =
  List.sort compare (List.map (fun (tw, c) -> (Twig.encode tw, c)) (Miner.all result))

let test_level1_is_label_histogram () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let result = mine tree 1 in
  let expected =
    List.init (Data_tree.label_count tree) (fun l ->
        (Twig.encode (Twig.leaf l), Array.length (Data_tree.nodes_with_label tree l)))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int))) "level 1 = label counts" expected (as_pairs result)

let test_matches_oracle_on_shop () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let mined = as_pairs (mine tree 4) in
  let oracle =
    Twig_enum.selectivities tree ~max_size:4
    |> List.map (fun (tw, c) -> (Twig.encode tw, c))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int))) "miner = oracle" oracle mined

let test_levels_partition_by_size () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let result = mine tree 4 in
  for s = 1 to 4 do
    List.iter
      (fun (tw, count) ->
        Alcotest.(check int) "size matches level" s (Twig.size tw);
        Alcotest.(check bool) "positive count" true (count > 0))
      (Miner.level result s)
  done;
  Alcotest.(check (list (pair string int))) "out of range level empty" []
    (List.map (fun (tw, c) -> (Twig.encode tw, c)) (Miner.level result 5))

let test_patterns_per_level_and_total () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let result = mine tree 3 in
  let counts = Miner.patterns_per_level result in
  Alcotest.(check int) "three levels" 3 (Array.length counts);
  (* Labels: a, b, c, d. *)
  Alcotest.(check int) "level 1" 4 counts.(0);
  (* Edges: a-b, b-c, b-d. *)
  Alcotest.(check int) "level 2" 3 counts.(1);
  Alcotest.(check int) "total = sum" (Array.fold_left ( + ) 0 counts) (Miner.total_patterns result)

let test_level3_exact_set () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let result = mine tree 3 in
  let name l = Data_tree.label_name tree l in
  let rendered = List.map (fun (tw, c) -> (Twig.pp ~names:name tw, c)) (Miner.level result 3) in
  (* Size-3 patterns: a(b,b), a(b(c)), a(b(d)), b(c,c), b(c,d), b(d,d). *)
  let expected =
    [ ("a(b,b)", 12); ("a(b(c))", 13); ("a(b(d))", 4); ("b(c,c)", 36); ("b(c,d)", 4); ("b(d,d)", 12) ]
  in
  Alcotest.(check (list (pair string int))) "level 3 patterns" (List.sort compare expected)
    (List.sort compare rendered)

let test_counts_are_match_counts () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let ctx = Match_count.create_ctx tree in
  let result = mine tree 4 in
  List.iter
    (fun (tw, count) ->
      Alcotest.(check int) (Twig.encode tw) (Match_count.selectivity ctx tw) count)
    (Miner.all result)

let test_single_node_tree () =
  let tree = TB.build (TB.leaf "only") in
  let result = mine tree 4 in
  Alcotest.(check int) "one pattern" 1 (Miner.total_patterns result);
  Alcotest.(check (array int)) "levels" [| 1; 0; 0; 0 |] (Miner.patterns_per_level result)

let test_invalid_max_size () =
  let tree = TB.build (TB.leaf "x") in
  Alcotest.check_raises "max_size >= 1" (Invalid_argument "Miner.mine: max_size must be >= 1")
    (fun () -> ignore (mine tree 0))

let test_deterministic () =
  let tree = Helpers.tree_of Helpers.regular_spec in
  Alcotest.(check (list (pair string int))) "same result twice" (as_pairs (mine tree 4))
    (as_pairs (mine tree 4))

(* The central property: the miner finds exactly the occurring patterns with
   exact counts, cross-checked against brute-force subset enumeration. *)
let prop_miner_equals_oracle =
  Helpers.qcheck_case ~name:"miner = enumeration oracle on random trees" ~count:40
    (Helpers.tree_gen ~max_nodes:14)
    (fun tree ->
      let mined = as_pairs (mine tree 4) in
      let oracle =
        Twig_enum.selectivities tree ~max_size:4
        |> List.map (fun (tw, c) -> (Twig.encode tw, c))
        |> List.sort compare
      in
      mined = oracle)

(* Counting across a domain pool must not change anything: same patterns,
   same counts, same order, level by level. *)
let prop_parallel_mine_equals_sequential =
  Helpers.qcheck_case ~name:"mine ?pool = sequential mine level-by-level" ~count:40
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      Tl_util.Pool.with_pool ~domains:3 (fun pool ->
          let sequential = mine tree 4 in
          let parallel = Miner.mine ~pool (Match_count.create_ctx tree) ~max_size:4 in
          List.for_all
            (fun s ->
              let encoded result =
                List.map (fun (tw, c) -> (Twig.encode tw, c)) (Miner.level result s)
              in
              encoded sequential = encoded parallel)
            [ 1; 2; 3; 4 ]))

(* Occurrence lists pass through two levels before the last: on trees with
   two or three labels a pattern usually occurs at a strict subset of its
   root label's nodes, so a candidate counted over the wrong parent list
   loses matches the oracle finds. *)
let prop_miner_equals_oracle_few_labels =
  Helpers.qcheck_case ~name:"miner = enumeration oracle at max_size 5 over few labels" ~count:60
    (Helpers.few_labels_tree_gen ~max_nodes:14)
    (fun tree ->
      let mined = as_pairs (mine tree 5) in
      let oracle =
        Twig_enum.selectivities tree ~max_size:5
        |> List.map (fun (tw, c) -> (Twig.encode tw, c))
        |> List.sort compare
      in
      mined = oracle)

let roots_visited tree k =
  Tl_obs.Metrics.reset ();
  ignore (mine tree k);
  Option.value ~default:0
    (List.assoc_opt "miner.roots_visited" (Tl_obs.Metrics.snapshot ()).Tl_obs.Metrics.counters)

(* Level 3 of the Fig. 11 document counts each candidate only where its
   parent pattern matched.  Level 2 keeps a(b) at the root, b(c) at all
   four b's and b(d) at the one b with d-children.  So a(b,b), a(b(c)) and
   a(b(d)) visit the root once each, b(c,c) visits four b's, and b(c,d)
   and b(d,d) visit the one b under b(d): 9 roots.  Counting from every
   node carrying the root label visits 3 * 1 + 3 * 4 = 15, and the 21
   edge occurrences level 2 keeps bound the visits from above. *)
let test_level3_visits_parent_roots () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let level3 = roots_visited tree 3 - roots_visited tree 2 in
  let level2_occurrences = List.fold_left (fun acc (_, c) -> acc + c) 0 (Miner.level (mine tree 2) 2) in
  Alcotest.(check int) "level 2 occurrences" 21 level2_occurrences;
  Alcotest.(check int) "level 3 roots visited" 9 level3;
  Alcotest.(check bool) "at most the level 2 occurrences" true (level3 <= level2_occurrences);
  Alcotest.(check bool) "fewer than every root-labelled node" true (level3 < 15)

let prop_downward_closure_of_result =
  Helpers.qcheck_case ~name:"every mined pattern's sub-patterns are mined" ~count:40
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      let result = mine tree 4 in
      let present = Hashtbl.create 64 in
      List.iter (fun (tw, _) -> Hashtbl.replace present (Twig.encode tw) ()) (Miner.all result);
      List.for_all
        (fun (tw, _) ->
          let ix = Twig.index tw in
          List.for_all
            (fun i -> Hashtbl.mem present (Twig.encode (Twig.remove ix i)))
            (Twig.degree_one ix))
        (Miner.all result))

let () =
  Alcotest.run "mining"
    [
      ( "miner",
        [
          Alcotest.test_case "level 1 labels" `Quick test_level1_is_label_histogram;
          Alcotest.test_case "oracle on shop" `Quick test_matches_oracle_on_shop;
          Alcotest.test_case "levels partition" `Quick test_levels_partition_by_size;
          Alcotest.test_case "per-level counts" `Quick test_patterns_per_level_and_total;
          Alcotest.test_case "level 3 exact set" `Quick test_level3_exact_set;
          Alcotest.test_case "counts are match counts" `Quick test_counts_are_match_counts;
          Alcotest.test_case "single node" `Quick test_single_node_tree;
          Alcotest.test_case "invalid max size" `Quick test_invalid_max_size;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "level 3 visits parent roots" `Quick test_level3_visits_parent_roots;
          prop_miner_equals_oracle;
          prop_miner_equals_oracle_few_labels;
          prop_parallel_mine_equals_sequential;
          prop_downward_closure_of_result;
        ] );
    ]
