(* Tests for the TreeSketches-style baseline: synopsis structure,
   construction under a memory budget, and expected-count estimation. *)

module Synopsis = Tl_sketch.Synopsis
module Sketch_build = Tl_sketch.Sketch_build
module Sketch_estimate = Tl_sketch.Sketch_estimate
module Data_tree = Tl_tree.Data_tree
module Match_count = Tl_twig.Match_count
module TB = Tl_tree.Tree_builder

let close = Alcotest.(check (float 1e-6))

let build ?budget_bytes ?refine_rounds tree = Sketch_build.build ?budget_bytes ?refine_rounds tree

(* --- structure --------------------------------------------------------------- *)

let test_validate_built_synopses () =
  List.iter
    (fun spec ->
      let tree = Helpers.tree_of spec in
      let synopsis = build tree in
      match Synopsis.validate synopsis with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "invalid synopsis: %s" msg)
    [ Helpers.shop_spec; Helpers.fig11_spec; Helpers.regular_spec ]

let test_node_count_preserved () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build tree in
  Alcotest.(check int) "all nodes summarized" (Data_tree.size tree) (Synopsis.node_count synopsis)

let test_label_partition_floor () =
  (* A budget of 0 forces merging all the way down to the label partition. *)
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build ~budget_bytes:0 tree in
  Alcotest.(check int) "one cluster per label" (Data_tree.label_count tree)
    (Synopsis.cluster_count synopsis)

let test_refine_rounds_zero_is_label_partition () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build ~refine_rounds:0 ~budget_bytes:(1024 * 1024) tree in
  Alcotest.(check int) "label partition" (Data_tree.label_count tree)
    (Synopsis.cluster_count synopsis)

let test_generous_budget_refines () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build ~budget_bytes:(1024 * 1024) tree in
  (* Count-stability separates the c-only b-nodes from the mixed one. *)
  Alcotest.(check bool) "more clusters than labels" true
    (Synopsis.cluster_count synopsis > Data_tree.label_count tree)

let test_memory_accounting () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build tree in
  Alcotest.(check int) "bytes = 8*clusters + 12*edges"
    ((8 * Synopsis.cluster_count synopsis) + (12 * Synopsis.edge_count synopsis))
    (Synopsis.memory_bytes synopsis)

let test_weight_lookup () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build ~refine_rounds:0 ~budget_bytes:(1024 * 1024) tree in
  let cluster_of_label name =
    let l = Option.get (Data_tree.label_of_string tree name) in
    match Hashtbl.find_opt synopsis.Synopsis.clusters_of_label l with
    | Some [ c ] -> c
    | _ -> Alcotest.failf "expected exactly one cluster for %s" name
  in
  let a = cluster_of_label "a" and b = cluster_of_label "b" and c = cluster_of_label "c" in
  close "w(a->b) = 4" 4.0 (Synopsis.weight synopsis a b);
  (* 13 c-children over 4 b-nodes. *)
  close "w(b->c) = 3.25" 3.25 (Synopsis.weight synopsis b c);
  close "absent edge" 0.0 (Synopsis.weight synopsis c a)

(* --- estimation ------------------------------------------------------------------ *)

let test_exact_on_uniform_document () =
  (* All same-label nodes identical: averages are exact, so the synopsis
     reproduces exact counts even for branching queries. *)
  let tree = Helpers.tree_of Helpers.regular_spec in
  let ctx = Match_count.create_ctx tree in
  let synopsis = build ~refine_rounds:0 ~budget_bytes:(1024 * 1024) tree in
  List.iter
    (fun q ->
      let twig = Helpers.twig_of_string tree q in
      (* Note: TreeSketches multiplies sibling expectations independently,
         so repeated-sibling queries overcount; use distinct-label queries. *)
      close q
        (float_of_int (Match_count.selectivity ctx twig))
        (Sketch_estimate.estimate synopsis twig))
    [ "x(y,z)"; "r(x(y(w),z))"; "x(y(w))"; "y(w)" ]

let test_fig11_overestimation () =
  (* The §5.3 failure mode: under the label partition the synopsis
     estimates a(b(c,d)) as 1 * 4 * 3.25 * 1 = 13 against a truth of 4. *)
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build ~refine_rounds:0 ~budget_bytes:(1024 * 1024) tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  close "overestimates" 13.0 (Sketch_estimate.estimate synopsis twig)

let test_fine_clusters_fix_fig11 () =
  (* With count-stability refinement the mixed b-node gets its own cluster
     and the estimate becomes exact. *)
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build ~budget_bytes:(1024 * 1024) tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  close "refined synopsis exact" 4.0 (Sketch_estimate.estimate synopsis twig)

let test_absent_root_label () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let synopsis = build tree in
  close "ghost query" 0.0 (Sketch_estimate.estimate synopsis (Tl_twig.Twig.leaf 999))

let test_estimate_rooted () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let synopsis = build ~refine_rounds:0 ~budget_bytes:(1024 * 1024) tree in
  let b_label = Option.get (Data_tree.label_of_string tree "b") in
  let b_cluster =
    match Hashtbl.find_opt synopsis.Synopsis.clusters_of_label b_label with
    | Some [ c ] -> c
    | _ -> Alcotest.fail "expected one b cluster"
  in
  let twig = Helpers.twig_of_string tree "b(c)" in
  close "per-node expectation" 3.25 (Sketch_estimate.estimate_rooted synopsis twig b_cluster)

let test_determinism () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let s1 = Sketch_build.build ~budget_bytes:96 ~seed:5 tree in
  let s2 = Sketch_build.build ~budget_bytes:96 ~seed:5 tree in
  Alcotest.(check int) "same clusters" (Synopsis.cluster_count s1) (Synopsis.cluster_count s2);
  Alcotest.(check int) "same edges" (Synopsis.edge_count s1) (Synopsis.edge_count s2)

(* --- properties --------------------------------------------------------------------- *)

let prop_budget_or_label_floor =
  Helpers.qcheck_case ~name:"built synopsis fits budget or is the label partition" ~count:40
    (Helpers.tree_gen ~max_nodes:40)
    (fun tree ->
      let budget = 128 in
      let synopsis = build ~budget_bytes:budget tree in
      Synopsis.memory_bytes synopsis <= budget
      || Synopsis.cluster_count synopsis = Data_tree.label_count tree)

let prop_synopsis_valid_and_complete =
  Helpers.qcheck_case ~name:"synopsis is valid and summarizes every node" ~count:40
    (Helpers.tree_gen ~max_nodes:40)
    (fun tree ->
      let synopsis = build tree in
      Synopsis.validate synopsis = Ok () && Synopsis.node_count synopsis = Data_tree.size tree)

let prop_single_label_estimates_exact =
  Helpers.qcheck_case ~name:"single-label queries are exact" ~count:40
    (Helpers.tree_gen ~max_nodes:30)
    (fun tree ->
      let synopsis = build tree in
      let ok = ref true in
      for l = 0 to Data_tree.label_count tree - 1 do
        let expected = float_of_int (Array.length (Data_tree.nodes_with_label tree l)) in
        let got = Sketch_estimate.estimate synopsis (Tl_twig.Twig.leaf l) in
        if Float.abs (expected -. got) > 1e-6 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "treesketch"
    [
      ( "structure",
        [
          Alcotest.test_case "validate" `Quick test_validate_built_synopses;
          Alcotest.test_case "node count" `Quick test_node_count_preserved;
          Alcotest.test_case "label partition floor" `Quick test_label_partition_floor;
          Alcotest.test_case "no refinement" `Quick test_refine_rounds_zero_is_label_partition;
          Alcotest.test_case "generous budget refines" `Quick test_generous_budget_refines;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
          Alcotest.test_case "weight lookup" `Quick test_weight_lookup;
          prop_budget_or_label_floor;
          prop_synopsis_valid_and_complete;
        ] );
      ( "estimation",
        [
          Alcotest.test_case "uniform document exact" `Quick test_exact_on_uniform_document;
          Alcotest.test_case "fig11 overestimation" `Quick test_fig11_overestimation;
          Alcotest.test_case "refined clusters fix fig11" `Quick test_fine_clusters_fix_fig11;
          Alcotest.test_case "absent root label" `Quick test_absent_root_label;
          Alcotest.test_case "rooted expectation" `Quick test_estimate_rooted;
          Alcotest.test_case "determinism" `Quick test_determinism;
          prop_single_label_estimates_exact;
        ] );
    ]
