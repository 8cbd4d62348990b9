(* Tests for the Markov-table path estimator baseline. *)

module Markov_table = Tl_paths.Markov_table
module Data_tree = Tl_tree.Data_tree
module Match_count = Tl_twig.Match_count
module Twig = Tl_twig.Twig

let close = Alcotest.(check (float 1e-6))

let labels_of tree names = List.map (fun n -> Option.get (Data_tree.label_of_string tree n)) names

(* --- construction ------------------------------------------------------------ *)

let test_short_paths_exact () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let table = Markov_table.build ~order:2 tree in
  Alcotest.(check int) "order recorded" 2 (Markov_table.order table);
  close "single label" 2.0 (Markov_table.lookup table (labels_of tree [ "laptop" ]));
  close "edge count" 2.0 (Markov_table.lookup table (labels_of tree [ "laptop"; "brand" ]));
  close "absent edge" 0.0 (Markov_table.lookup table (labels_of tree [ "brand"; "laptop" ]))

let test_lookup_is_exact_count () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let table = Markov_table.build ~order:3 tree in
  let ctx = Match_count.create_ctx tree in
  List.iter
    (fun names ->
      let labels = labels_of tree names in
      close (String.concat "/" names)
        (float_of_int (Match_count.selectivity ctx (Twig.of_path labels)))
        (Markov_table.lookup table labels))
    [ [ "a" ]; [ "b" ]; [ "a"; "b" ]; [ "b"; "c" ]; [ "a"; "b"; "c" ]; [ "a"; "b"; "d" ] ]

let test_estimate_chains () =
  (* On a regular document the Markov chaining is exact. *)
  let tree = Helpers.tree_of Helpers.regular_spec in
  let table = Markov_table.build ~order:2 tree in
  let ctx = Match_count.create_ctx tree in
  let labels = labels_of tree [ "r"; "x"; "y"; "w" ] in
  close "chained estimate"
    (float_of_int (Match_count.selectivity ctx (Twig.of_path labels)))
    (Markov_table.estimate table labels)

let test_estimate_zero_propagation () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let table = Markov_table.build ~order:2 tree in
  let bogus = labels_of tree [ "computer"; "laptops"; "price" ] in
  (* laptops/price edge does not occur. *)
  close "broken chain" 0.0 (Markov_table.estimate table bogus)

let test_estimate_validation () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let table = Markov_table.build tree in
  Alcotest.check_raises "empty path" (Invalid_argument "Markov_table.estimate: empty path")
    (fun () -> ignore (Markov_table.estimate table []));
  Alcotest.check_raises "bad order" (Invalid_argument "Markov_table.build: order must be >= 1")
    (fun () -> ignore (Markov_table.build ~order:0 tree))

let test_agrees_with_treelattice_markov () =
  (* Both implement the same formula over the same statistics, so they must
     agree exactly: table order = lattice depth. *)
  let tree = Helpers.tree_of Helpers.shop_spec in
  let table = Markov_table.build ~order:3 tree in
  let summary = Tl_lattice.Summary.build ~k:3 tree in
  let labels = labels_of tree [ "computer"; "laptops"; "laptop"; "brand" ] in
  close "same estimate" (Tl_core.Markov_path.estimate summary labels) (Markov_table.estimate table labels)

(* --- pruning ------------------------------------------------------------------- *)

let test_prune_respects_budget () =
  let tree = Tl_datasets.Dataset.tree Tl_datasets.Dataset.nasa ~target:2_000 ~seed:3 in
  let table = Markov_table.build ~order:3 tree in
  let full = Markov_table.memory_bytes table in
  let budget = full / 3 in
  let pruned = Markov_table.prune table ~budget_bytes:budget in
  Alcotest.(check bool) "under budget" true (Markov_table.memory_bytes pruned <= budget);
  Alcotest.(check bool) "entries dropped" true (Markov_table.entries pruned < Markov_table.entries table)

let test_prune_keeps_length1 () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let table = Markov_table.build ~order:2 tree in
  let pruned = Markov_table.prune table ~budget_bytes:0 in
  (* All length-1 entries survive even an impossible budget. *)
  Alcotest.(check bool) "labels kept" true (Markov_table.entries pruned >= Data_tree.label_count tree);
  close "label count still exact" 4.0 (Markov_table.lookup pruned (labels_of tree [ "b" ]))

let test_star_fallback () =
  let tree = Tl_datasets.Dataset.tree Tl_datasets.Dataset.psd ~target:2_000 ~seed:5 in
  let table = Markov_table.build ~order:2 tree in
  let pruned = Markov_table.prune table ~budget_bytes:(Markov_table.memory_bytes table / 4) in
  (* Find a pruned length-2 path: lookup must fall back to the star average
     rather than zero. *)
  let found = ref false in
  Data_tree.iter_nodes tree (fun v ->
      if not !found then
        match Data_tree.parent tree v with
        | Some p ->
          let path = [ Data_tree.label tree p; Data_tree.label tree v ] in
          let full_v = Markov_table.lookup table path in
          let pruned_v = Markov_table.lookup pruned path in
          if full_v > 0.0 && Float.abs (full_v -. pruned_v) > 1e-9 then begin
            found := true;
            Alcotest.(check bool) "star average positive" true (pruned_v > 0.0)
          end
        | None -> ());
  Alcotest.(check bool) "a pruned path was exercised" true !found

let test_prune_noop_within_budget () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let table = Markov_table.build ~order:2 tree in
  let pruned = Markov_table.prune table ~budget_bytes:max_int in
  Alcotest.(check int) "nothing pruned" (Markov_table.entries table) (Markov_table.entries pruned)

(* --- property: equivalence with TreeLattice on paths (Lemma 4, externally) ----- *)

let prop_table_equals_lattice_on_paths =
  Helpers.qcheck_case ~name:"Markov table = lattice Markov estimator on random paths" ~count:40
    (Helpers.tree_gen ~max_nodes:25)
    (fun tree ->
      let table = Markov_table.build ~order:2 tree in
      let summary = Tl_lattice.Summary.build ~k:2 tree in
      let rng = Tl_util.Xorshift.create 51 in
      let nlabels = Data_tree.label_count tree in
      let ok = ref true in
      for _ = 1 to 8 do
        let len = 2 + Tl_util.Xorshift.int rng 4 in
        let labels = List.init len (fun _ -> Tl_util.Xorshift.int rng nlabels) in
        let a = Markov_table.estimate table labels in
        let b = Tl_core.Markov_path.estimate summary labels in
        if Float.abs (a -. b) > 1e-6 *. Float.max 1.0 a then ok := false
      done;
      !ok)

let () =
  Alcotest.run "paths"
    [
      ( "markov_table",
        [
          Alcotest.test_case "short paths exact" `Quick test_short_paths_exact;
          Alcotest.test_case "lookups are exact counts" `Quick test_lookup_is_exact_count;
          Alcotest.test_case "chained estimates" `Quick test_estimate_chains;
          Alcotest.test_case "zero propagation" `Quick test_estimate_zero_propagation;
          Alcotest.test_case "validation" `Quick test_estimate_validation;
          Alcotest.test_case "agrees with lattice markov" `Quick test_agrees_with_treelattice_markov;
          prop_table_equals_lattice_on_paths;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "respects budget" `Quick test_prune_respects_budget;
          Alcotest.test_case "keeps length-1" `Quick test_prune_keeps_length1;
          Alcotest.test_case "star fallback" `Quick test_star_fallback;
          Alcotest.test_case "noop within budget" `Quick test_prune_noop_within_budget;
        ] );
    ]
