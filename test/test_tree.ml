(* Tests for the data-tree substrate. *)

module Data_tree = Tl_tree.Data_tree
module TB = Tl_tree.Tree_builder
module Tree_stats = Tl_tree.Tree_stats

(* a(b(c,d),b(c),e) *)
let sample () =
  TB.build
    (TB.node "a" [ TB.node "b" [ TB.leaf "c"; TB.leaf "d" ]; TB.node "b" [ TB.leaf "c" ]; TB.leaf "e" ])

let label_of tree name =
  match Data_tree.label_of_string tree name with
  | Some l -> l
  | None -> Alcotest.failf "label %s missing" name

let test_size_and_root () =
  let t = sample () in
  Alcotest.(check int) "size" 7 (Data_tree.size t);
  Alcotest.(check int) "root id" 0 (Data_tree.root t);
  Alcotest.(check string) "root label" "a" (Data_tree.label_name t (Data_tree.label t 0))

let test_preorder_ids () =
  let t = sample () in
  (* Preorder: a=0, b=1, c=2, d=3, b=4, c=5, e=6. *)
  let names = List.init 7 (fun v -> Data_tree.label_name t (Data_tree.label t v)) in
  Alcotest.(check (list string)) "preorder labels" [ "a"; "b"; "c"; "d"; "b"; "c"; "e" ] names

let test_parents () =
  let t = sample () in
  Alcotest.(check (option int)) "root has no parent" None (Data_tree.parent t 0);
  Alcotest.(check (option int)) "c under first b" (Some 1) (Data_tree.parent t 2);
  Alcotest.(check (option int)) "second b under root" (Some 0) (Data_tree.parent t 4)

let test_children_document_order () =
  let t = sample () in
  Alcotest.(check (list int)) "root children" [ 1; 4; 6 ] (Array.to_list (Data_tree.children t 0));
  Alcotest.(check (list int)) "first b children" [ 2; 3 ] (Array.to_list (Data_tree.children t 1));
  Alcotest.(check int) "fanout" 3 (Data_tree.fanout t 0);
  Alcotest.(check int) "leaf fanout" 0 (Data_tree.fanout t 6)

let test_children_with_label () =
  let t = sample () in
  let b = label_of t "b" in
  let c = label_of t "c" in
  Alcotest.(check (list int)) "b children of root" [ 1; 4 ]
    (Array.to_list (Data_tree.children_with_label t 0 b));
  Alcotest.(check (list int)) "c children of first b" [ 2 ]
    (Array.to_list (Data_tree.children_with_label t 1 c));
  Alcotest.(check int) "count" 2 (Data_tree.count_children_with_label t 0 b);
  Alcotest.(check int) "absent label count" 0 (Data_tree.count_children_with_label t 0 c);
  let sum = Data_tree.fold_children_with_label t 0 b (fun acc v -> acc + v) 0 in
  Alcotest.(check int) "fold agrees" 5 sum

let test_nodes_with_label () =
  let t = sample () in
  Alcotest.(check (list int)) "all b nodes in preorder" [ 1; 4 ]
    (Array.to_list (Data_tree.nodes_with_label t (label_of t "b")));
  Alcotest.(check (list int)) "out-of-range label" [] (Array.to_list (Data_tree.nodes_with_label t 999))

let test_edge_label_pairs () =
  let t = sample () in
  let name (p, c) = (Data_tree.label_name t p, Data_tree.label_name t c) in
  let pairs = List.sort compare (List.map name (Data_tree.edge_label_pairs t)) in
  Alcotest.(check (list (pair string string)))
    "distinct parent/child label pairs"
    [ ("a", "b"); ("a", "e"); ("b", "c"); ("b", "d") ]
    pairs;
  Alcotest.(check bool) "has a->b" true (Data_tree.has_edge_labels t (label_of t "a") (label_of t "b"));
  Alcotest.(check bool) "no a->c" false (Data_tree.has_edge_labels t (label_of t "a") (label_of t "c"))

let test_postorder () =
  let t = sample () in
  Alcotest.(check (list int)) "postorder" [ 2; 3; 1; 5; 4; 6; 0 ] (Array.to_list (Data_tree.postorder t))

let test_depth () =
  Alcotest.(check int) "sample depth" 3 (Data_tree.depth (sample ()));
  Alcotest.(check int) "single node" 1 (Data_tree.depth (TB.build (TB.leaf "x")));
  Alcotest.(check int) "path depth" 4 (Data_tree.depth (TB.build (TB.path [ "a"; "b"; "c"; "d" ])))

let test_intern_label () =
  let t = sample () in
  let before = Data_tree.label_count t in
  let fresh = Data_tree.intern_label t "zzz" in
  Alcotest.(check int) "fresh id appended" before fresh;
  Alcotest.(check int) "label count grew" (before + 1) (Data_tree.label_count t);
  Alcotest.(check (list int)) "no occurrences" [] (Array.to_list (Data_tree.nodes_with_label t fresh));
  Alcotest.(check int) "existing label unchanged" (label_of t "b") (Data_tree.intern_label t "b");
  Alcotest.(check string) "names array covers fresh" "zzz" (Data_tree.label_names t).(fresh)

let test_of_xml_drops_non_elements () =
  let doc = Tl_xml.Xml_dom.parse_string "<a>text<b/><!-- c --><?pi x?><b/></a>" in
  let t = Data_tree.of_xml doc in
  Alcotest.(check int) "elements only" 3 (Data_tree.size t)

(* --- Tree_stats -------------------------------------------------------------- *)

let test_stats () =
  let s = Tree_stats.compute (sample ()) in
  Alcotest.(check int) "nodes" 7 s.nodes;
  Alcotest.(check int) "labels" 5 s.distinct_labels;
  Alcotest.(check int) "depth" 3 s.depth;
  Alcotest.(check int) "max fanout" 3 s.max_fanout;
  Alcotest.(check int) "leaves" 4 s.leaves;
  Alcotest.(check int) "edge pairs" 4 s.edge_label_pairs;
  Alcotest.(check (float 1e-9)) "mean fanout over internal" 2.0 s.mean_fanout;
  Alcotest.(check bool) "pp non-empty" true (String.length (Tree_stats.pp s) > 0)

let test_label_histogram () =
  let hist = Tree_stats.label_histogram (sample ()) in
  (match hist with
  | (top, count) :: _ ->
    Alcotest.(check bool) "most frequent is b or c" true (top = "b" || top = "c");
    Alcotest.(check int) "top count" 2 count
  | [] -> Alcotest.fail "empty histogram");
  Alcotest.(check int) "all labels present" 5 (List.length hist)

let test_fanout_of_label () =
  let t = sample () in
  Alcotest.(check (float 1e-9)) "b mean fanout" 1.5 (Tree_stats.fanout_of_label t "b");
  Alcotest.(check (float 1e-9)) "absent tag" 0.0 (Tree_stats.fanout_of_label t "nope")

(* --- Tree_builder -------------------------------------------------------------- *)

let test_builder_path () =
  let t = TB.build (TB.path [ "x"; "y"; "z" ]) in
  Alcotest.(check int) "path size" 3 (Data_tree.size t);
  Alcotest.(check int) "path depth" 3 (Data_tree.depth t);
  Alcotest.check_raises "empty path" (Invalid_argument "Tree_builder.path: empty label list")
    (fun () -> ignore (TB.path []))

let test_builder_replicate () =
  let t = TB.build (TB.node "r" (TB.replicate 5 (TB.leaf "k"))) in
  Alcotest.(check int) "replicated size" 6 (Data_tree.size t);
  Alcotest.(check int) "fanout" 5 (Data_tree.fanout t 0)

(* --- properties ------------------------------------------------------------------ *)

let prop_postorder_children_first =
  Helpers.qcheck_case ~name:"postorder visits children before parents" ~count:100
    (Helpers.tree_gen ~max_nodes:40)
    (fun t ->
      let order = Data_tree.postorder t in
      let position = Array.make (Data_tree.size t) 0 in
      Array.iteri (fun i v -> position.(v) <- i) order;
      let ok = ref true in
      Data_tree.iter_nodes t (fun v ->
          Array.iter (fun c -> if position.(c) >= position.(v) then ok := false) (Data_tree.children t v));
      !ok)

let prop_children_with_label_is_filter =
  Helpers.qcheck_case ~name:"children_with_label = filter of children" ~count:100
    (Helpers.tree_gen ~max_nodes:40)
    (fun t ->
      let ok = ref true in
      Data_tree.iter_nodes t (fun v ->
          (* One label id past the last: no child carries it. *)
          for l = 0 to Data_tree.label_count t do
            let expected =
              List.filter (fun c -> Data_tree.label t c = l) (Array.to_list (Data_tree.children t v))
            in
            if Array.to_list (Data_tree.children_with_label t v l) <> expected then ok := false;
            if Data_tree.count_children_with_label t v l <> List.length expected then ok := false;
            if Data_tree.fold_children_with_label t v l (fun acc c -> c :: acc) [] <> List.rev expected then
              ok := false
          done);
      !ok)

let prop_parent_child_consistent =
  Helpers.qcheck_case ~name:"parent/children are mutually consistent" ~count:100
    (Helpers.tree_gen ~max_nodes:40)
    (fun t ->
      let ok = ref true in
      Data_tree.iter_nodes t (fun v ->
          Array.iter
            (fun c -> if Data_tree.parent t c <> Some v then ok := false)
            (Data_tree.children t v));
      !ok)

let () =
  Alcotest.run "tree"
    [
      ( "data_tree",
        [
          Alcotest.test_case "size and root" `Quick test_size_and_root;
          Alcotest.test_case "preorder ids" `Quick test_preorder_ids;
          Alcotest.test_case "parents" `Quick test_parents;
          Alcotest.test_case "children order" `Quick test_children_document_order;
          Alcotest.test_case "children by label" `Quick test_children_with_label;
          Alcotest.test_case "nodes by label" `Quick test_nodes_with_label;
          Alcotest.test_case "edge label pairs" `Quick test_edge_label_pairs;
          Alcotest.test_case "postorder" `Quick test_postorder;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "intern label" `Quick test_intern_label;
          Alcotest.test_case "of_xml" `Quick test_of_xml_drops_non_elements;
          prop_postorder_children_first;
          prop_children_with_label_is_filter;
          prop_parent_child_consistent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "compute" `Quick test_stats;
          Alcotest.test_case "label histogram" `Quick test_label_histogram;
          Alcotest.test_case "fanout of label" `Quick test_fanout_of_label;
        ] );
      ( "builder",
        [
          Alcotest.test_case "path" `Quick test_builder_path;
          Alcotest.test_case "replicate" `Quick test_builder_replicate;
        ] );
    ]
