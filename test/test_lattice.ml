(* Tests for the lattice summary and its serialization. *)

module Summary = Tl_lattice.Summary
module Summary_io = Tl_lattice.Summary_io
module Twig = Tl_twig.Twig
module Data_tree = Tl_tree.Data_tree
module TB = Tl_tree.Tree_builder

let shop () = Helpers.tree_of Helpers.shop_spec

let summary_of tree k = Summary.build ~k tree

(* --- construction and lookup --------------------------------------------- *)

let test_build_and_find () =
  let tree = shop () in
  let s = summary_of tree 3 in
  Alcotest.(check int) "depth" 3 (Summary.k s);
  Alcotest.(check bool) "complete" true (Summary.is_complete s);
  let q = Helpers.twig_of_string tree "laptop(brand,price)" in
  Alcotest.(check (option int)) "stored count" (Some 2) (Summary.find s q);
  Alcotest.(check (option int)) "by encoding" (Some 2) (Summary.find_encoded s (Twig.encode q));
  Alcotest.(check bool) "mem" true (Summary.mem s q);
  let absent = Helpers.twig_of_string tree "desktop(price)" in
  Alcotest.(check (option int)) "non-occurring pattern" None (Summary.find s absent)

let test_find_canonicalizes () =
  let tree = shop () in
  let s = summary_of tree 3 in
  let brand = Option.get (Data_tree.label_of_string tree "brand") in
  let price = Option.get (Data_tree.label_of_string tree "price") in
  let laptop = Option.get (Data_tree.label_of_string tree "laptop") in
  let reversed = Twig.node laptop [ Twig.leaf price; Twig.leaf brand ] in
  Alcotest.(check (option int)) "order-insensitive lookup" (Some 2) (Summary.find s reversed)

let test_entries_and_levels () =
  let tree = shop () in
  let s = summary_of tree 3 in
  let per_level = Summary.patterns_per_level s in
  Alcotest.(check int) "level array size" 3 (Array.length per_level);
  Alcotest.(check int) "level 1 = labels" (Data_tree.label_count tree) per_level.(0);
  Alcotest.(check int) "entries = sum of levels" (Array.fold_left ( + ) 0 per_level)
    (Summary.entries s);
  List.iter
    (fun (tw, c) ->
      Alcotest.(check int) "level query size" 2 (Twig.size tw);
      Alcotest.(check bool) "positive" true (c > 0))
    (Summary.level s 2)

let test_of_patterns_validation () =
  Alcotest.check_raises "k too small" (Invalid_argument "Summary.of_patterns: k must be >= 2")
    (fun () -> ignore (Summary.of_patterns ~k:1 ~complete:true []));
  Alcotest.check_raises "oversized pattern"
    (Invalid_argument "Summary.of_patterns: pattern larger than k") (fun () ->
      ignore (Summary.of_patterns ~k:2 ~complete:true [ (Twig.of_path [ 1; 2; 3 ], 1) ]));
  Alcotest.check_raises "negative count" (Invalid_argument "Summary.of_patterns: negative count")
    (fun () -> ignore (Summary.of_patterns ~k:2 ~complete:true [ (Twig.leaf 0, -1) ]))

let test_memory_accounting () =
  let s1 = Summary.of_patterns ~k:2 ~complete:true [ (Twig.leaf 0, 5) ] in
  let s2 = Summary.of_patterns ~k:2 ~complete:true [ (Twig.leaf 0, 5); (Twig.of_path [ 0; 1 ], 2) ] in
  Alcotest.(check bool) "positive" true (Summary.memory_bytes s1 > 0);
  Alcotest.(check bool) "monotone in entries" true
    (Summary.memory_bytes s2 > Summary.memory_bytes s1)

let test_restrict () =
  let tree = shop () in
  let s = summary_of tree 3 in
  let pruned = Summary.restrict s ~keep:(fun tw _ -> Twig.size tw <> 3) in
  Alcotest.(check bool) "marked incomplete" false (Summary.is_complete pruned);
  Alcotest.(check int) "level 3 dropped" 0 (List.length (Summary.level pruned 3));
  Alcotest.(check int) "levels 1-2 kept"
    (List.length (Summary.level s 1) + List.length (Summary.level s 2))
    (List.length (Summary.level pruned 1) + List.length (Summary.level pruned 2));
  (* Levels 1-2 survive even when keep rejects everything. *)
  let nothing = Summary.restrict s ~keep:(fun _ _ -> false) in
  Alcotest.(check bool) "level 1 protected" true (List.length (Summary.level nothing 1) > 0);
  let all = Summary.restrict s ~keep:(fun _ _ -> true) in
  Alcotest.(check bool) "keep-all stays complete" true (Summary.is_complete all)

(* --- merge (incremental maintenance) --------------------------------------- *)

let test_merge_equals_forest_mining () =
  (* Mining two documents separately and merging must match per-document
     count sums, since both trees share one label space here. *)
  let tree = shop () in
  let s = summary_of tree 3 in
  let merged = Summary.merge s s in
  Summary.fold
    (fun tw c () ->
      Alcotest.(check (option int)) (Twig.encode tw) (Some (2 * c)) (Summary.find merged tw))
    s ();
  Alcotest.(check int) "same pattern set" (Summary.entries s) (Summary.entries merged);
  Alcotest.(check bool) "complete preserved" true (Summary.is_complete merged)

let test_merge_disjoint_patterns () =
  let a = Summary.of_patterns ~k:2 ~complete:true [ (Twig.leaf 0, 3) ] in
  let b = Summary.of_patterns ~k:2 ~complete:true [ (Twig.leaf 1, 4) ] in
  let m = Summary.merge a b in
  Alcotest.(check (option int)) "left kept" (Some 3) (Summary.find m (Twig.leaf 0));
  Alcotest.(check (option int)) "right kept" (Some 4) (Summary.find m (Twig.leaf 1))

let test_merge_depth_mismatch () =
  let a = Summary.of_patterns ~k:2 ~complete:true [] in
  let b = Summary.of_patterns ~k:3 ~complete:true [] in
  Alcotest.check_raises "depth mismatch" (Invalid_argument "Summary.merge: lattice depths differ")
    (fun () -> ignore (Summary.merge a b))

(* --- serialization ----------------------------------------------------------- *)

let test_io_roundtrip () =
  let tree = shop () in
  let s = summary_of tree 3 in
  let names = Data_tree.label_names tree in
  let text = Summary_io.save ~names s in
  let loaded, loaded_names = Summary_io.load text in
  Alcotest.(check int) "k preserved" (Summary.k s) (Summary.k loaded);
  Alcotest.(check bool) "complete preserved" (Summary.is_complete s) (Summary.is_complete loaded);
  Alcotest.(check int) "entries preserved" (Summary.entries s) (Summary.entries loaded);
  Alcotest.(check (array string)) "names preserved" names loaded_names;
  Summary.fold
    (fun tw c () -> Alcotest.(check (option int)) (Twig.encode tw) (Some c) (Summary.find loaded tw))
    s ()

let test_io_remap () =
  (* Reload into a shifted label space. *)
  let s = Summary.of_patterns ~k:2 ~complete:true [ (Twig.leaf 0, 7); (Twig.of_path [ 0; 1 ], 2) ] in
  let text = Summary_io.save ~names:[| "x"; "y" |] s in
  let intern = function "x" -> 10 | "y" -> 11 | _ -> -1 in
  let loaded, _ = Summary_io.load ~intern text in
  Alcotest.(check (option int)) "remapped leaf" (Some 7) (Summary.find loaded (Twig.leaf 10));
  Alcotest.(check (option int)) "remapped path" (Some 2) (Summary.find loaded (Twig.of_path [ 10; 11 ]))

let test_io_file_roundtrip () =
  let tree = shop () in
  let s = summary_of tree 2 in
  let path = Filename.temp_file "tl_summary" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Summary_io.save_file ~names:(Data_tree.label_names tree) path s;
      let loaded, _ = Summary_io.load_file path in
      Alcotest.(check int) "entries" (Summary.entries s) (Summary.entries loaded))

let test_io_failed_save_keeps_file () =
  (* A save that raises part-way (a label with a newline) leaves the file
     it would have replaced intact, and no temporary file behind. *)
  let tree = shop () in
  let s = summary_of tree 2 in
  let dir = Filename.temp_dir "tl_summary" "" in
  let path = Filename.concat dir "shop.summary" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Summary_io.save_file ~names:(Data_tree.label_names tree) path s;
      let before = In_channel.with_open_bin path In_channel.input_all in
      let names = Array.map (fun name -> name ^ "\n") (Data_tree.label_names tree) in
      (match Summary_io.save_file ~names path s with
       | () -> Alcotest.fail "expected Invalid_argument"
       | exception Invalid_argument _ -> ());
      Alcotest.(check string) "file intact" before (In_channel.with_open_bin path In_channel.input_all);
      Alcotest.(check (list string)) "no temporary file" [ "shop.summary" ] (Array.to_list (Sys.readdir dir)))

let test_io_format_errors () =
  let expect_format_error text =
    match Summary_io.load text with
    | exception Summary_io.Format_error _ -> ()
    | _ -> Alcotest.failf "expected format error for %S" text
  in
  expect_format_error "garbage";
  expect_format_error "treelattice-summary v1 k=x complete=true labels=0\n";
  expect_format_error "treelattice-summary v1 k=2 complete=perhaps labels=0\n";
  expect_format_error "treelattice-summary v1 k=2 complete=true labels=5\na\n";
  expect_format_error "treelattice-summary v1 k=2 complete=true labels=1\na\nnot-an-entry\n";
  expect_format_error "treelattice-summary v1 k=2 complete=true labels=1\na\n0(1 oops\n"

let test_io_header_validation () =
  (* Seed regressions: k=0 deferred failure to Summary.of_patterns with a
     confusing message (or, for an empty summary, loaded "successfully");
     a negative label count mis-reported as a truncated label block. *)
  let expect_message fragment text =
    match Summary_io.load text with
    | exception Summary_io.Format_error msg ->
      if not (Tl_util.Prelude.string_contains ~needle:fragment msg) then
        Alcotest.failf "error %S does not mention %S" msg fragment
    | _ -> Alcotest.failf "expected format error for %S" text
  in
  expect_message "k=0" "treelattice-summary v1 k=0 complete=true labels=0\n";
  expect_message "k=1" "treelattice-summary v1 k=1 complete=true labels=1\na\n0 3\n";
  expect_message "labels=-1" "treelattice-summary v1 k=2 complete=true labels=-1\n";
  expect_message "labels=-5" "treelattice-summary v1 k=2 complete=true labels=-5\na\n0 3\n"

let test_io_duplicate_entries () =
  let expect_duplicate text =
    match Summary_io.load text with
    | exception Summary_io.Format_error msg ->
      if not (Tl_util.Prelude.string_contains ~needle:"duplicate" msg) then
        Alcotest.failf "error %S does not mention the duplicate" msg
    | _ -> Alcotest.failf "expected duplicate-entry error for %S" text
  in
  (* Verbatim duplicate (seed: silently last-wins). *)
  expect_duplicate "treelattice-summary v1 k=2 complete=true labels=2\na\nb\n0 3\n0 4\n";
  (* Same canonical pattern spelled under two sibling orders. *)
  expect_duplicate "treelattice-summary v1 k=3 complete=true labels=3\na\nb\nc\n0(1,2) 3\n0(2,1) 5\n"

let test_memory_bytes_tracks_serialized_size () =
  (* The accounting should stay within a constant factor of the serialized
     text — the seed charged only [key length + 8] per entry, an
     order-of-magnitude undercount of the real heap footprint. *)
  let tree = shop () in
  let s = summary_of tree 3 in
  let serialized = String.length (Summary_io.save ~names:(Data_tree.label_names tree) s) in
  let accounted = Summary.memory_bytes s in
  Alcotest.(check bool)
    (Printf.sprintf "heap (%d) >= serialized (%d)" accounted serialized)
    true (accounted >= serialized);
  Alcotest.(check bool)
    (Printf.sprintf "heap (%d) <= 64 * serialized (%d)" accounted serialized)
    true (accounted <= 64 * serialized)

let test_build_validation () =
  let tree = shop () in
  Alcotest.check_raises "k >= 2" (Invalid_argument "Summary.build: k must be >= 2") (fun () ->
      ignore (Summary.build ~k:1 tree))

(* --- properties ------------------------------------------------------------------ *)

(* Building across a domain pool must yield byte-identical summaries: same
   serialized bytes, entry for entry. *)
let prop_parallel_build_byte_identical =
  Helpers.qcheck_case ~name:"build ?pool serializes byte-identically" ~count:30
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      Tl_util.Pool.with_pool ~domains:3 (fun pool ->
          let names = Data_tree.label_names tree in
          let sequential = Summary_io.save ~names (Summary.build ~k:3 tree) in
          let parallel = Summary_io.save ~names (Summary.build ~pool ~k:3 tree) in
          String.equal sequential parallel))

let prop_io_roundtrip =
  Helpers.qcheck_case ~name:"save/load roundtrip on random trees" ~count:40
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      let s = Summary.build ~k:3 tree in
      let names = Data_tree.label_names tree in
      let loaded, _ = Summary_io.load (Summary_io.save ~names s) in
      Summary.entries s = Summary.entries loaded
      && Summary.fold (fun tw c acc -> acc && Summary.find loaded tw = Some c) s true)

let () =
  Alcotest.run "lattice"
    [
      ( "summary",
        [
          Alcotest.test_case "build/find" `Quick test_build_and_find;
          Alcotest.test_case "canonicalizing lookup" `Quick test_find_canonicalizes;
          Alcotest.test_case "entries and levels" `Quick test_entries_and_levels;
          Alcotest.test_case "of_patterns validation" `Quick test_of_patterns_validation;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "build validation" `Quick test_build_validation;
          prop_parallel_build_byte_identical;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge doubles counts" `Quick test_merge_equals_forest_mining;
          Alcotest.test_case "disjoint patterns" `Quick test_merge_disjoint_patterns;
          Alcotest.test_case "depth mismatch" `Quick test_merge_depth_mismatch;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "remap" `Quick test_io_remap;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "failed save keeps file" `Quick test_io_failed_save_keeps_file;
          Alcotest.test_case "format errors" `Quick test_io_format_errors;
          Alcotest.test_case "header validation" `Quick test_io_header_validation;
          Alcotest.test_case "duplicate entries" `Quick test_io_duplicate_entries;
          Alcotest.test_case "memory accounting vs serialized size" `Quick
            test_memory_bytes_tracks_serialized_size;
          prop_io_roundtrip;
        ] );
    ]
