(* Tests for the decomposition estimators: Theorem 1, the recursive and
   fixed-size schemes, voting, Markov-path equivalence (Lemma 4),
   delta-derivable pruning (Lemma 5), and the Treelattice front-end. *)

module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Markov_path = Tl_core.Markov_path
module Derivable = Tl_core.Derivable
module Treelattice = Tl_core.Treelattice
module Data_tree = Tl_tree.Data_tree
module TB = Tl_tree.Tree_builder

let close = Alcotest.(check (float 1e-6))

let estimate tree ~k ~scheme q =
  let s = Summary.build ~k tree in
  Estimator.estimate s scheme (Helpers.twig_of_string tree q)

(* --- stored patterns are returned exactly ----------------------------------- *)

let test_stored_exact () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let s = Summary.build ~k:3 tree in
  let ctx = Match_count.create_ctx tree in
  Summary.fold
    (fun tw c () ->
      List.iter
        (fun scheme ->
          close (Twig.encode tw) (float_of_int c) (Estimator.estimate s scheme tw))
        Estimator.all_schemes;
      Alcotest.(check int) "sanity: stored = exact" c (Match_count.selectivity ctx tw))
    s ()

let test_missing_small_pattern_is_zero () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  List.iter
    (fun scheme ->
      close "non-occurring size-2" 0.0 (estimate tree ~k:3 ~scheme "desktop(price)");
      close "non-occurring size-3" 0.0 (estimate tree ~k:3 ~scheme "computer(laptops(desktop))"))
    Estimator.all_schemes

let test_unknown_label_zero () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let s = Summary.build ~k:3 tree in
  let ghost = Twig.node 999 [ Twig.leaf 998 ] in
  List.iter
    (fun scheme -> close "ghost labels" 0.0 (Estimator.estimate s scheme ghost))
    Estimator.all_schemes

(* --- Theorem 1 on a conditionally independent document ------------------------ *)

let test_exact_on_regular_document () =
  (* Every x-node has identical structure, so tree-growing independence
     holds exactly and decomposition must reproduce exact counts for every
     query, at every size beyond the lattice. *)
  let tree = Helpers.tree_of Helpers.regular_spec in
  let ctx = Match_count.create_ctx tree in
  let queries =
    [ "x(y(w,w),z)"; "r(x(y(w),z))"; "r(x(y(w,w),z))"; "x(y(w,w))"; "r(x(y(w,w)))" ]
  in
  List.iter
    (fun q ->
      let twig = Helpers.twig_of_string tree q in
      let truth = float_of_int (Match_count.selectivity ctx twig) in
      List.iter
        (fun scheme ->
          let s = Summary.build ~k:3 tree in
          close (q ^ " / " ^ Estimator.scheme_name scheme) truth (Estimator.estimate s scheme twig))
        [ Estimator.Recursive; Estimator.Recursive_voting; Estimator.Fixed_size ])
    queries

let test_fig11_recursive_value () =
  (* Regression of the worked example: recursive picks the (root, leaf)
     pair and reproduces sigma exactly; voting averages three
     decompositions (4 + 4 + 13)/3 = 7. *)
  let tree = Helpers.tree_of Helpers.fig11_spec in
  close "recursive" 4.0 (estimate tree ~k:3 ~scheme:Estimator.Recursive "a(b(c,d))");
  close "voting" 7.0 (estimate tree ~k:3 ~scheme:Estimator.Recursive_voting "a(b(c,d))")

(* --- fixed-size cover (Lemma 2) -------------------------------------------------- *)

let test_cover_structure () =
  let twig = Twig.canonicalize (Twig.decode "0(1(2,3),4(5))") in
  let k = 3 in
  let blocks = Estimator.cover twig ~k in
  Alcotest.(check int) "n-k+1 blocks" (Twig.size twig - k + 1) (List.length blocks);
  List.iteri
    (fun i (block, overlap) ->
      Alcotest.(check int) (Printf.sprintf "block %d has k nodes" i) k (Twig.size block);
      match overlap with
      | None -> Alcotest.(check int) "only the first block lacks an overlap" 0 i
      | Some o -> Alcotest.(check int) (Printf.sprintf "overlap %d has k-1 nodes" i) (k - 1) (Twig.size o))
    blocks

let test_cover_rejects_small_twig () =
  Alcotest.check_raises "twig must exceed k" (Invalid_argument "Estimator.cover: twig not larger than k")
    (fun () -> ignore (Estimator.cover (Twig.leaf 0) ~k:3))

let prop_cover_well_formed =
  Helpers.qcheck_case ~name:"covers are well-formed for random twigs" ~count:100
    (Helpers.twig_gen ~max_nodes:10 ())
    (fun tw ->
      let tw = Twig.canonicalize tw in
      let k = 3 in
      Twig.size tw <= k
      ||
      let blocks = Estimator.cover tw ~k in
      List.length blocks = Twig.size tw - k + 1
      && List.for_all
           (fun (b, o) ->
             Twig.size b = k && match o with None -> true | Some o -> Twig.size o = k - 1)
           blocks)

(* --- voting determinism ------------------------------------------------------------ *)

let test_fixed_voting_deterministic () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let s = Summary.build ~k:3 tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  let v1 = Estimator.estimate s (Estimator.Fixed_size_voting 8) twig in
  let v2 = Estimator.estimate s (Estimator.Fixed_size_voting 8) twig in
  close "same answer twice" v1 v2

let test_scheme_names_distinct () =
  let names = List.map Estimator.scheme_name Estimator.all_schemes in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- Markov equivalence (Lemma 4) ---------------------------------------------------- *)

let test_markov_direct_lookup () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let s = Summary.build ~k:3 tree in
  let labels =
    List.map (fun t -> Option.get (Data_tree.label_of_string tree t)) [ "computer"; "laptops"; "laptop" ]
  in
  close "short path = lookup" 2.0 (Markov_path.estimate s labels)

let test_markov_empty_path () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let s = Summary.build ~k:3 tree in
  Alcotest.check_raises "empty path" (Invalid_argument "Markov_path.estimate: empty path") (fun () ->
      ignore (Markov_path.estimate s []))

let test_markov_estimate_twig () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let s = Summary.build ~k:3 tree in
  let path = Helpers.twig_of_string tree "computer(laptops)" in
  let branching = Helpers.twig_of_string tree "laptop(brand,price)" in
  Alcotest.(check bool) "path handled" true (Markov_path.estimate_twig s path <> None);
  Alcotest.(check (option (float 1e-9))) "branching refused" None (Markov_path.estimate_twig s branching)

let prop_lemma4_equivalence =
  Helpers.qcheck_case ~name:"decomposition = Markov formula on random path queries" ~count:60
    (Helpers.tree_gen ~max_nodes:25)
    (fun tree ->
      let s = Summary.build ~k:2 tree in
      let rng = Tl_util.Xorshift.create 23 in
      (* Random label sequences, occurring or not. *)
      let nlabels = Data_tree.label_count tree in
      let ok = ref true in
      for _ = 1 to 10 do
        let len = 3 + Tl_util.Xorshift.int rng 3 in
        let labels = List.init len (fun _ -> Tl_util.Xorshift.int rng nlabels) in
        let markov = Markov_path.estimate s labels in
        let twig = Twig.of_path labels in
        let recursive = Estimator.estimate s Estimator.Recursive twig in
        let fixed = Estimator.estimate s Estimator.Fixed_size twig in
        let tolerance = 1e-6 *. Float.max 1.0 markov in
        if Float.abs (markov -. recursive) > tolerance then ok := false;
        if Float.abs (markov -. fixed) > tolerance then ok := false
      done;
      !ok)

(* --- delta-derivable pruning (Lemma 5) ------------------------------------------------ *)

let test_prune_keeps_low_levels () =
  let tree = Helpers.tree_of Helpers.regular_spec in
  let s = Summary.build ~k:4 tree in
  let pruned = Derivable.prune s ~delta:0.0 in
  Alcotest.(check int) "level 1 intact" (List.length (Summary.level s 1))
    (List.length (Summary.level pruned 1));
  Alcotest.(check int) "level 2 intact" (List.length (Summary.level s 2))
    (List.length (Summary.level pruned 2))

let test_prune_regular_document_prunes_everything_above_2 () =
  (* Perfect conditional independence: every level >= 3 pattern is exactly
     derivable. *)
  let tree = Helpers.tree_of Helpers.regular_spec in
  let s = Summary.build ~k:4 tree in
  let pruned = Derivable.prune s ~delta:0.0 in
  Alcotest.(check int) "level 3 all pruned" 0 (List.length (Summary.level pruned 3));
  Alcotest.(check int) "level 4 all pruned" 0 (List.length (Summary.level pruned 4))

let test_prune_validation () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let s = Summary.build ~k:3 tree in
  Alcotest.check_raises "negative delta" (Invalid_argument "Derivable.prune: delta must be >= 0")
    (fun () -> ignore (Derivable.prune s ~delta:(-0.1)))

let test_savings_monotone_in_delta () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let s = Summary.build ~k:4 tree in
  let _, after0 = Derivable.savings s ~delta:0.0 in
  let _, after30 = Derivable.savings s ~delta:0.3 in
  Alcotest.(check bool) "larger delta prunes at least as much" true (after30 <= after0)

let prop_lemma5_lossless_zero_pruning =
  Helpers.qcheck_case ~name:"0-derivable pruning never changes estimates" ~count:30
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      let s = Summary.build ~k:3 tree in
      let pruned = Derivable.prune s ~delta:0.0 in
      let rng = Tl_util.Xorshift.create 31 in
      let ok = ref true in
      for _ = 1 to 8 do
        match Tl_twig.Twig_enum.random_subtree rng tree ~size:5 with
        | None -> ()
        | Some twig ->
          let reference = Estimator.estimate s Estimator.Recursive twig in
          let with_pruned = Estimator.estimate pruned Estimator.Recursive twig in
          if Float.abs (reference -. with_pruned) > 1e-6 *. Float.max 1.0 reference then ok := false
      done;
      !ok)

let prop_lemma5_scheme_consistent_voting =
  Helpers.qcheck_case ~name:"0-pruning under voting is lossless for voting estimates" ~count:20
    (Helpers.tree_gen ~max_nodes:14)
    (fun tree ->
      let s = Summary.build ~k:3 tree in
      let pruned = Derivable.prune ~scheme:Estimator.Recursive_voting s ~delta:0.0 in
      let rng = Tl_util.Xorshift.create 41 in
      let ok = ref true in
      for _ = 1 to 6 do
        match Tl_twig.Twig_enum.random_subtree rng tree ~size:4 with
        | None -> ()
        | Some twig ->
          let reference = Estimator.estimate s Estimator.Recursive_voting twig in
          let with_pruned = Estimator.estimate pruned Estimator.Recursive_voting twig in
          if Float.abs (reference -. with_pruned) > 1e-6 *. Float.max 1.0 reference then ok := false
      done;
      !ok)

let test_estimate_interval () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let s = Summary.build ~k:3 tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  let interval = Estimator.estimate_interval s twig in
  close "low = min vote" 4.0 interval.Estimator.low;
  close "best = voting" 7.0 interval.Estimator.best;
  close "high = max vote" 13.0 interval.Estimator.high;
  (* Stored patterns collapse to a point. *)
  let stored = Helpers.twig_of_string tree "b(c,d)" in
  let point = Estimator.estimate_interval s stored in
  close "point low" 4.0 point.Estimator.low;
  close "point high" 4.0 point.Estimator.high

let prop_interval_ordered =
  Helpers.qcheck_case ~name:"interval is ordered: low <= high" ~count:30
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      let s = Summary.build ~k:3 tree in
      let rng = Tl_util.Xorshift.create 43 in
      let ok = ref true in
      for _ = 1 to 5 do
        match Tl_twig.Twig_enum.random_subtree rng tree ~size:5 with
        | None -> ()
        | Some twig ->
          let i = Estimator.estimate_interval s twig in
          if not (i.Estimator.low <= i.Estimator.high +. 1e-9) then ok := false;
          if i.Estimator.low < 0.0 then ok := false
      done;
      !ok)

let test_first_level_votes () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let s = Summary.build ~k:3 tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  let votes = Estimator.first_level_votes s twig in
  (* Three degree-1 pairs: (root,c), (root,d), (c,d) -> estimates 4, 4, 13. *)
  Alcotest.(check int) "three votes" 3 (List.length votes);
  Alcotest.(check (list (float 1e-6))) "vote values" [ 4.0; 4.0; 13.0 ] (List.sort compare votes);
  (* Stored patterns vote with their exact count. *)
  let stored = Helpers.twig_of_string tree "b(c,d)" in
  Alcotest.(check (list (float 1e-6))) "stored singleton" [ 4.0 ] (Estimator.first_level_votes s stored)

(* --- the voting compile's slot budget ------------------------------------------ *)

(* A root with 63 distinct child tags, child [i] repeated [1 + i mod 3]
   times, so a star's count is a product rather than 1. *)
let wide_star_tree () =
  let tags = ref [ "r" ] in
  for i = 0 to 62 do
    for _ = 0 to i mod 3 do
      tags := Printf.sprintf "c%d" i :: !tags
    done
  done;
  let tags = Array.of_list (List.rev !tags) in
  Data_tree.of_preorder ~tags ~parents:(Array.mapi (fun i _ -> if i = 0 then -1 else 0) tags)

let star tree n =
  let label tag = Option.get (Data_tree.label_of_string tree tag) in
  Twig.node (label "r") (List.init n (fun i -> Twig.leaf (label (Printf.sprintf "c%d" i))))

(* Up to 12 leaves a star's voting plan keeps every leaf pair: the
   12-child star needs 4,095 of the 4,096 slots.  Wider stars pass the
   budget and get the Recursive plan, bit for bit, with one first-level
   vote.  Each such compile stays within 1 s (about 0.1 s cold on one
   AMD EPYC vCPU); without the budget the 16-child star alone takes
   about 4 s and the 63-child star (the widest query [Query.parse]
   accepts) would not finish. *)
let test_voting_budget_falls_back () =
  let tree = wide_star_tree () in
  let s = Summary.build ~k:3 tree in
  let compile scheme twig = Estimator.Plan.compile s scheme twig in
  List.iter
    (fun n ->
      let twig = star tree n in
      let votes = Estimator.first_level_votes s twig in
      Alcotest.(check int) (Printf.sprintf "%d-child star: one vote per leaf pair" n) (n * (n - 1) / 2)
        (List.length votes);
      Alcotest.(check bool) (Printf.sprintf "%d-child star: voting plan is larger" n) true
        (Estimator.Plan.slot_count (compile Estimator.Recursive_voting twig)
        > Estimator.Plan.slot_count (compile Estimator.Recursive twig)))
    [ 8; 12 ];
  List.iter
    (fun n ->
      let twig = star tree n in
      let t0 = Tl_util.Mono_clock.now_ns () in
      let voting = compile Estimator.Recursive_voting twig in
      let ms = float_of_int (Tl_util.Mono_clock.now_ns () - t0) /. 1e6 in
      let recursive = compile Estimator.Recursive twig in
      let name what = Printf.sprintf "%d-child star: %s" n what in
      Alcotest.(check bool) (name (Printf.sprintf "voting compile in %.0f ms < 1 s" ms)) true (ms < 1000.0);
      Alcotest.(check int) (name "Recursive's slots") (Estimator.Plan.slot_count recursive)
        (Estimator.Plan.slot_count voting);
      Alcotest.(check int64) (name "Recursive's value, bit for bit")
        (Int64.bits_of_float (Estimator.Plan.eval recursive))
        (Int64.bits_of_float (Estimator.Plan.eval voting));
      Alcotest.(check int) (name "one first-level vote") 1
        (List.length (Estimator.first_level_votes s twig)))
    [ 16; 63 ]

(* --- feedback threading into votes and intervals ------------------------------------------ *)

let test_votes_respect_extra () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let s = Summary.build ~k:3 tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  let root_key = Twig.key twig in
  let extra k = if Twig.Key.equal k root_key then Some 9.0 else None in
  Alcotest.(check (list (float 1e-9))) "extra wins at top level" [ 9.0 ]
    (Estimator.first_level_votes ~extra s twig);
  let interval = Estimator.estimate_interval ~extra s twig in
  close "interval low" 9.0 interval.Estimator.low;
  close "interval best" 9.0 interval.Estimator.best;
  close "interval high" 9.0 interval.Estimator.high

let test_interval_contains_extra_estimate () =
  (* Seed bug: a feedback count for a SUB-twig moved [estimate ~extra] but
     not the votes, so the adaptive estimate could fall outside its own
     interval. *)
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let s = Summary.build ~k:3 tree in
  let twig = Helpers.twig_of_string tree "a(b(c,d))" in
  let sub_key = Twig.key (Helpers.twig_of_string tree "a(b(c))") in
  let extra k = if Twig.Key.equal k sub_key then Some 2.5 else None in
  let est = Estimator.estimate ~extra s Estimator.Recursive_voting twig in
  let interval = Estimator.estimate_interval ~extra s twig in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %g inside [%g, %g]" est interval.Estimator.low interval.Estimator.high)
    true
    (interval.Estimator.low <= est +. 1e-9 && est <= interval.Estimator.high +. 1e-9)

(* --- golden: votes and intervals bit for bit --------------------------------------------- *)

(* A seeded document and seeded twigs of sizes 4-7, over a complete and a
   pruned summary, with and without a deterministic feedback source.  Every
   vote and interval bound is pinned as a hex float, so a rewrite of
   [first_level_votes] or [estimate_interval] must reproduce them exactly. *)
let golden_tree =
  let rng = Tl_util.Xorshift.create 2006 in
  let labels = [| "a"; "b"; "c"; "d" |] in
  let rec build budget =
    let l = labels.(Tl_util.Xorshift.int rng (Array.length labels)) in
    let nkids = if budget <= 1 then 0 else Tl_util.Xorshift.int rng (min 4 budget) in
    if nkids = 0 then TB.leaf l
    else TB.node l (List.init nkids (fun _ -> build (max 1 ((budget - 1) / nkids))))
  in
  TB.build (TB.node "r" (List.init 6 (fun _ -> build 14)))

let golden_extra key =
  let h = ref 17 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0xFFFFFF) (Twig.Key.encode key);
  if !h mod 7 = 0 then Some (0.5 +. float_of_int (!h mod 19)) else None

let golden_lines () =
  let complete = Summary.build ~k:3 golden_tree in
  let pruned = Derivable.prune complete ~delta:0.5 in
  let rng = Tl_util.Xorshift.create 14 in
  let twigs =
    List.concat_map
      (fun size ->
        List.filter_map (fun _ -> Tl_twig.Twig_enum.random_subtree rng golden_tree ~size) [ 1; 2; 3 ])
      [ 4; 5; 6; 7 ]
  in
  let hex = Printf.sprintf "%h" in
  List.concat_map
    (fun (sname, s) ->
      List.concat_map
        (fun (xname, extra) ->
          List.map
            (fun twig ->
              let votes = Estimator.first_level_votes ?extra s twig in
              let i = Estimator.estimate_interval ?extra s twig in
              Printf.sprintf "%s %s %s votes=[%s] interval=%s,%s,%s" sname xname (Twig.encode twig)
                (String.concat "," (List.map hex votes))
                (hex i.Estimator.low) (hex i.Estimator.best) (hex i.Estimator.high))
            twigs)
        [ ("plain", None); ("extra", Some golden_extra) ])
    [ ("complete", complete); ("pruned", pruned) ]

let golden_expected =
  [
    "complete plain 0(1,4,4) votes=[0x1p+1,0x1p+1,0x1p+1] interval=0x1p+1,0x1p+1,0x1p+1";
    "complete plain 2(1(2(2))) votes=[0x1p+0] interval=0x1p+0,0x1p+0,0x1p+0";
    "complete plain 2(1(1),2) votes=[0x1p+1] interval=0x1p+1,0x1p+1,0x1p+1";
    "complete plain 1(1,2(2(1))) votes=[0x1.5555555555555p-1] interval=0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1";
    "complete plain 0(1,3,4,4) votes=[0x1p+1,0x1p+1,0x1p+1,0x1p+1,0x1p+1,0x1p+1] interval=0x1p+1,0x1p+1,0x1p+1";
    "complete plain 2(1(1,2(2))) votes=[0x1p+0,0x1p+0,0x1p+0] interval=0x1p+0,0x1p+0,0x1p+0";
    "complete plain 1(1,2(2(1(1)))) votes=[0x1.5555555555555p-1] interval=0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1";
    "complete plain 0(1,2(1,2),3) votes=[0x1p+1,0x1p+1,0x1p+1,0x1p+1,0x1.5555555555555p+0,0x1.5555555555555p+0] interval=0x1.5555555555555p+0,0x1.b9e6e0ccdd659p+0,0x1p+1";
    "complete plain 0(1,2(1),3,4) votes=[0x1p+2,0x1p+2,0x1p+2,0x1p+2,0x1p+2,0x1p+2] interval=0x1p+2,0x1p+2,0x1p+2";
    "complete plain 2(1(1,2(2(1(1))))) votes=[0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1] interval=0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1";
    "complete plain 2(1(1,2(2(1(1))))) votes=[0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1] interval=0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1";
    "complete plain 2(1(1,2(2(1(1))))) votes=[0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1] interval=0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1";
    "complete extra 0(1,4,4) votes=[0x1.8p+0,0x1.8p+0,0x1p+1] interval=0x1.8p+0,0x1.aaaaaaaaaaaabp+0,0x1p+1";
    "complete extra 2(1(2(2))) votes=[0x1p+0] interval=0x1p+0,0x1p+0,0x1p+0";
    "complete extra 2(1(1),2) votes=[0x1p+1] interval=0x1p+1,0x1p+1,0x1p+1";
    "complete extra 1(1,2(2(1))) votes=[0x1.6p+3] interval=0x1.6p+3,0x1.6p+3,0x1.6p+3";
    "complete extra 0(1,3,4,4) votes=[0x1.8p+0,0x1.8p+0,0x1.8p+0,0x1.8p+0,0x1.8p+0,0x1p+1] interval=0x1.8p+0,0x1.c0ca4587e6b75p+0,0x1p+1";
    "complete extra 2(1(1,2(2))) votes=[0x1.08p+4,0x1p-1,0x1p-1] interval=0x1p-1,0x1.7555555555555p+2,0x1.08p+4";
    "complete extra 1(1,2(2(1(1)))) votes=[0x1.cp+1] interval=0x1.cp+1,0x1.cp+1,0x1.cp+1";
    "complete extra 0(1,2(1,2),3) votes=[0x1.b5a5a5a5a5a5ap+3,0x1.b5a5a5a5a5a5ap+3,0x1.1707f8e9dacbcp+1,0x1.b5a5a5a5a5a5ap+3,0x1.3737373737373p+1,0x1.d74fed774fed7p+3] interval=0x1.1707f8e9dacbcp+1,0x1.91c0a7e9e8a5bp+2,0x1.d74fed774fed7p+3";
    "complete extra 0(1,2(1),3,4) votes=[0x1.3p+3] interval=0x1.3p+3,0x1.3p+3,0x1.3p+3";
    "complete extra 2(1(1,2(2(1(1))))) votes=[0x1.5p+1,0x1.cp+1,0x1.08p+3] interval=0x1.5p+1,0x1.8d453e591186cp+1,0x1.08p+3";
    "complete extra 2(1(1,2(2(1(1))))) votes=[0x1.5p+1,0x1.cp+1,0x1.08p+3] interval=0x1.5p+1,0x1.8d453e591186cp+1,0x1.08p+3";
    "complete extra 2(1(1,2(2(1(1))))) votes=[0x1.5p+1,0x1.cp+1,0x1.08p+3] interval=0x1.5p+1,0x1.8d453e591186cp+1,0x1.08p+3";
    "pruned plain 0(1,4,4) votes=[0x1p+1,0x1p+1,0x1p+1] interval=0x1p+1,0x1p+1,0x1p+1";
    "pruned plain 2(1(2(2))) votes=[0x1p-1] interval=0x1p-1,0x1p-1,0x1p-1";
    "pruned plain 2(1(1),2) votes=[0x1p+1] interval=0x1p+1,0x1p+1,0x1p+1";
    "pruned plain 1(1,2(2(1))) votes=[0x1.5555555555555p-2] interval=0x1.5555555555555p-2,0x1.5555555555555p-2,0x1.5555555555555p-2";
    "pruned plain 0(1,3,4,4) votes=[0x1p+1,0x1p+1,0x1p+1,0x1p+1,0x1p+1,0x1p+1] interval=0x1p+1,0x1p+1,0x1p+1";
    "pruned plain 2(1(1,2(2))) votes=[0x1p-1,0x1p-1,0x1p-1] interval=0x1p-1,0x1p-1,0x1p-1";
    "pruned plain 1(1,2(2(1(1)))) votes=[0x1.5555555555555p-2] interval=0x1.5555555555555p-2,0x1.5555555555555p-2,0x1.5555555555555p-2";
    "pruned plain 0(1,2(1,2),3) votes=[0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1] interval=0x1.5555555555555p-1,0x1.5555555555555p-1,0x1.5555555555555p-1";
    "pruned plain 0(1,2(1),3,4) votes=[0x1.5555555555555p+1,0x1.5555555555555p+1,0x1.5555555555555p+1,0x1.5555555555555p+1,0x1.5555555555555p+1,0x1.5555555555555p+1] interval=0x1.5555555555555p+1,0x1.5555555555555p+1,0x1.5555555555555p+1";
    "pruned plain 2(1(1,2(2(1(1))))) votes=[0x1.5555555555555p-2,0x1.5555555555555p-2,0x1.5555555555555p-2] interval=0x1.5555555555555p-2,0x1.5555555555555p-2,0x1.5555555555555p-2";
    "pruned plain 2(1(1,2(2(1(1))))) votes=[0x1.5555555555555p-2,0x1.5555555555555p-2,0x1.5555555555555p-2] interval=0x1.5555555555555p-2,0x1.5555555555555p-2,0x1.5555555555555p-2";
    "pruned plain 2(1(1,2(2(1(1))))) votes=[0x1.5555555555555p-2,0x1.5555555555555p-2,0x1.5555555555555p-2] interval=0x1.5555555555555p-2,0x1.5555555555555p-2,0x1.5555555555555p-2";
    "pruned extra 0(1,4,4) votes=[0x1.a7b9611a7b961p-4,0x1.a7b9611a7b961p-4,0x0p+0] interval=0x0p+0,0x1.1a7b9611a7b96p-4,0x1.a7b9611a7b961p-4";
    "pruned extra 2(1(2(2))) votes=[0x1p-1] interval=0x1p-1,0x1p-1,0x1p-1";
    "pruned extra 2(1(1),2) votes=[0x1p+1] interval=0x1p+1,0x1p+1,0x1p+1";
    "pruned extra 1(1,2(2(1))) votes=[0x1.6p+2] interval=0x1.6p+2,0x1.6p+2,0x1.6p+2";
    "pruned extra 0(1,3,4,4) votes=[0x1.d38ec36cabae7p-8,0x1.d38ec36cabae5p-8,0x1.d38ec36cabae5p-8,0x1.d38ec36cabae5p-8,0x1.d38ec36cabae5p-8,0x0p+0] interval=0x0p+0,0x1.e4dfe71b5cb4dp-9,0x1.d38ec36cabae7p-8";
    "pruned extra 2(1(1,2(2))) votes=[0x1.08p+3,0x1p-2,0x1p-2] interval=0x1p-2,0x1.7555555555555p+1,0x1.08p+3";
    "pruned extra 1(1,2(2(1(1)))) votes=[0x1.cp+1] interval=0x1.cp+1,0x1.cp+1,0x1.cp+1";
    "pruned extra 0(1,2(1,2),3) votes=[0x1.8c9e1e1e1e1e3p+6,0x1.8c9e1e1e1e1e2p+6,0x1.2878787878787p+2,0x1.8c9e1e1e1e1e3p+6,0x1.4aaaaaaaaaaabp+2,0x1.ab206f34206f4p+6] interval=0x1.2878787878787p+2,0x1.728ea7f9fda57p+4,0x1.ab206f34206f4p+6";
    "pruned extra 0(1,2(1),3,4) votes=[0x1.3p+3] interval=0x1.3p+3,0x1.3p+3,0x1.3p+3";
    "pruned extra 2(1(1,2(2(1(1))))) votes=[0x1.5p+2,0x1.cp+1,0x1.08p+3] interval=0x1.cp+1,0x1.fd453e591186cp+1,0x1.08p+3";
    "pruned extra 2(1(1,2(2(1(1))))) votes=[0x1.5p+2,0x1.cp+1,0x1.08p+3] interval=0x1.cp+1,0x1.fd453e591186cp+1,0x1.08p+3";
    "pruned extra 2(1(1,2(2(1(1))))) votes=[0x1.5p+2,0x1.cp+1,0x1.08p+3] interval=0x1.cp+1,0x1.fd453e591186cp+1,0x1.08p+3";
  ]

let test_votes_interval_golden () =
  let complete = Summary.build ~k:3 golden_tree in
  Alcotest.(check bool) "pruning dropped patterns" true
    (Summary.entries (Derivable.prune complete ~delta:0.5) < Summary.entries complete);
  Alcotest.(check (list string)) "votes and intervals" golden_expected (golden_lines ())

(* --- differential: interned-key path == seed string path ---------------------------------- *)

module Baseline = Tl_oracle.Baseline

let bit_identical a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One extra source per document: exact counts for a few random subtrees, as
   {!Tl_core.Adaptive} would have cached them, exposed both string-keyed
   (baseline) and key-keyed (estimator). *)
let feedback_source ctx tree rng =
  let table = Hashtbl.create 8 in
  for _ = 1 to 4 do
    match Tl_twig.Twig_enum.random_subtree rng tree ~size:5 with
    | None -> ()
    | Some tw ->
      Hashtbl.replace table (Twig.encode tw) (float_of_int (Match_count.selectivity ctx tw))
    | exception Invalid_argument _ -> ()
  done;
  let by_string enc = Hashtbl.find_opt table enc in
  let by_key k = Hashtbl.find_opt table (Twig.Key.encode k) in
  (by_string, by_key)

let prop_bit_identical_to_seed_path =
  Helpers.qcheck_case ~name:"hash-consed estimation is bit-identical to the seed string path"
    ~count:40
    (Helpers.tree_gen ~max_nodes:20)
    (fun tree ->
      let ctx = Match_count.create_ctx tree in
      let s = Summary.build ~k:3 tree in
      let b = Baseline.of_summary s in
      let rng = Tl_util.Xorshift.create 97 in
      let by_string, by_key = feedback_source ctx tree rng in
      let ok = ref true in
      for size = 4 to 7 do
        match Tl_twig.Twig_enum.random_subtree rng tree ~size with
        | None -> ()
        | Some twig ->
          List.iter
            (fun scheme ->
              let fresh = Estimator.estimate s scheme twig in
              let seed = Baseline.estimate b scheme twig in
              if not (bit_identical fresh seed) then ok := false;
              let fresh_x = Estimator.estimate ~extra:by_key s scheme twig in
              let seed_x = Baseline.estimate ~extra:by_string b scheme twig in
              if not (bit_identical fresh_x seed_x) then ok := false)
            Estimator.all_schemes
      done;
      !ok)

let prop_bit_identical_on_pruned_summary =
  Helpers.qcheck_case ~name:"differential holds on pruned (incomplete) summaries too" ~count:20
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      let s = Derivable.prune (Summary.build ~k:3 tree) ~delta:0.1 in
      let b = Baseline.of_summary s in
      let rng = Tl_util.Xorshift.create 53 in
      let ok = ref true in
      for _ = 1 to 5 do
        match Tl_twig.Twig_enum.random_subtree rng tree ~size:5 with
        | None -> ()
        | Some twig ->
          List.iter
            (fun scheme ->
              if not (bit_identical (Estimator.estimate s scheme twig) (Baseline.estimate b scheme twig))
              then ok := false)
            Estimator.all_schemes
      done;
      !ok)

(* --- split cache: cold and warm keys ------------------------------------------------------ *)

module Plan = Estimator.Plan

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Tl_obs.Metrics.snapshot ()).Tl_obs.Metrics.counters)

(* The golden document's summary and queries with every label shifted to
   a range no key has used yet, so the first compile meets only cold keys.
   [complete ()] and [pruned ()] make a fresh summary (a new stamp) on each
   call; [pruned] drops stored patterns, which sends the fixed-size
   schemes through the recursive fallback too. *)
type world = { complete : unit -> Summary.t; pruned : unit -> Summary.t; queries : Twig.t list }

let next_base = ref 1_000_000

let fresh_world () =
  let base = !next_base in
  next_base := base + 1_000;
  let shift = Twig.map_labels (fun l -> l + base) in
  let stored = Summary.build ~k:3 golden_tree in
  let patterns = Summary.fold (fun tw c acc -> (shift tw, c) :: acc) stored [] in
  let kept = List.filteri (fun i _ -> i mod 5 <> 0) patterns in
  let small = List.filter (fun (tw, _) -> Twig.size tw <= 2) patterns in
  let rng = Tl_util.Xorshift.create 19 in
  let queries =
    List.filter_map
      (fun size -> Option.map shift (Tl_twig.Twig_enum.random_subtree rng golden_tree ~size))
      [ 4; 5; 6; 7; 8; 8; 6 ]
  in
  {
    complete = (fun () -> Summary.of_patterns ~k:3 ~complete:true patterns);
    pruned = (fun () -> Summary.of_patterns ~k:3 ~complete:false (small @ kept));
    queries;
  }

let eval_all ?extra summary scheme queries =
  List.map (fun q -> Plan.eval ?extra (Plan.compile (summary ()) scheme q)) queries

let test_cold_warm_bit_identical () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (pruned, extra) ->
          let w = fresh_world () in
          let summary = if pruned then w.pruned else w.complete in
          let b0 = counter "twig.leaf_pairs_built" in
          let cold = eval_all ?extra summary scheme w.queries in
          let b1 = counter "twig.leaf_pairs_built" in
          let warm = eval_all ?extra summary scheme w.queries in
          let name = Printf.sprintf "%s pruned=%b extra=%b" (Estimator.scheme_name scheme) pruned (extra <> None) in
          (match scheme with
          | Estimator.Recursive | Recursive_voting ->
            Alcotest.(check bool) (name ^ ": the first compile built splits") true (b1 > b0)
          | Fixed_size | Fixed_size_voting _ -> ());
          Alcotest.(check int) (name ^ ": the warm compile built none") b1 (counter "twig.leaf_pairs_built");
          List.iter2
            (fun c w -> Alcotest.(check bool) (Printf.sprintf "%s: %h = %h" name c w) true (bit_identical c w))
            cold warm)
        [ (false, None); (false, Some golden_extra); (true, None); (true, Some golden_extra) ])
    Estimator.all_schemes

let test_recursive_builds_first_split_only () =
  let w = fresh_world () in
  let summary = w.complete () in
  let q = List.nth w.queries 4 in
  let b0 = counter "twig.leaf_pairs_built" and d0 = counter "estimator.decompositions" in
  ignore (Estimator.estimate summary Recursive q);
  let decomposed = counter "estimator.decompositions" - d0 in
  Alcotest.(check bool) "the query decomposes" true (decomposed > 0);
  Alcotest.(check int) "one split per decomposed key" decomposed (counter "twig.leaf_pairs_built" - b0)

let test_warm_recompile_interns_nothing () =
  List.iter
    (fun scheme ->
      let w = fresh_world () in
      ignore (eval_all w.pruned scheme w.queries);
      let keys = Twig.Key.interned () and built = counter "twig.leaf_pairs_built" in
      ignore (eval_all w.pruned scheme w.queries);
      let name = Estimator.scheme_name scheme in
      Alcotest.(check int) (name ^ ": keys interned by a warm recompile") 0 (Twig.Key.interned () - keys);
      Alcotest.(check int) (name ^ ": splits built by a warm recompile") built (counter "twig.leaf_pairs_built"))
    Estimator.all_schemes

(* A plan as evaluation observes it: slot count, value bits, and every
   probe event in order (lookups, pairs, covers), which names each slot's
   key and resolution. *)
let plan_trace plan =
  let events = ref [] in
  let push e = events := e :: !events in
  let probe =
    {
      Estimator.on_lookup =
        (fun enc r ->
          push
            (match r with
            | Estimator.Found_extra v -> Printf.sprintf "%s extra %h" enc v
            | Found_summary c -> Printf.sprintf "%s stored %d" enc c
            | Assumed_zero -> enc ^ " zero"
            | Decomposing -> enc ^ " decompose"));
      on_pair =
        (fun ~parent ~t1 ~t2 ~cap ~twin ~e1:_ ~e2:_ ~ec:_ ~value ->
          push (Printf.sprintf "%s = %s * %s / %s twin=%b %h" parent t1 t2 cap twin value));
      on_value = (fun enc v -> push (Printf.sprintf "%s value %h" enc v));
      on_cover_step =
        (fun ~block ~overlap ~twins ~num:_ ~den:_ ~acc ->
          push (Printf.sprintf "%s / %s twins=%d %h" block (Option.value overlap ~default:"-") twins acc));
    }
  in
  let v = Plan.eval ~probe plan in
  (Plan.slot_count plan, Int64.bits_of_float v, List.rev !events)

let test_concurrent_cold_compiles_agree () =
  List.iter
    (fun scheme ->
      let w = fresh_world () in
      let summary = w.pruned () in
      let ready = Atomic.make 0 in
      let compile_all () =
        Atomic.incr ready;
        while Atomic.get ready < 4 do
          Domain.cpu_relax ()
        done;
        List.map (fun q -> plan_trace (Plan.compile summary scheme q)) w.queries
      in
      let results = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn compile_all)) in
      let sequential = List.map (fun q -> plan_trace (Plan.compile summary scheme q)) w.queries in
      List.iteri
        (fun d r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: domain %d plans = warm sequential plans" (Estimator.scheme_name scheme) d)
            true (r = sequential))
        results)
    Estimator.all_schemes

(* --- Treelattice front-end --------------------------------------------------------------- *)

let test_frontend_basics () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let tl = Treelattice.build ~k:3 tree in
  Alcotest.(check int) "k" 3 (Treelattice.k tl);
  Alcotest.(check bool) "tree identity" true (Treelattice.tree tl == tree);
  (match Treelattice.estimate_text tl "laptop(brand,price)" with
  | Ok v -> close "estimate" 2.0 v
  | Error m -> Alcotest.failf "unexpected error %s" m);
  (match Treelattice.exact_text tl "laptop(brand,price)" with
  | Ok v -> Alcotest.(check int) "exact" 2 v
  | Error m -> Alcotest.failf "unexpected error %s" m);
  match Treelattice.estimate_text tl "laptop((" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "syntax error expected"

let test_frontend_unknown_tag_is_zero () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let tl = Treelattice.build ~k:3 tree in
  let labels = Tl_tree.Data_tree.label_count tree in
  (match Treelattice.estimate_text tl "laptop(unheard_of)" with
  | Ok v -> close "unknown tag estimates 0" 0.0 v
  | Error m -> Alcotest.failf "unknown tags should not error: %s" m);
  Alcotest.(check int) "the document's labels are untouched" labels
    (Tl_tree.Data_tree.label_count tree)

let test_frontend_pp () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let tl = Treelattice.build ~k:3 tree in
  let pp text =
    match Treelattice.parse_text tl text with
    | Ok q ->
      let names =
        Tl_twig.Query.name ~size:(Tl_tree.Data_tree.label_count tree)
          ~known:(Tl_tree.Data_tree.label_name tree) q
      in
      Twig.pp ~names q.Tl_twig.Query.twig
    | Error msg -> Alcotest.failf "parse %S: %s" text msg
  in
  Alcotest.(check string) "pretty printed" "laptop(brand,price)" (pp "laptop(brand,price)");
  Alcotest.(check string) "an unknown tag keeps its name" "laptop(brand,ghost)" (pp "laptop(ghost,brand)")

let test_frontend_prune () =
  let tree = Helpers.tree_of Helpers.regular_spec in
  let tl = Treelattice.build ~k:4 tree in
  let pruned = Treelattice.prune tl ~delta:0.0 in
  Alcotest.(check bool) "summary shrank" true
    (Summary.entries (Treelattice.summary pruned) < Summary.entries (Treelattice.summary tl));
  let q = "x(y(w,w),z)" in
  match (Treelattice.estimate_text tl q, Treelattice.estimate_text pruned q) with
  | Ok a, Ok b -> close "lossless" a b
  | _ -> Alcotest.fail "estimates failed"

let test_frontend_add_document () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let tl = Treelattice.build ~k:3 tree in
  (* Add a second shop with an extra tag. *)
  let other =
    TB.build
      (TB.node "computer"
         [ TB.node "laptops" [ TB.node "laptop" [ TB.leaf "brand"; TB.leaf "warranty" ] ] ])
  in
  let merged = Treelattice.add_document tl other in
  (match Treelattice.exact_text merged "laptop" with
  | Ok v -> Alcotest.(check int) "exact still against original tree" 2 v
  | Error m -> Alcotest.failf "unexpected %s" m);
  (match Treelattice.estimate_text merged "laptop" with
  | Ok v -> close "merged count" 3.0 v
  | Error m -> Alcotest.failf "unexpected %s" m);
  match Treelattice.estimate_text merged "laptop(warranty)" with
  | Ok v -> close "new tag counted" 1.0 v
  | Error m -> Alcotest.failf "unexpected %s" m

(* --- estimates on random documents stay finite and non-negative ---------------------------- *)

let prop_estimates_non_negative_finite =
  Helpers.qcheck_case ~name:"estimates are finite and non-negative" ~count:40
    (Helpers.tree_gen ~max_nodes:20)
    (fun tree ->
      let s = Summary.build ~k:3 tree in
      let rng = Tl_util.Xorshift.create 37 in
      let ok = ref true in
      for _ = 1 to 6 do
        match Tl_twig.Twig_enum.random_subtree rng tree ~size:6 with
        | None -> ()
        | Some twig ->
          List.iter
            (fun scheme ->
              let v = Estimator.estimate s scheme twig in
              if not (Float.is_finite v) || v < 0.0 then ok := false)
            Estimator.all_schemes
      done;
      !ok)

let () =
  Alcotest.run "estimator"
    [
      ( "lookup",
        [
          Alcotest.test_case "stored patterns exact" `Quick test_stored_exact;
          Alcotest.test_case "missing small pattern" `Quick test_missing_small_pattern_is_zero;
          Alcotest.test_case "unknown labels" `Quick test_unknown_label_zero;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "exact on regular document" `Quick test_exact_on_regular_document;
          Alcotest.test_case "fig11 values" `Quick test_fig11_recursive_value;
          Alcotest.test_case "cover structure" `Quick test_cover_structure;
          Alcotest.test_case "cover rejects small twig" `Quick test_cover_rejects_small_twig;
          Alcotest.test_case "fixed voting deterministic" `Quick test_fixed_voting_deterministic;
          Alcotest.test_case "scheme names" `Quick test_scheme_names_distinct;
          prop_cover_well_formed;
          prop_estimates_non_negative_finite;
        ] );
      ( "markov",
        [
          Alcotest.test_case "direct lookup" `Quick test_markov_direct_lookup;
          Alcotest.test_case "empty path" `Quick test_markov_empty_path;
          Alcotest.test_case "estimate_twig" `Quick test_markov_estimate_twig;
          prop_lemma4_equivalence;
        ] );
      ( "derivable",
        [
          Alcotest.test_case "levels 1-2 kept" `Quick test_prune_keeps_low_levels;
          Alcotest.test_case "regular doc fully derivable" `Quick
            test_prune_regular_document_prunes_everything_above_2;
          Alcotest.test_case "validation" `Quick test_prune_validation;
          Alcotest.test_case "savings monotone" `Quick test_savings_monotone_in_delta;
          prop_lemma5_lossless_zero_pruning;
          prop_lemma5_scheme_consistent_voting;
          Alcotest.test_case "first level votes" `Quick test_first_level_votes;
          Alcotest.test_case "estimate interval" `Quick test_estimate_interval;
          prop_interval_ordered;
          Alcotest.test_case "votes respect extra" `Quick test_votes_respect_extra;
          Alcotest.test_case "interval contains adaptive estimate" `Quick
            test_interval_contains_extra_estimate;
          Alcotest.test_case "votes and interval golden" `Quick test_votes_interval_golden;
          Alcotest.test_case "voting past its slot budget = recursive" `Quick
            test_voting_budget_falls_back;
        ] );
      ( "differential",
        [
          prop_bit_identical_to_seed_path;
          prop_bit_identical_on_pruned_summary;
        ] );
      ( "split_cache",
        [
          Alcotest.test_case "cold and warm keys compile bit-identically" `Quick
            test_cold_warm_bit_identical;
          Alcotest.test_case "recursive builds only the first split" `Quick
            test_recursive_builds_first_split_only;
          Alcotest.test_case "warm recompile interns no key" `Quick test_warm_recompile_interns_nothing;
          Alcotest.test_case "four domains compile cold keys alike" `Quick
            test_concurrent_cold_compiles_agree;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "basics" `Quick test_frontend_basics;
          Alcotest.test_case "unknown tag" `Quick test_frontend_unknown_tag_is_zero;
          Alcotest.test_case "pp" `Quick test_frontend_pp;
          Alcotest.test_case "prune" `Quick test_frontend_prune;
          Alcotest.test_case "add document" `Quick test_frontend_add_document;
        ] );
    ]
