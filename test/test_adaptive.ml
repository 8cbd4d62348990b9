(* Tests for the workload-adaptive layer and the match-enumeration engine. *)

module Adaptive = Tl_core.Adaptive
module Treelattice = Tl_core.Treelattice
module Estimator = Tl_core.Estimator
module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count
module Match_enum = Tl_twig.Match_enum
module Data_tree = Tl_tree.Data_tree
module TB = Tl_tree.Tree_builder

let close = Alcotest.(check (float 1e-6))

let fig11_tl () = Treelattice.build ~k:3 (Helpers.tree_of Helpers.fig11_spec)

(* --- adaptive cache ------------------------------------------------------------ *)

let test_observation_fixes_estimate () =
  let tl = fig11_tl () in
  let adaptive = Adaptive.create tl in
  let twig = Helpers.twig_of_string (Treelattice.tree tl) "a(b(c,d))" in
  (* Voting over-averages this query to 7 (regression-tested elsewhere);
     after feedback the cache answers exactly. *)
  close "before feedback" 7.0 (Adaptive.estimate adaptive twig);
  let truth = Adaptive.observe_exact adaptive twig in
  Alcotest.(check int) "truth" 4 truth;
  close "after feedback" 4.0 (Adaptive.estimate adaptive twig);
  Alcotest.(check int) "one pattern cached" 1 (Adaptive.cached_patterns adaptive);
  Alcotest.(check bool) "cache hit recorded" true (Adaptive.hit_count adaptive > 0)

let test_observation_anchors_supertwigs () =
  (* Learning a sub-twig improves estimates of queries that decompose
     through it: cache a(b(c,d)); estimate a(b(c,d),b). *)
  let tl = fig11_tl () in
  let adaptive = Adaptive.create tl in
  let tree = Treelattice.tree tl in
  let inner = Helpers.twig_of_string tree "a(b(c,d))" in
  let outer = Helpers.twig_of_string tree "a(b(c,d),b)" in
  let truth = float_of_int (Treelattice.exact tl outer) in
  let before = Adaptive.estimate ~scheme:Estimator.Recursive adaptive outer in
  ignore (Adaptive.observe_exact adaptive inner);
  let after = Adaptive.estimate ~scheme:Estimator.Recursive adaptive outer in
  Alcotest.(check bool)
    (Printf.sprintf "closer to truth (%.1f): %.2f -> %.2f" truth before after)
    true
    (Float.abs (after -. truth) <= Float.abs (before -. truth))

let test_small_patterns_not_cached () =
  let tl = fig11_tl () in
  let adaptive = Adaptive.create tl in
  let twig = Helpers.twig_of_string (Treelattice.tree tl) "b(c)" in
  ignore (Adaptive.observe_exact adaptive twig);
  Alcotest.(check int) "lattice-resident pattern skipped" 0 (Adaptive.cached_patterns adaptive)

let test_lru_eviction () =
  let tl = fig11_tl () in
  let adaptive = Adaptive.create ~capacity:2 tl in
  let tree = Treelattice.tree tl in
  let q1 = Helpers.twig_of_string tree "a(b(c,d))" in
  let q2 = Helpers.twig_of_string tree "a(b(c),b(d))" in
  let q3 = Helpers.twig_of_string tree "a(b,b,b,b)" in
  ignore (Adaptive.observe_exact adaptive q1);
  ignore (Adaptive.observe_exact adaptive q2);
  Alcotest.(check int) "at capacity" 2 (Adaptive.cached_patterns adaptive);
  (* Touch q1 so q2 is the LRU victim. *)
  ignore (Adaptive.estimate adaptive q1);
  ignore (Adaptive.observe_exact adaptive q3);
  Alcotest.(check int) "capacity respected" 2 (Adaptive.cached_patterns adaptive);
  close "q1 survived" (float_of_int (Treelattice.exact tl q1)) (Adaptive.estimate adaptive q1)

let test_stats () =
  let tl = fig11_tl () in
  let adaptive = Adaptive.create ~capacity:2 tl in
  let tree = Treelattice.tree tl in
  let q1 = Helpers.twig_of_string tree "a(b(c,d))" in
  let q2 = Helpers.twig_of_string tree "a(b(c),b(d))" in
  let q3 = Helpers.twig_of_string tree "a(b,b,b,b)" in
  ignore (Adaptive.observe_exact adaptive q1);
  ignore (Adaptive.observe_exact adaptive q2);
  ignore (Adaptive.observe_exact adaptive q3);
  ignore (Adaptive.estimate adaptive q3);
  (* q1 was evicted, so estimating it records cache misses. *)
  ignore (Adaptive.estimate adaptive q1);
  let s = Adaptive.stats adaptive in
  Alcotest.(check int) "size" 2 s.Adaptive.size;
  Alcotest.(check int) "capacity" 2 s.Adaptive.capacity;
  Alcotest.(check int) "one eviction" 1 s.Adaptive.evictions;
  Alcotest.(check bool) "hits counted" true (s.Adaptive.hits > 0);
  Alcotest.(check bool) "misses counted" true (s.Adaptive.misses > 0);
  Alcotest.(check int) "hit_count agrees" s.Adaptive.hits (Adaptive.hit_count adaptive)

let test_observe_validation () =
  let tl = fig11_tl () in
  let adaptive = Adaptive.create tl in
  let twig = Helpers.twig_of_string (Treelattice.tree tl) "a(b(c,d))" in
  Alcotest.check_raises "negative count" (Invalid_argument "Adaptive.observe: negative count")
    (fun () -> Adaptive.observe adaptive twig (-1));
  Alcotest.check_raises "bad capacity" (Invalid_argument "Adaptive.create: capacity must be >= 1")
    (fun () -> ignore (Adaptive.create ~capacity:0 tl))

let test_unobserved_matches_plain_estimator () =
  let tl = fig11_tl () in
  let adaptive = Adaptive.create tl in
  let twig = Helpers.twig_of_string (Treelattice.tree tl) "a(b(c),b(d))" in
  close "no feedback = plain estimate" (Treelattice.estimate tl twig) (Adaptive.estimate adaptive twig)

(* --- concurrent feedback ------------------------------------------------------------ *)

module Engine = Tl_serve.Engine
module Pool = Tl_util.Pool

(* Whatever interleaving a pooled batch produces, the post-batch stats
   must balance: every lookup is either a hit or a miss, the cache never
   outgrows its capacity, and the recency list stays well-formed. *)
let prop_concurrent_feedback_invariants =
  Helpers.qcheck_case ~name:"pooled feedback batches keep stats invariants" ~count:10
    QCheck2.Gen.(
      pair (Helpers.tree_gen ~max_nodes:20)
        (array_size (return 24) (Helpers.twig_gen ~nlabels:6 ~max_nodes:7 ())))
    (fun (tree, batch) ->
      let tl = Treelattice.build ~k:2 tree in
      let adaptive = Adaptive.create ~capacity:3 tl in
      Array.iteri
        (fun i tw -> if i mod 3 = 0 then Adaptive.observe adaptive tw ((Twig.size tw * 3) + 1))
        batch;
      let engine = Engine.create (Treelattice.summary tl) in
      let lookups = Atomic.make 0 in
      let extra key =
        Atomic.incr lookups;
        Adaptive.lookup adaptive key
      in
      let before = Adaptive.stats adaptive in
      let results = Pool.with_pool ~domains:4 (fun pool -> Engine.batch ~pool ~extra engine batch) in
      let after = Adaptive.stats adaptive in
      Array.for_all Float.is_finite results
      && after.Adaptive.size <= after.Adaptive.capacity
      && after.Adaptive.hits + after.Adaptive.misses
         - (before.Adaptive.hits + before.Adaptive.misses)
         = Atomic.get lookups
      && Adaptive.check_integrity adaptive = Ok ())

(* Lookups and observes racing from worker domains.  Exact counts are
   precomputed on the owner domain (Treelattice.exact shares a counting
   context and stays single-domain); workers then interleave observe and
   lookup against one undersized cache, forcing eviction churn under
   contention.  A surviving cached pattern must still answer with its
   exact count — lost updates or crossed splices would surface here or in
   check_integrity. *)
let test_concurrent_lookup_observe_stress () =
  let tl = fig11_tl () in
  let adaptive = Adaptive.create ~capacity:3 tl in
  let tree = Treelattice.tree tl in
  let patterns =
    Array.of_list
      (List.map
         (fun q ->
           let tw = Helpers.twig_of_string tree q in
           (Twig.key (Twig.canonicalize tw), tw, Treelattice.exact tl tw))
         [ "a(b(c,d))"; "a(b(c),b(d))"; "a(b,b,b,b)"; "a(b(c,c,d))"; "a(b(c,d),b)"; "a(b(c,d,d))" ])
  in
  let work = Array.init 96 (fun i -> i) in
  Pool.with_pool ~domains:4 (fun pool ->
      for _ = 1 to 10 do
        ignore
          (Pool.parallel_map pool
             (fun i ->
               let key, tw, count = patterns.(i mod Array.length patterns) in
               if i mod 4 = 0 then Adaptive.observe adaptive tw count
               else ignore (Adaptive.lookup adaptive key))
             work)
      done);
  (match Adaptive.check_integrity adaptive with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "corrupt LRU after mixed observe/lookup: %s" msg);
  let s = Adaptive.stats adaptive in
  Alcotest.(check bool) "size bounded" true (s.Adaptive.size <= s.Adaptive.capacity);
  Alcotest.(check bool) "cache not empty" true (s.Adaptive.size > 0);
  Array.iter
    (fun (key, _, count) ->
      match Adaptive.lookup adaptive key with
      | Some v -> close "surviving pattern still exact" (float_of_int count) v
      | None -> ())
    patterns

(* --- match enumeration ------------------------------------------------------------ *)

let test_enumerate_fig1 () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let twig = Helpers.twig_of_string tree "laptop(brand,price)" in
  let matches = Match_enum.enumerate tree twig in
  Alcotest.(check int) "two matches" 2 (List.length matches);
  List.iter
    (fun m -> Alcotest.(check bool) "valid match" true (Match_enum.is_match tree twig m))
    matches;
  (* Matches are distinct assignments. *)
  let rendered = List.map (fun m -> Array.to_list m) matches in
  Alcotest.(check int) "distinct" 2 (List.length (List.sort_uniq compare rendered))

let test_enumerate_respects_limit () =
  let tree = TB.build (TB.node "b" (TB.replicate 4 (TB.leaf "c"))) in
  let twig = Helpers.twig_of_string tree "b(c,c)" in
  Alcotest.(check int) "limit" 5 (List.length (Match_enum.enumerate ~limit:5 tree twig));
  Alcotest.(check int) "limit 0" 0 (List.length (Match_enum.enumerate ~limit:0 tree twig));
  Alcotest.(check int) "all without limit" 12 (List.length (Match_enum.enumerate tree twig));
  Alcotest.check_raises "negative limit" (Invalid_argument "Match_enum.enumerate: negative limit")
    (fun () -> ignore (Match_enum.enumerate ~limit:(-1) tree twig))

let test_enumerate_empty () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let twig = Helpers.twig_of_string tree "desktop(price)" in
  Alcotest.(check int) "no matches" 0 (List.length (Match_enum.enumerate tree twig))

let test_is_match_rejects_bad_mappings () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let twig = Helpers.twig_of_string tree "laptop(brand,price)" in
  (match Match_enum.enumerate ~limit:1 tree twig with
  | [ good ] ->
    Alcotest.(check bool) "good accepted" true (Match_enum.is_match tree twig good);
    let broken = Array.copy good in
    broken.(1) <- broken.(0);
    Alcotest.(check bool) "non-injective rejected" false (Match_enum.is_match tree twig broken);
    let wrong_label = Array.copy good in
    wrong_label.(0) <- Tl_tree.Data_tree.root tree;
    Alcotest.(check bool) "label mismatch rejected" false (Match_enum.is_match tree twig wrong_label)
  | _ -> Alcotest.fail "expected one match");
  Alcotest.(check bool) "arity mismatch rejected" false (Match_enum.is_match tree twig [| 0 |])

let prop_enumeration_count_equals_dp =
  Helpers.qcheck_case ~name:"enumeration count = DP count on random trees" ~count:50
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      let ctx = Match_count.create_ctx tree in
      let rng = Tl_util.Xorshift.create 53 in
      let ok = ref true in
      for _ = 1 to 4 do
        match Tl_twig.Twig_enum.random_subtree rng tree ~size:4 with
        | None -> ()
        | Some twig ->
          if Match_enum.count_via_enumeration tree twig <> Match_count.selectivity ctx twig then
            ok := false
      done;
      !ok)

let prop_enumerated_matches_valid =
  Helpers.qcheck_case ~name:"every enumerated match validates" ~count:30
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      let rng = Tl_util.Xorshift.create 57 in
      match Tl_twig.Twig_enum.random_subtree rng tree ~size:3 with
      | None -> true
      | Some twig ->
        List.for_all
          (fun m -> Match_enum.is_match tree twig m)
          (Match_enum.enumerate ~limit:64 tree twig))

let () =
  Alcotest.run "adaptive"
    [
      ( "cache",
        [
          Alcotest.test_case "feedback fixes estimate" `Quick test_observation_fixes_estimate;
          Alcotest.test_case "anchors supertwigs" `Quick test_observation_anchors_supertwigs;
          Alcotest.test_case "small patterns skipped" `Quick test_small_patterns_not_cached;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "validation" `Quick test_observe_validation;
          Alcotest.test_case "unobserved unchanged" `Quick test_unobserved_matches_plain_estimator;
        ] );
      ( "concurrency",
        [
          prop_concurrent_feedback_invariants;
          Alcotest.test_case "mixed observe/lookup stress" `Quick
            test_concurrent_lookup_observe_stress;
        ] );
      ( "match_enum",
        [
          Alcotest.test_case "fig1 matches" `Quick test_enumerate_fig1;
          Alcotest.test_case "limit" `Quick test_enumerate_respects_limit;
          Alcotest.test_case "empty" `Quick test_enumerate_empty;
          Alcotest.test_case "is_match rejections" `Quick test_is_match_rejects_bad_mappings;
          prop_enumeration_count_equals_dp;
          prop_enumerated_matches_valid;
        ] );
    ]
