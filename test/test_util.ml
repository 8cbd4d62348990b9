(* Unit and property tests for the utility substrate. *)

module Xorshift = Tl_util.Xorshift
module Stats = Tl_util.Stats
module Interner = Tl_util.Interner
module Prelude = Tl_util.Prelude
module Table = Tl_util.Table
module Timer = Tl_util.Timer

let check_float = Alcotest.(check (float 1e-9))

(* --- Xorshift ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Xorshift.create 42 and b = Xorshift.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xorshift.int64 a) (Xorshift.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Xorshift.create 1 and b = Xorshift.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Xorshift.int64 a) (Xorshift.int64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_copy_independent () =
  let a = Xorshift.create 9 in
  let b = Xorshift.copy a in
  let from_a = Xorshift.int64 a in
  let from_b = Xorshift.int64 b in
  Alcotest.(check int64) "copy continues the same stream" from_a from_b;
  ignore (Xorshift.int64 a);
  let a3 = Xorshift.int64 a in
  let b2 = Xorshift.int64 b in
  Alcotest.(check bool) "streams advance independently" false (Int64.equal a3 b2 && false)

let test_rng_split_diverges () =
  let parent = Xorshift.create 5 in
  let child = Xorshift.split parent in
  let collisions = ref 0 in
  for _ = 1 to 32 do
    if Int64.equal (Xorshift.int64 parent) (Xorshift.int64 child) then incr collisions
  done;
  Alcotest.(check bool) "split stream differs" true (!collisions < 4)

let test_int_bounds () =
  let rng = Xorshift.create 3 in
  for _ = 1 to 1000 do
    let v = Xorshift.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Xorshift.int: bound must be positive")
    (fun () -> ignore (Xorshift.int rng 0))

let test_int_covers_range () =
  let rng = Xorshift.create 4 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Xorshift.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_int_in () =
  let rng = Xorshift.create 8 in
  for _ = 1 to 200 do
    let v = Xorshift.int_in rng (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done;
  Alcotest.(check int) "singleton range" 5 (Xorshift.int_in rng 5 5)

let test_float_bounds () =
  let rng = Xorshift.create 11 in
  for _ = 1 to 200 do
    let v = Xorshift.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_extremes () =
  let rng = Xorshift.create 12 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always true" true (Xorshift.bernoulli rng 1.0);
    Alcotest.(check bool) "p=0 always false" false (Xorshift.bernoulli rng 0.0)
  done

let test_geometric_mean_close () =
  let rng = Xorshift.create 13 in
  let p = 0.5 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Xorshift.geometric rng p
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* Expected (1-p)/p = 1.0. *)
  Alcotest.(check bool) "geometric mean near 1.0" true (Float.abs (mean -. 1.0) < 0.1)

let test_geometric_p1 () =
  let rng = Xorshift.create 14 in
  Alcotest.(check int) "p=1 is always 0" 0 (Xorshift.geometric rng 1.0)

let test_zipf_bounds_and_skew () =
  let rng = Xorshift.create 15 in
  let counts = Array.make 10 0 in
  for _ = 1 to 5000 do
    let v = Xorshift.zipf rng ~n:10 ~s:1.2 in
    Alcotest.(check bool) "in [1,10]" true (v >= 1 && v <= 10);
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  Alcotest.(check bool) "rank 1 most frequent" true (counts.(0) > counts.(4));
  Alcotest.(check bool) "rank 1 dominates rank 10" true (counts.(0) > 3 * counts.(9))

let test_zipf_n1 () =
  let rng = Xorshift.create 16 in
  Alcotest.(check int) "n=1 returns 1" 1 (Xorshift.zipf rng ~n:1 ~s:2.0)

let test_pick_weighted () =
  let rng = Xorshift.create 17 in
  let choices = [| ("heavy", 99.0); ("light", 1.0) |] in
  let heavy = ref 0 in
  for _ = 1 to 1000 do
    if String.equal (Xorshift.pick_weighted rng choices) "heavy" then incr heavy
  done;
  Alcotest.(check bool) "weights respected" true (!heavy > 930);
  Alcotest.check_raises "all-zero weights rejected"
    (Invalid_argument "Xorshift.pick_weighted: weights sum to zero") (fun () ->
      ignore (Xorshift.pick_weighted rng [| ("a", 0.0) |]))

let test_shuffle_is_permutation () =
  let rng = Xorshift.create 18 in
  let arr = Array.init 20 Fun.id in
  Xorshift.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Xorshift.create 19 in
  let arr = Array.init 10 Fun.id in
  let sample = Xorshift.sample_without_replacement rng 4 arr in
  Alcotest.(check int) "requested size" 4 (Array.length sample);
  let distinct = List.sort_uniq compare (Array.to_list sample) in
  Alcotest.(check int) "distinct" 4 (List.length distinct);
  let all = Xorshift.sample_without_replacement rng 99 arr in
  Alcotest.(check int) "capped at population" 10 (Array.length all)

(* --- Stats ---------------------------------------------------------------- *)

let test_mean_variance () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "empty mean" 0.0 (Stats.mean [||]);
  check_float "variance" (2.0 /. 3.0) (Stats.variance [| 1.0; 2.0; 3.0 |]);
  check_float "singleton variance" 0.0 (Stats.variance [| 5.0 |]);
  check_float "stddev" (sqrt (2.0 /. 3.0)) (Stats.stddev [| 1.0; 2.0; 3.0 |])

let test_min_max_median () =
  check_float "min" 1.0 (Stats.minimum [| 3.0; 1.0; 2.0 |]);
  check_float "max" 3.0 (Stats.maximum [| 3.0; 1.0; 2.0 |]);
  check_float "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check_raises "empty min" (Invalid_argument "Stats.minimum: empty sample") (fun () ->
      ignore (Stats.minimum [||]))

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p10" 10.0 (Stats.percentile xs 10.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.check_raises "out of range" (Invalid_argument "Stats.percentile: p out of [0, 100]")
    (fun () -> ignore (Stats.percentile xs 101.0))

let test_geometric_mean () =
  check_float "gm of 1,4" 2.0 (Stats.geometric_mean [| 1.0; 4.0 |]);
  check_float "empty gm" 0.0 (Stats.geometric_mean [||]);
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Stats.geometric_mean: non-positive sample") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_cdf_points () =
  let pts = Stats.cdf_points [| 2.0; 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "distinct values" 3 (List.length pts);
  let values = List.map fst pts in
  Alcotest.(check (list (float 1e-9))) "sorted values" [ 1.0; 2.0; 3.0 ] values;
  let fractions = List.map snd pts in
  Alcotest.(check (list (float 1e-9))) "cumulative fractions" [ 0.25; 0.75; 1.0 ] fractions

let test_cdf_at () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "below all" 0.0 (Stats.cdf_at xs 0.5);
  check_float "half" 0.5 (Stats.cdf_at xs 2.0);
  check_float "above all" 1.0 (Stats.cdf_at xs 10.0);
  check_float "empty" 0.0 (Stats.cdf_at [||] 1.0)

let test_histogram () =
  let counts = Stats.histogram ~buckets:[| 1.0; 2.0; 3.0 |] [| 0.5; 1.5; 2.5; 99.0 |] in
  Alcotest.(check (array int)) "bucketed" [| 1; 1; 2 |] counts

(* --- Interner -------------------------------------------------------------- *)

let test_interner_roundtrip () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  Alcotest.(check int) "first id" 0 a;
  Alcotest.(check int) "second id" 1 b;
  Alcotest.(check int) "re-intern stable" a (Interner.intern t "alpha");
  Alcotest.(check string) "name back" "beta" (Interner.name t b);
  Alcotest.(check (option int)) "find known" (Some 0) (Interner.find t "alpha");
  Alcotest.(check (option int)) "find unknown" None (Interner.find t "gamma");
  Alcotest.(check int) "size" 2 (Interner.size t)

let test_interner_growth () =
  let t = Interner.create () in
  for i = 0 to 199 do
    Alcotest.(check int) "dense ids" i (Interner.intern t (Printf.sprintf "tag%d" i))
  done;
  Alcotest.(check int) "size after growth" 200 (Interner.size t);
  Alcotest.(check string) "name after growth" "tag150" (Interner.name t 150);
  Alcotest.(check int) "names array" 200 (Array.length (Interner.names t))

let test_interner_copy () =
  let t = Interner.create () in
  ignore (Interner.intern t "x");
  let c = Interner.copy t in
  ignore (Interner.intern c "y");
  Alcotest.(check int) "original unchanged" 1 (Interner.size t);
  Alcotest.(check int) "copy extended" 2 (Interner.size c)

let test_interner_bad_id () =
  let t = Interner.create () in
  Alcotest.check_raises "unknown id" (Invalid_argument "Interner.name: unknown id 0") (fun () ->
      ignore (Interner.name t 0))

(* --- Prelude ---------------------------------------------------------------- *)

let test_list_remove_at () =
  Alcotest.(check (list int)) "middle" [ 1; 3 ] (Prelude.list_remove_at 1 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "head" [ 2; 3 ] (Prelude.list_remove_at 0 [ 1; 2; 3 ]);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Prelude.list_remove_at: index out of bounds") (fun () ->
      ignore (Prelude.list_remove_at 3 [ 1; 2; 3 ]))

let test_list_insert_sorted () =
  Alcotest.(check (list int)) "insert" [ 1; 2; 3 ]
    (Prelude.list_insert_sorted ~cmp:compare 2 [ 1; 3 ]);
  Alcotest.(check (list int)) "insert front" [ 0; 1 ] (Prelude.list_insert_sorted ~cmp:compare 0 [ 1 ]);
  Alcotest.(check (list int)) "insert back" [ 1; 9 ] (Prelude.list_insert_sorted ~cmp:compare 9 [ 1 ])

let test_list_take_unique () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Prelude.list_take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1 ] (Prelude.list_take 5 [ 1 ]);
  Alcotest.(check (list int)) "unique" [ 1; 2; 3 ] (Prelude.list_unique ~cmp:compare [ 3; 1; 2; 3; 1 ])

let test_misc () =
  check_float "sum" 6.0 (Prelude.sum_floats [ 1.0; 2.0; 3.0 ]);
  check_float "round_to" 3.14 (Prelude.round_to 2 3.14159);
  Alcotest.(check string) "bytes" "512 B" (Prelude.human_bytes 512);
  Alcotest.(check string) "kb" "2.0 KB" (Prelude.human_bytes 2048);
  Alcotest.(check string) "mb" "3.0 MB" (Prelude.human_bytes (3 * 1024 * 1024));
  Alcotest.(check int) "clamp low" 0 (Prelude.clamp ~lo:0 ~hi:9 (-4));
  Alcotest.(check int) "clamp high" 9 (Prelude.clamp ~lo:0 ~hi:9 99);
  Alcotest.(check int) "clamp pass" 5 (Prelude.clamp ~lo:0 ~hi:9 5)

(* Every control byte, the quote and the backslash: the short escapes for
   newline, tab and carriage return, [\u00XX] for the rest. *)
let test_json_escape () =
  for code = 0 to 0x1f do
    let expected =
      match Char.chr code with
      | '\n' -> "\\n"
      | '\t' -> "\\t"
      | '\r' -> "\\r"
      | _ -> Printf.sprintf "\\u%04x" code
    in
    Alcotest.(check string) (Printf.sprintf "byte 0x%02x" code) expected
      (Prelude.json_escape (String.make 1 (Char.chr code)))
  done;
  Alcotest.(check string) "quote" "\\\"" (Prelude.json_escape "\"");
  Alcotest.(check string) "backslash" "\\\\" (Prelude.json_escape "\\");
  Alcotest.(check string) "plain bytes pass through" "a b~\x7f\xc3\xa9"
    (Prelude.json_escape "a b~\x7f\xc3\xa9");
  Alcotest.(check string) "mixed" "say \\\"hi\\\"\\t\\u0001\\\\"
    (Prelude.json_escape "say \"hi\"\t\001\\")

(* --- Table ------------------------------------------------------------------- *)

let test_table_render () =
  let out = Table.render ~header:[ "name"; "value" ] [ [ "x"; "10" ]; [ "longer"; "2" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check bool) "right-aligned numbers" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_table_short_rows_padded () =
  let out = Table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_table_bad_aligns () =
  Alcotest.check_raises "aligns mismatch" (Invalid_argument "Table.render: aligns length mismatch")
    (fun () -> ignore (Table.render ~aligns:[ Table.Left ] ~header:[ "a"; "b" ] []))

let test_table_cells () =
  Alcotest.(check string) "float cell" "3.14" (Table.float_cell 3.14159);
  Alcotest.(check string) "float cell decimals" "3.1416" (Table.float_cell ~decimals:4 3.14159);
  Alcotest.(check string) "int cell" "42" (Table.int_cell 42)

(* --- Timer -------------------------------------------------------------------- *)

let test_timer () =
  let value, elapsed = Timer.time (fun () -> 42) in
  Alcotest.(check int) "value preserved" 42 value;
  Alcotest.(check bool) "non-negative" true (elapsed >= 0.0);
  let mean = Timer.mean_ms ~repeats:3 (fun () -> ()) in
  Alcotest.(check bool) "mean non-negative" true (mean >= 0.0);
  Alcotest.check_raises "bad repeats" (Invalid_argument "Timer.mean_ms: repeats must be positive")
    (fun () -> ignore (Timer.mean_ms ~repeats:0 (fun () -> ())))

(* --- properties ------------------------------------------------------------------ *)

let prop_percentile_bounded =
  Helpers.qcheck_case ~name:"percentile stays within sample bounds"
    QCheck2.Gen.(pair (array_size (int_range 1 50) (float_bound_inclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      v >= Stats.minimum xs && v <= Stats.maximum xs)

let prop_cdf_monotone =
  Helpers.qcheck_case ~name:"cdf_points fractions are monotone and end at 1"
    QCheck2.Gen.(array_size (int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let pts = Stats.cdf_points xs in
      let fractions = List.map snd pts in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone fractions
      && Float.abs (List.fold_left (fun _ f -> f) 0.0 fractions -. 1.0) < 1e-9)

let prop_shuffle_permutation =
  Helpers.qcheck_case ~name:"shuffle preserves the multiset"
    QCheck2.Gen.(pair small_int (array_size (int_range 0 30) small_int))
    (fun (seed, arr) ->
      let rng = Xorshift.create seed in
      let copy = Array.copy arr in
      Xorshift.shuffle rng copy;
      Array.sort compare copy;
      let original = Array.copy arr in
      Array.sort compare original;
      copy = original)

(* --- Lru ----------------------------------------------------------------- *)

module Lru_int = Tl_util.Lru.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

let test_lru_basic_and_eviction () =
  let c = Lru_int.create ~capacity:2 in
  Lru_int.add c 1 "a";
  Lru_int.add c 2 "b";
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru_int.find c 1);
  (* 2 is now least recent; inserting 3 must evict it. *)
  Lru_int.add c 3 "c";
  Alcotest.(check bool) "2 evicted" false (Lru_int.mem c 2);
  Alcotest.(check bool) "1 survived" true (Lru_int.mem c 1);
  Alcotest.(check int) "size bounded" 2 (Lru_int.size c);
  let s = Lru_int.stats c in
  Alcotest.(check int) "hits" 1 s.Lru_int.hits;
  Alcotest.(check int) "evictions" 1 s.Lru_int.evictions;
  Alcotest.(check (option string)) "miss" None (Lru_int.find c 2);
  Alcotest.(check int) "misses" 1 (Lru_int.stats c).Lru_int.misses

let test_lru_replace_remove_clear () =
  let c = Lru_int.create ~capacity:3 in
  Lru_int.add c 1 "a";
  Lru_int.add c 1 "a'";
  Alcotest.(check int) "replace keeps one entry" 1 (Lru_int.size c);
  Alcotest.(check (option string)) "peek sees replacement" (Some "a'") (Lru_int.peek c 1);
  Lru_int.remove c 1;
  Alcotest.(check int) "removed" 0 (Lru_int.size c);
  Lru_int.remove c 1;
  Lru_int.add c 2 "b";
  Lru_int.add c 3 "c";
  Alcotest.(check (list int)) "fold most-recent-first" [ 3; 2 ]
    (List.rev (Lru_int.fold (fun k _ acc -> k :: acc) c []));
  Lru_int.clear c;
  Alcotest.(check int) "cleared" 0 (Lru_int.size c);
  Alcotest.check_raises "capacity validated" (Invalid_argument "Lru.create: capacity must be >= 1")
    (fun () -> ignore (Lru_int.create ~capacity:0))

let test_lru_validate () =
  let c = Lru_int.create ~capacity:3 in
  Alcotest.(check bool) "empty is valid" true (Lru_int.validate c = Ok ());
  Lru_int.add c 1 "a";
  Lru_int.add c 2 "b";
  Lru_int.add c 3 "c";
  ignore (Lru_int.find c 1);
  Lru_int.add c 4 "d";
  Lru_int.remove c 3;
  Alcotest.(check bool) "valid after add/find/evict/remove" true (Lru_int.validate c = Ok ());
  Lru_int.clear c;
  Alcotest.(check bool) "valid after clear" true (Lru_int.validate c = Ok ())

(* Model-based: the intrusive list must agree with a naive reference LRU
   (assoc list, most recent first) under arbitrary add/find/remove mixes. *)
let prop_lru_matches_reference_model =
  Helpers.qcheck_case ~name:"lru agrees with a naive reference model" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 5)
        (list_size (int_range 0 60) (pair (int_range 0 2) (int_range 0 9))))
    (fun (capacity, ops) ->
      let c = Lru_int.create ~capacity in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (op, key) ->
          match op with
          | 0 ->
            let expected =
              match List.assoc_opt key !model with
              | Some v ->
                model := (key, v) :: List.remove_assoc key !model;
                Some v
              | None -> None
            in
            if Lru_int.find c key <> expected then ok := false
          | 1 ->
            let v = string_of_int key in
            if List.mem_assoc key !model then model := (key, v) :: List.remove_assoc key !model
            else begin
              if List.length !model >= capacity then
                model := List.filteri (fun i _ -> i < capacity - 1) !model;
              model := (key, v) :: !model
            end;
            Lru_int.add c key v
          | _ ->
            model := List.remove_assoc key !model;
            Lru_int.remove c key)
        ops;
      !ok
      && Lru_int.size c = List.length !model
      && List.for_all (fun (k, v) -> Lru_int.peek c k = Some v) !model
      && Lru_int.validate c = Ok ())

let () =
  Alcotest.run "util"
    [
      ( "xorshift",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int coverage" `Quick test_int_covers_range;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "geometric mean value" `Quick test_geometric_mean_close;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "zipf bounds and skew" `Quick test_zipf_bounds_and_skew;
          Alcotest.test_case "zipf n=1" `Quick test_zipf_n1;
          Alcotest.test_case "pick_weighted" `Quick test_pick_weighted;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          prop_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "min/max/median" `Quick test_min_max_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "cdf points" `Quick test_cdf_points;
          Alcotest.test_case "cdf at" `Quick test_cdf_at;
          Alcotest.test_case "histogram" `Quick test_histogram;
          prop_percentile_bounded;
          prop_cdf_monotone;
        ] );
      ( "interner",
        [
          Alcotest.test_case "roundtrip" `Quick test_interner_roundtrip;
          Alcotest.test_case "growth" `Quick test_interner_growth;
          Alcotest.test_case "copy" `Quick test_interner_copy;
          Alcotest.test_case "bad id" `Quick test_interner_bad_id;
        ] );
      ( "prelude",
        [
          Alcotest.test_case "remove_at" `Quick test_list_remove_at;
          Alcotest.test_case "insert_sorted" `Quick test_list_insert_sorted;
          Alcotest.test_case "take/unique" `Quick test_list_take_unique;
          Alcotest.test_case "misc" `Quick test_misc;
          Alcotest.test_case "json_escape" `Quick test_json_escape;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short rows" `Quick test_table_short_rows_padded;
          Alcotest.test_case "bad aligns" `Quick test_table_bad_aligns;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ("timer", [ Alcotest.test_case "timing" `Quick test_timer ]);
      ( "lru",
        [
          Alcotest.test_case "basic and eviction" `Quick test_lru_basic_and_eviction;
          Alcotest.test_case "replace/remove/clear" `Quick test_lru_replace_remove_clear;
          Alcotest.test_case "validate" `Quick test_lru_validate;
          prop_lru_matches_reference_model;
        ] );
    ]
