module Data_tree = Tl_tree.Data_tree
module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count

type twig_count = Twig.t * int

type result = { max_size : int; levels : twig_count list array }

(* Downward closure over root occurrences.  [occurrences] maps each kept
   pattern of the previous level (by key id) to its root occurrence list:
   the data nodes, in preorder, where its rooted match count is non-zero.
   A candidate occurs only if every sub-twig obtained by dropping one
   degree-1 node occurred; and since it grows from its sub-twigs by adding
   a child, it matches only at data nodes where each sub-twig that keeps
   its root (every one but a dropped root, index 0) matched.  So it is
   counted over the shortest of those lists, starting from every node
   carrying its root label.  [None] when some sub-twig did not occur. *)
let candidate_roots tree occurrences candidate =
  let ix = Twig.index candidate in
  List.fold_left
    (fun acc i ->
      match acc with
      | None -> None
      | Some best -> (
        match Hashtbl.find_opt occurrences (Twig.Key.id (Twig.key (Twig.remove ix i))) with
        | None -> None
        | Some roots when i <> 0 && Array.length roots < Array.length best -> Some roots
        | Some _ -> acc))
    (Some (Data_tree.nodes_with_label tree candidate.Twig.label))
    (Twig.degree_one ix)

(* Candidate counting is the miner's hot loop and each candidate is
   independent, so a batch is counted across a domain pool when one is
   given: every participant clones the shared context (a private root
   buffer over the shared immutable tree) and results come back in input
   order, so the final per-level sort sees exactly the sequential result
   set.

   Counting one candidate costs time roughly proportional to its root
   list, so the work in a batch is [visits], the lists' summed length, and
   each candidate's length is its cost hint for chunking.  Below
   [parallel_work_budget] visits the fan-out overhead (helper wake-up,
   chunk-cursor contention, end-of-map rendezvous, cross-domain GC
   rendezvous) outweighs the counting itself, so such batches stay on the
   sequential path (identical results either way; test_mining's pool
   property asserts it).  128k visits are about 7-12 ms of mining: [mine]
   at k = 4 on the four 100k-element perfbench documents spends 51-91 ns
   per visit on one core of a 2-vCPU x86-64 VM. *)
let parallel_work_budget = 128_000

let count_batch ?pool ctx ~visits ~keep_roots work =
  let count cctx (candidate, roots) =
    let n, hits = Match_count.count_over cctx candidate roots ~keep_roots in
    (candidate, n, hits)
  in
  match pool with
  | Some pool when visits >= parallel_work_budget ->
    Tl_util.Pool.parallel_chunked_map pool
      ~cost:(fun (_, roots) -> Array.length roots)
      ~init:(fun () -> Match_count.clone_ctx ctx)
      count work
  | _ -> Array.map (count ctx) work

module Metrics = Tl_obs.Metrics

let candidates_generated =
  Metrics.counter ~help:"Candidate patterns generated by level-wise extension" "miner.candidates_generated"
let candidates_counted =
  Metrics.counter ~help:"Candidate patterns whose support was counted" "miner.candidates_counted"
let roots_visited =
  Metrics.counter ~help:"Data nodes at which candidate patterns were counted" "miner.roots_visited"
let patterns_kept = Metrics.counter ~help:"Patterns kept across all mined levels" "miner.patterns_kept"
let level_patterns =
  Metrics.histogram ~help:"Patterns kept per mined lattice level" "miner.level_patterns"

let mine ?pool ctx ~max_size =
  if max_size < 1 then invalid_arg "Miner.mine: max_size must be >= 1";
  Tl_obs.Span.with_ "miner.mine" @@ fun () ->
  let tree = Match_count.tree ctx in
  let levels = Array.make (max_size + 1) [] in
  (* Level 1: one pattern per occurring label, which occurs at every node
     carrying it. *)
  let nlabels = Data_tree.label_count tree in
  let level1 = ref [] in
  for l = nlabels - 1 downto 0 do
    let occurrences = Array.length (Data_tree.nodes_with_label tree l) in
    if occurrences > 0 then level1 := (Twig.leaf l, occurrences) :: !level1
  done;
  levels.(1) <- !level1;
  let occurrences1 = Hashtbl.create 256 in
  List.iter
    (fun (t, _) ->
      Hashtbl.replace occurrences1 (Twig.Key.id (Twig.key t))
        (Data_tree.nodes_with_label tree t.Twig.label))
    !level1;
  (* Child labels that can extend a node labeled [lp]. *)
  let extensions = Array.make nlabels [] in
  List.iter
    (fun (lp, lc) -> extensions.(lp) <- lc :: extensions.(lp))
    (Data_tree.edge_label_pairs tree);
  Array.iteri (fun lp kids -> extensions.(lp) <- List.sort_uniq compare kids) extensions;
  (* Levels 2..max_size by rightmost-style extension of every node.  Dedup
     tables key on interned canonical ids.  Only the previous level's root
     occurrence lists are held, and the last level builds none, since
     nothing extends it. *)
  let rec grow_level s occurrences =
    if s <= max_size then begin
      let keep_roots = s < max_size in
      let next =
        Tl_obs.Span.with_ "miner.level" @@ fun () ->
        let candidates = Hashtbl.create 256 in
        List.iter
          (fun (pattern, _) ->
            let ix = Twig.index pattern in
            Array.iteri
              (fun i lp ->
                List.iter
                  (fun lc ->
                    let candidate = Twig.grow ix i lc in
                    let key = Twig.Key.id (Twig.key candidate) in
                    if not (Hashtbl.mem candidates key) then Hashtbl.replace candidates key candidate)
                  extensions.(lp))
              ix.Twig.node_labels)
          levels.(s - 1);
        let work =
          Hashtbl.fold
            (fun _ candidate acc ->
              match candidate_roots tree occurrences candidate with
              | Some roots -> (candidate, roots) :: acc
              | None -> acc)
            candidates []
          |> Array.of_list
        in
        let visits = Array.fold_left (fun acc (_, roots) -> acc + Array.length roots) 0 work in
        Metrics.add candidates_generated (Hashtbl.length candidates);
        Metrics.add candidates_counted (Array.length work);
        Metrics.add roots_visited visits;
        let next = Hashtbl.create 256 in
        let counted =
          Array.fold_left
            (fun acc (candidate, count, hits) ->
              if count > 0 then begin
                if keep_roots then Hashtbl.replace next (Twig.Key.id (Twig.key candidate)) hits;
                (candidate, count) :: acc
              end
              else acc)
            []
            (count_batch ?pool ctx ~visits ~keep_roots work)
        in
        Metrics.add patterns_kept (List.length counted);
        Metrics.observe level_patterns (List.length counted);
        levels.(s) <- List.sort (fun (a, _) (b, _) -> Twig.compare a b) counted;
        next
      in
      grow_level (s + 1) next
    end
  in
  grow_level 2 occurrences1;
  levels.(1) <- List.sort (fun (a, _) (b, _) -> Twig.compare a b) levels.(1);
  Tl_obs.Log.debug (fun m ->
      m "mined %d pattern(s) across %d level(s)"
        (Array.fold_left (fun acc l -> acc + List.length l) 0 levels)
        max_size);
  { max_size; levels }

let all r = List.concat (Array.to_list r.levels)

let level r s = if s < 1 || s > r.max_size then [] else r.levels.(s)

let patterns_per_level r = Array.init r.max_size (fun i -> List.length r.levels.(i + 1))

let total_patterns r = Array.fold_left (fun acc l -> acc + List.length l) 0 r.levels
