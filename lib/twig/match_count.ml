module Data_tree = Tl_tree.Data_tree

(* The DP buffer [dp] and its validity stamps [stamp] are reused across
   runs; [generation] invalidates everything in O(1).  Both are sized
   n * qn for the current query.  [hits] collects the matching roots of a
   [count_over ~keep_roots:true] run before they are copied out. *)
type ctx = {
  tree : Data_tree.t;
  mutable dp : int array;
  mutable stamp : int array;
  mutable generation : int;
  mutable hits : Data_tree.node array;
}

let create_ctx tree = { tree; dp = [||]; stamp = [||]; generation = 0; hits = [||] }

let clone_ctx ctx = create_ctx ctx.tree

let tree ctx = ctx.tree

(* Per-query-node preprocessed structure: children grouped by label so the
   inner loop evaluates one injective-assignment DP per sibling group. *)
type qnode = { qlabel : int; groups : (int * int array) array }

let prepare twig =
  let ix = Twig.index twig in
  let n = Array.length ix.node_labels in
  Array.init n (fun q ->
      let by_label = Hashtbl.create 4 in
      List.iter
        (fun c ->
          let l = ix.node_labels.(c) in
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_label l) in
          Hashtbl.replace by_label l (c :: existing))
        ix.kids.(q);
      let groups =
        Hashtbl.fold (fun l members acc -> (l, Array.of_list (List.rev members)) :: acc) by_label []
      in
      { qlabel = ix.node_labels.(q); groups = Array.of_list groups })

(* Count matches of query subtree [q] rooted exactly at data node [v],
   top-down with memoization: only descendants reachable through
   label-matching edges are ever visited, which is what makes counting
   patterns with frequent leaf labels cheap. *)
let rec node_count ctx qnodes qn v q =
  let key = (v * qn) + q in
  if ctx.stamp.(key) = ctx.generation then ctx.dp.(key)
  else begin
    let { groups; _ } = qnodes.(q) in
    let count = ref 1 in
    let ngroups = Array.length groups in
    let gi = ref 0 in
    while !count <> 0 && !gi < ngroups do
      let group_label, group = groups.(!gi) in
      count := !count * group_count ctx qnodes qn group_label group v;
      incr gi
    done;
    ctx.stamp.(key) <- ctx.generation;
    ctx.dp.(key) <- !count;
    !count
  end

(* Weighted count of injective assignments of the query children in [group]
   to the [group_label]-labeled children of data node [v]: the permanent of
   the (query child, data child) match-count matrix.  [ways.(mask)] is the
   weighted number of ways to place exactly the query children in [mask]
   injectively among the data children seen so far. *)
and group_count ctx qnodes qn group_label group v =
  let m = Array.length group in
  if m = 1 then
    Data_tree.fold_children_with_label ctx.tree v group_label
      (fun acc w -> acc + node_count ctx qnodes qn w group.(0))
      0
  else begin
    let full = (1 lsl m) - 1 in
    let ways = Array.make (full + 1) 0 in
    ways.(0) <- 1;
    Data_tree.fold_children_with_label ctx.tree v group_label
      (fun () w ->
        (* Descending mask order: reads of strictly smaller masks see the
           pre-update values, so each data child is used at most once. *)
        for mask = full downto 1 do
          let acc = ref ways.(mask) in
          for i = 0 to m - 1 do
            if mask land (1 lsl i) <> 0 then begin
              let sub = node_count ctx qnodes qn w group.(i) in
              if sub <> 0 then acc := !acc + (ways.(mask lxor (1 lsl i)) * sub)
            end
          done;
          ways.(mask) <- !acc
        done)
      ();
    ways.(full)
  end

let start_run ctx twig =
  let qnodes = prepare twig in
  let qn = Array.length qnodes in
  let needed = Data_tree.size ctx.tree * qn in
  if Array.length ctx.dp < needed then begin
    ctx.dp <- Array.make needed 0;
    ctx.stamp <- Array.make needed (-1)
  end;
  ctx.generation <- ctx.generation + 1;
  (qnodes, qn)

(* The one counting loop: every entry point is a choice of roots. *)
let count_over ctx twig roots ~keep_roots =
  let twig = Twig.canonicalize twig in
  let qnodes, qn = start_run ctx twig in
  let root_label = twig.Twig.label in
  let nroots = Array.length roots in
  if keep_roots && Array.length ctx.hits < nroots then ctx.hits <- Array.make nroots 0;
  let total = ref 0 and nhits = ref 0 in
  for i = 0 to nroots - 1 do
    let v = roots.(i) in
    if Data_tree.label ctx.tree v = root_label then begin
      let c = node_count ctx qnodes qn v 0 in
      if c <> 0 then begin
        total := !total + c;
        if keep_roots then begin
          ctx.hits.(!nhits) <- v;
          incr nhits
        end
      end
    end
  done;
  (* Domain-sharded, so safe (and still deterministic in aggregate) when
     counting fans out across a pool. *)
  Tl_obs.Metrics.incr "match_count.calls";
  Tl_obs.Metrics.observe "match_count.selectivity" !total;
  let kept =
    if not keep_roots then [||]
    else if !nhits = nroots then roots (* shared, not copied: root lists are read-only *)
    else Array.sub ctx.hits 0 !nhits
  in
  (!total, kept)

let selectivity ctx twig =
  fst (count_over ctx twig (Data_tree.nodes_with_label ctx.tree twig.Twig.label) ~keep_roots:false)

let selectivity_rooted ctx twig v = fst (count_over ctx twig [| v |] ~keep_roots:false)

let count tree twig = selectivity (create_ctx tree) twig
