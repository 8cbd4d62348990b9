module Data_tree = Tl_tree.Data_tree

(* [hits] collects the matching roots of a [count_over ~keep_roots:true]
   run before they are copied out. *)
type ctx = { tree : Data_tree.t; mutable hits : Data_tree.node array }

let create_ctx tree = { tree; hits = [||] }

let clone_ctx ctx = create_ctx ctx.tree

let tree ctx = ctx.tree

(* The query children of one query node that share label [glabel]: the
   inner loop evaluates one injective-assignment DP per sibling group.
   [leaves] when no member has children of its own. *)
type group = { glabel : int; members : int array; leaves : bool }

(* Each query node's sibling groups, indexed by canonical preorder. *)
let prepare twig =
  let ix = Twig.index twig in
  Array.map
    (fun kids ->
      let by_label = Hashtbl.create 4 in
      List.iter
        (fun c ->
          let l = ix.node_labels.(c) in
          let existing = Option.value ~default:[] (Hashtbl.find_opt by_label l) in
          Hashtbl.replace by_label l (c :: existing))
        kids;
      Hashtbl.fold
        (fun glabel members acc ->
          let members = Array.of_list (List.rev members) in
          { glabel; members; leaves = Array.for_all (fun c -> ix.kids.(c) = []) members } :: acc)
        by_label []
      |> Array.of_list)
    ix.kids

(* [ways.(mask)] is the weighted number of ways to place exactly the
   query children in [mask] injectively among the data children seen so
   far.  Descending mask order: reads of strictly smaller masks see the
   pre-update values, so each data child is used at most once.  Fewer
   data children than members place nobody: 0, before any allocation. *)
let injective_assignments ~members:m subs =
  let rows = Array.length subs / m in
  if rows < m then 0
  else
    let full = (1 lsl m) - 1 in
    let ways = Array.make (full + 1) 0 in
    ways.(0) <- 1;
    for row = 0 to rows - 1 do
      for mask = full downto 1 do
        let acc = ref ways.(mask) in
        for i = 0 to m - 1 do
          if mask land (1 lsl i) <> 0 then begin
            let sub = subs.((row * m) + i) in
            if sub <> 0 then acc := !acc + (ways.(mask lxor (1 lsl i)) * sub)
          end
        done;
        ways.(mask) <- !acc
      done
    done;
    ways.(full)

(* Count matches of query subtree [q] rooted exactly at data node [v],
   top-down: only descendants reachable through label-matching edges are
   ever visited, which is what makes counting patterns with frequent leaf
   labels cheap.  Nothing is memoized: a pair (w, q') is reached only from
   (parent of w, parent of q'), and the depth of [q'] fixes which ancestor
   of [w] is the root, so one {!count_over} reaches each pair at most once.
   The only repeated reads, in a sibling group's mask loop, go to
   sub-counts computed once per data child. *)
let rec node_count tree groups v q =
  let gs = groups.(q) in
  let count = ref 1 and gi = ref 0 in
  while !count <> 0 && !gi < Array.length gs do
    count := !count * group_count tree groups gs.(!gi) v;
    incr gi
  done;
  !count

(* Weighted count of injective assignments of the query children in [g]
   to the [g.glabel]-labeled children of data node [v]: the permanent of
   the (query child, data child) match-count matrix. *)
and group_count tree groups g v =
  let m = Array.length g.members in
  if g.leaves then begin
    (* Every matrix entry is 1: c (c - 1) ... (c - m + 1) placements among
       the c matching children, 0 when c < m (the factor c - c). *)
    let c = Data_tree.count_children_with_label tree v g.glabel in
    let ways = ref 1 in
    for i = 0 to m - 1 do
      ways := !ways * (c - i)
    done;
    !ways
  end
  else if m = 1 then
    Data_tree.fold_children_with_label tree v g.glabel
      (fun acc w -> acc + node_count tree groups w g.members.(0))
      0
  else
    (* Each data child's m sub-counts, computed once: the mask loop below
       reads each of them up to 2^(m-1) times. *)
    let c = Data_tree.count_children_with_label tree v g.glabel in
    if c < m then 0
    else
      let subs = Array.make (c * m) 0 in
      ignore
        (Data_tree.fold_children_with_label tree v g.glabel
           (fun row w ->
             for i = 0 to m - 1 do
               subs.((row * m) + i) <- node_count tree groups w g.members.(i)
             done;
             row + 1)
           0);
      injective_assignments ~members:m subs

let calls = Tl_obs.Metrics.counter ~help:"Exact twig-count evaluations" "match_count.calls"
let selectivities =
  Tl_obs.Metrics.histogram ~help:"Distribution of exact twig counts" "match_count.selectivity"

(* The one counting loop: every entry point is a choice of roots. *)
let count_over ctx twig roots ~keep_roots =
  let twig = Twig.canonicalize twig in
  let groups = prepare twig in
  let tree = ctx.tree in
  let root_label = twig.Twig.label in
  let nroots = Array.length roots in
  if keep_roots && Array.length ctx.hits < nroots then ctx.hits <- Array.make nroots 0;
  let total = ref 0 and nhits = ref 0 in
  for i = 0 to nroots - 1 do
    let v = roots.(i) in
    if Data_tree.label tree v = root_label then begin
      let c = node_count tree groups v 0 in
      if c <> 0 then begin
        total := !total + c;
        if keep_roots then begin
          ctx.hits.(!nhits) <- v;
          incr nhits
        end
      end
    end
  done;
  Tl_obs.Metrics.incr calls;
  Tl_obs.Metrics.observe selectivities !total;
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
