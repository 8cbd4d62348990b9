module Twig = Tl_twig.Twig
module Summary = Tl_lattice.Summary
module Metrics = Tl_obs.Metrics

type scheme =
  | Recursive
  | Recursive_voting
  | Fixed_size
  | Fixed_size_voting of int

let all_schemes = [ Recursive; Recursive_voting; Fixed_size; Fixed_size_voting 8 ]

let scheme_name = function
  | Recursive -> "recursive"
  | Recursive_voting -> "recursive+voting"
  | Fixed_size -> "fixed-size"
  | Fixed_size_voting n -> Printf.sprintf "fixed-size+voting(%d)" n

(* --- estimation probes -------------------------------------------------- *)

(* A probe observes every step the estimator takes without changing a
   single float: lookups (with their outcome), each evaluated
   decomposition pair, the value a decomposed key settles on, and each
   fixed-size cover step.  [Explain] reconstructs the full decomposition
   DAG from these events; estimation with [probe = None] pays only a
   [match] per event site. *)

type lookup_result =
  | Found_extra of float
  | Found_summary of int
  | Assumed_zero
  | Decomposing

type probe = {
  on_lookup : string -> lookup_result -> unit;
  on_pair :
    parent:string ->
    t1:string ->
    t2:string ->
    cap:string ->
    twin:bool ->
    e1:float ->
    e2:float ->
    ec:float ->
    value:float ->
    unit;
  on_value : string -> float -> unit;
  on_cover_step :
    block:string -> overlap:string option -> twins:int -> num:float -> den:float -> acc:float -> unit;
}

(* --- fixed-size decomposition (Fig. 5) --------------------------------- *)

(* Build one cover of [twig]'s nodes by k-subtrees.  [choose] picks among
   the eligible fill nodes when the ancestor chain of the newly covered node
   is shorter than k-1 (deterministic: smallest preorder index).

   Each non-first step also records its injectivity debt [twins]: the number
   of already-covered nodes outside the overlap that share the new node's
   (parent, label) edge.  The chain-rule ratio sigma(B)/sigma(I) estimates
   the expected number of such children {e given} the overlap context, but
   [twins] of them are already consumed by earlier steps and cannot host the
   new node injectively, so the estimator subtracts them (the fixed-size
   analogue of the recursive scheme's twin-edge correction). *)
let cover_with ~choose (ix : Twig.indexed) ~k =
  let n = Array.length ix.node_labels in
  assert (n > k);
  let prefix = List.init k (fun i -> i) in
  let first = (Twig.induced ix prefix, None, 0) in
  let rest = ref [] in
  for i = k to n - 1 do
    let in_overlap = Array.make n false in
    let overlap_size = ref 0 in
    let add j =
      if not in_overlap.(j) then begin
        in_overlap.(j) <- true;
        incr overlap_size
      end
    in
    (* Ancestor chain of i first: everything before i in preorder is already
       covered, so any node < i is fair game. *)
    let rec climb j = if j >= 0 && !overlap_size < k - 1 then begin add j; climb ix.parents.(j) end in
    climb ix.parents.(i);
    (* Fill with covered nodes adjacent to the overlap. *)
    while !overlap_size < k - 1 do
      let eligible = ref [] in
      for j = i - 1 downto 0 do
        if (not in_overlap.(j)) && ix.parents.(j) >= 0 && in_overlap.(ix.parents.(j)) then
          eligible := j :: !eligible
      done;
      match !eligible with
      | [] ->
        (* Cannot happen: the covered prefix {0..i-1} is connected and has
           at least k-1 > overlap nodes. *)
        invalid_arg "Estimator.cover: internal cover construction failure"
      | candidates -> add (choose candidates)
    done;
    let overlap_nodes = List.filter (fun j -> in_overlap.(j)) (List.init n (fun j -> j)) in
    let twins = ref 0 in
    for j = 0 to i - 1 do
      if
        (not in_overlap.(j))
        && ix.parents.(j) = ix.parents.(i)
        && ix.node_labels.(j) = ix.node_labels.(i)
      then incr twins
    done;
    let block = Twig.induced ix (i :: overlap_nodes) in
    let overlap = Twig.induced ix overlap_nodes in
    rest := (block, Some overlap, !twins) :: !rest
  done;
  first :: List.rev !rest

let cover twig ~k =
  let twig = Twig.canonicalize twig in
  if Twig.size twig <= k then invalid_arg "Estimator.cover: twig not larger than k";
  List.map (fun (b, o, _) -> (b, o)) (cover_with ~choose:List.hd (Twig.index twig) ~k)

(* --- compiled plans ----------------------------------------------------- *)

(* A plan is one query's decomposition with everything that does not
   depend on the [?extra] feedback source hoisted to compile time:
   canonicalization, sub-twig enumeration ([remove]/[induced] spine
   rebuilds), summary lookups, the zero rules, twin-edge detection, and —
   for the fixed-size schemes — the whole cover construction including the
   rng draws.  What remains at eval time is a lazy sweep over int-indexed
   slots.  [estimate] is compile-then-eval, so this is the only evaluator.

   The recursive schemes take each decomposed key's leaf-pair splits from
   the key itself ([Twig.Key.split]): a split's [remove]/[induced]
   rebuilds run, and its sub-twigs are interned, only the first time the
   process decomposes that twig.  A compile over known sub-twigs thus
   takes no lock and rebuilds nothing.  Splits depend on the twig alone,
   not on the summary, so they live with the keys, process-wide, and
   survive reloads.  Compiling every serve-churn pool query over the four
   20k-element documents interns 38k keys (27 MB of live heap, with their
   index views) and builds 285k splits on them (15 MB more).  Plans, by
   contrast, belong to a summary and are cached per bundle, in one LRU
   ([Plan_cache]) that dies with the bundle. *)
module Plan = struct
  type pair = { s1 : int; s2 : int; scap : int; twin : bool }

  (* What a slot's lookup resolved to against the (immutable) summary.
     [Decompose] children always have smaller slot indices, so the slots
     array is topologically ordered children-first. *)
  type resolution = Stored of int | Zero | Decompose of pair array

  type slot = { skey : Twig.Key.t; res : resolution }

  type step = { block : int; overlap : int (* -1 = first block *); twins : int }

  type program =
    | Slot_value of int  (* recursive schemes, and small fixed-size roots *)
    | Cover of step array array  (* one array per (sampled) cover *)

  type t = {
    pscheme : scheme;
    root : Twig.Key.t;
    sstamp : int;  (* Summary.stamp of the summary compiled against *)
    slots : slot array;
    prog : program;
    const_result : float;  (* eval with no extra source: fully determined *)
  }

  let scheme t = t.pscheme

  let summary_stamp t = t.sstamp

  let root_key t = t.root

  let slot_count t = Array.length t.slots

  (* Theorem 1 on one leaf pair whose two sides are nonzero.  Theorem 1
     assumes the two grown edges are distinct.  When u and u' are
     same-labeled siblings (a [twin] split) they are the SAME edge type,
     and matches must place them injectively: a T-intersection match with
     i candidate children yields i*(i-1) ordered pairs, not i^2, so the
     estimate gets an injectivity correction of -E[i] per match:
     sigma(T) ~ sigma(T1)^2/sigma(Tcap) - sigma(T1). *)
  let[@inline] theorem1 ~twin e1 e2 ec =
    if ec <= 0.0 then 0.0
    else if twin then Float.max 0.0 ((e1 *. e2 /. ec) -. e1)
    else e1 *. e2 /. ec

  let eval_with plan ~extra ~probe =
    let slots = plan.slots in
    let n = Array.length slots in
    let values = Array.make n 0.0 in
    let computed = Bytes.make n '\000' in
    let rec get i =
      if Bytes.unsafe_get computed i = '\001' then Array.unsafe_get values i
      else begin
        let v = compute (Array.unsafe_get slots i) in
        Bytes.unsafe_set computed i '\001';
        Array.unsafe_set values i v;
        v
      end
    and compute s =
      let key = s.skey in
      match (extra key : float option) with
      | Some known ->
        (match probe with
        | None -> ()
        | Some p -> p.on_lookup (Twig.Key.encode key) (Found_extra known));
        known
      | None -> (
        match s.res with
        | Stored c ->
          (match probe with
          | None -> ()
          | Some p -> p.on_lookup (Twig.Key.encode key) (Found_summary c));
          float_of_int c
        | Zero ->
          (match probe with
          | None -> ()
          | Some p -> p.on_lookup (Twig.Key.encode key) Assumed_zero);
          0.0
        | Decompose pairs ->
          (match probe with
          | None -> ()
          | Some p -> p.on_lookup (Twig.Key.encode key) Decomposing);
          let np = Array.length pairs in
          (* Unreachable: any twig of size >= 2 has two degree-1 nodes. *)
          if np = 0 then 0.0
          else begin
            let total = ref 0.0 in
            for pi = 0 to np - 1 do
              total := !total +. pair_value key pairs.(pi)
            done;
            let v = !total /. float_of_int np in
            (match probe with None -> () | Some p -> p.on_value (Twig.Key.encode key) v);
            v
          end)
    and pair_value key pr =
      let finish ~e1 ~e2 ~ec value =
        (match probe with
        | None -> ()
        | Some p ->
          p.on_pair ~parent:(Twig.Key.encode key)
            ~t1:(Twig.Key.encode slots.(pr.s1).skey)
            ~t2:(Twig.Key.encode slots.(pr.s2).skey)
            ~cap:(Twig.Key.encode slots.(pr.scap).skey)
            ~twin:pr.twin ~e1 ~e2 ~ec ~value);
        value
      in
      let e1 = get pr.s1 in
      if e1 = 0.0 then finish ~e1 ~e2:Float.nan ~ec:Float.nan 0.0
      else begin
        let e2 = get pr.s2 in
        if e2 = 0.0 then finish ~e1 ~e2 ~ec:Float.nan 0.0
        else begin
          let ec = get pr.scap in
          finish ~e1 ~e2 ~ec (theorem1 ~twin:pr.twin e1 e2 ec)
        end
      end
    in
    let cstep ~block ~overlap ~twins ~num ~den ~acc =
      match probe with
      | None -> ()
      | Some p ->
        p.on_cover_step
          ~block:(Twig.Key.encode slots.(block).skey)
          ~overlap:(if overlap < 0 then None else Some (Twig.Key.encode slots.(overlap).skey))
          ~twins ~num ~den ~acc
    in
    let eval_cover steps =
      let nsteps = Array.length steps in
      let rec go acc i =
        if i >= nsteps then acc
        else if acc = 0.0 then 0.0
        else begin
          let st = steps.(i) in
          let num = get st.block in
          if num = 0.0 then begin
            cstep ~block:st.block ~overlap:st.overlap ~twins:st.twins ~num ~den:Float.nan
              ~acc:0.0;
            0.0
          end
          else if st.overlap < 0 then begin
            cstep ~block:st.block ~overlap:st.overlap ~twins:st.twins ~num ~den:Float.nan
              ~acc:(acc *. num);
            go (acc *. num) (i + 1)
          end
          else begin
            let den = get st.overlap in
            if den <= 0.0 then begin
              cstep ~block:st.block ~overlap:st.overlap ~twins:st.twins ~num ~den ~acc:0.0;
              0.0
            end
            else begin
              let multiplier = (num /. den) -. float_of_int st.twins in
              if multiplier <= 0.0 then begin
                cstep ~block:st.block ~overlap:st.overlap ~twins:st.twins ~num ~den ~acc:0.0;
                0.0
              end
              else begin
                cstep ~block:st.block ~overlap:st.overlap ~twins:st.twins ~num ~den
                  ~acc:(acc *. multiplier);
                go (acc *. multiplier) (i + 1)
              end
            end
          end
        end
      in
      go 1.0 0
    in
    match plan.prog with
    | Slot_value i -> get i
    | Cover covers ->
      let nc = Array.length covers in
      if nc = 1 && plan.pscheme = Fixed_size then eval_cover covers.(0)
      else begin
        (* Averaged unconditionally: [x /. 1.0 = x] exactly, so a 1-sample
           voting cover equals the plain cover's value. *)
        let total = ref 0.0 in
        for i = 0 to nc - 1 do
          total := !total +. eval_cover covers.(i)
        done;
        !total /. float_of_int nc
      end

  let no_extra _ = None

  (* A [Recursive_voting] compile visits every leaf-pair split of every
     sub-twig: about 2^l slots for a star of l leaves (247 at 8 leaves,
     8,178 at 13).  Past this many slots it stops, drops what it built and
     compiles [Recursive] instead, so one short query cannot hold a worker
     for seconds. *)
  let voting_slot_budget = 4096

  exception Over_budget

  let compile summary sch twig =
    Metrics.incr "plan.compiles";
    let twig = Twig.canonicalize twig in
    let root_key = Twig.key twig in
    let complete = Summary.is_complete summary in
    let k = Summary.k summary in
    let index_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let rev_slots = ref [] in
    let n_slots = ref 0 in
    let push skey res =
      let idx = !n_slots in
      Hashtbl.replace index_of (Twig.Key.id skey) idx;
      rev_slots := { skey; res } :: !rev_slots;
      incr n_slots;
      idx
    in
    (* Recursive decomposition (Fig. 4): a stored count, a true zero, or
       the leaf pairs to decompose on (the first pair only unless voting).
       Children are pushed before their parent, giving the topological slot
       order [eval_with] needs. *)
    let rec comp_rec ~voting key =
      match Hashtbl.find_opt index_of (Twig.Key.id key) with
      | Some idx -> idx
      | None when voting && !n_slots >= voting_slot_budget -> raise_notrace Over_budget
      | None -> (
        match Summary.find_key summary key with
        | Some count -> push key (Stored count)
        | None ->
          let n = Twig.Key.size key in
          (* Levels 1 and 2 are complete in every summary (pruning keeps
             them), so a miss there is a true zero; likewise any level
             <= k of a complete summary. *)
          if n <= 2 || (complete && n <= k) then push key Zero
          else begin
            let npairs = if voting then Twig.Key.leaf_pairs key else 1 in
            let compiled =
              Array.init npairs (fun i ->
                  let sp = Twig.Key.split key i in
                  let s1 = comp_rec ~voting sp.t1 in
                  let s2 = comp_rec ~voting sp.t2 in
                  let scap = comp_rec ~voting sp.cap in
                  { s1; s2; scap; twin = sp.twin })
            in
            push key (Decompose compiled)
          end)
    in
    (* A fixed-size block or overlap: stored, or a true zero under a
       complete summary, or the recursive fallback a pruned summary needs
       to stay lossless (Lemma 5). *)
    let comp_small key =
      match Hashtbl.find_opt index_of (Twig.Key.id key) with
      | Some idx -> idx
      | None -> (
        match Summary.find_key summary key with
        | Some count -> push key (Stored count)
        | None -> if complete then push key Zero else comp_rec ~voting:false key)
    in
    let prog =
      match sch with
      | Recursive -> Slot_value (comp_rec ~voting:false root_key)
      | Recursive_voting -> (
        try Slot_value (comp_rec ~voting:true root_key)
        with Over_budget ->
          Hashtbl.reset index_of;
          rev_slots := [];
          n_slots := 0;
          Slot_value (comp_rec ~voting:false root_key))
      | Fixed_size | Fixed_size_voting _ ->
        if Twig.Key.size root_key <= k then Slot_value (comp_small root_key)
        else begin
          let ix = Twig.index twig in
          let compile_cover choose =
            cover_with ~choose ix ~k
            |> List.map (fun (block, overlap, twins) ->
                   let block = comp_small (Twig.key block) in
                   let overlap =
                     match overlap with None -> -1 | Some o -> comp_small (Twig.key o)
                   in
                   { block; overlap; twins })
            |> Array.of_list
          in
          match sch with
          | Fixed_size -> Cover [| compile_cover List.hd |]
          | Fixed_size_voting samples ->
            let count = max 1 samples in
            (* Seeded from the query, so the sampled covers (and hence the
               estimate) are reproducible. *)
            let rng = Tl_util.Xorshift.create (Twig.hash twig) in
            let choose candidates =
              List.nth candidates (Tl_util.Xorshift.int rng (List.length candidates))
            in
            let covers = Array.make count [||] in
            for i = 0 to count - 1 do
              covers.(i) <- compile_cover choose
            done;
            Cover covers
          | Recursive | Recursive_voting -> assert false
        end
    in
    let slots = Array.of_list (List.rev !rev_slots) in
    let plan =
      { pscheme = sch; root = root_key; sstamp = Summary.stamp summary; slots; prog; const_result = 0.0 }
    in
    { plan with const_result = eval_with plan ~extra:no_extra ~probe:None }

  let eval ?extra ?probe plan =
    match (extra, probe) with
    | None, None -> plan.const_result
    | _ ->
      let extra = match extra with Some f -> f | None -> no_extra in
      eval_with plan ~extra ~probe

  let eval_flagged ?extra plan =
    match extra with
    | None -> (plan.const_result, false)
    | Some f ->
      (* Wrap the source so the flag observes exactly the lookups [eval]
         makes — the audit log's feedback-hit bit must agree with the
         [estimator.extra_hits] counter semantics. *)
      let hit = ref false in
      let flagged key =
        match f key with
        | Some _ as answer ->
          hit := true;
          answer
        | None -> None
      in
      let v = eval_with plan ~extra:flagged ~probe:None in
      (v, !hit)

  (* The top-level votes of a [Recursive_voting] plan: one value per root
     leaf pair, its sides resolved by [side] rather than by the plan's own
     (voting) slots.  A root that [extra] answers, or that resolved without
     decomposing, casts a single vote. *)
  let top_votes ~extra ~side plan =
    match extra plan.root with
    | Some known -> [ known ]
    | None -> (
      match plan.prog with
      | Cover _ -> invalid_arg "Estimator.Plan.top_votes: not a recursive plan"
      | Slot_value root -> (
        match plan.slots.(root).res with
        | Stored count -> [ float_of_int count ]
        | Zero -> [ 0.0 ]
        | Decompose pairs ->
          let side i = side plan.slots.(i).skey in
          List.map
            (fun pr ->
              let e1 = side pr.s1 in
              if e1 = 0.0 then 0.0
              else begin
                let e2 = side pr.s2 in
                if e2 = 0.0 then 0.0 else theorem1 ~twin:pr.twin e1 e2 (side pr.scap)
              end)
            (Array.to_list pairs)))
end

(* --- estimation ---------------------------------------------------------- *)

(* The [estimator.*] counters tally each evaluated plan's resolved slots
   once, and the feedback source's answers, outside [Plan.eval]: serving
   from cached plans pays nothing for them. *)
let count_slots (plan : Plan.t) =
  let stored = ref 0 and zeros = ref 0 and decomposed = ref 0 in
  Array.iter
    (fun (s : Plan.slot) ->
      match s.res with
      | Stored _ -> incr stored
      | Zero -> incr zeros
      | Decompose _ -> incr decomposed)
    plan.slots;
  let add name n = if n > 0 then Metrics.add name n in
  add "estimator.lookups" (Array.length plan.slots);
  add "estimator.summary_hits" !stored;
  add "estimator.true_zeros" !zeros;
  add "estimator.decompositions" !decomposed

let eval_counted ?extra ?probe plan =
  count_slots plan;
  let hits = ref 0 in
  let extra =
    Option.map (fun f key -> match f key with Some _ as known -> incr hits; known | None -> None) extra
  in
  let v = Plan.eval ?extra ?probe plan in
  if !hits > 0 then Metrics.add "estimator.extra_hits" !hits;
  v

let estimate ?extra ?probe summary scheme twig =
  eval_counted ?extra ?probe (Plan.compile summary scheme twig)

(* Each vote resolves its sides with the deterministic scheme, isolating
   the effect of the top-level pair choice; [extra] wins at the top level
   and inside every side, as in [estimate]. *)
let votes ?extra summary plan =
  Plan.top_votes plan
    ~extra:(Option.value extra ~default:Plan.no_extra)
    ~side:(fun key -> estimate ?extra summary Recursive (Twig.Key.twig key))

let first_level_votes ?extra summary twig =
  votes ?extra summary (Plan.compile summary Recursive_voting twig)

type interval = { low : float; best : float; high : float }

let estimate_interval ?extra summary twig =
  let plan = Plan.compile summary Recursive_voting twig in
  let votes = Array.of_list (votes ?extra summary plan) in
  let best = eval_counted ?extra plan in
  if Array.length votes = 0 then { low = best; best; high = best }
  else
    {
      (* Votes resolve sub-estimates deterministically while [best] votes at
         every level, so [best] can land slightly outside the raw vote
         spread; the interval always contains it. *)
      low = Float.min best (Tl_util.Stats.minimum votes);
      best;
      high = Float.max best (Tl_util.Stats.maximum votes);
    }
