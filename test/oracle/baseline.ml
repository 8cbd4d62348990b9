(* A faithful re-implementation of the seed's string-keyed estimation path,
   over a private twig copy type so nothing here benefits from the
   hash-consing in {!Tl_twig.Twig}.  Every canonicalization re-encodes,
   every memo and summary lookup hashes a string — exactly the costs the
   interned-key path removes.  Kept verbatim-equivalent so the qcheck
   differential suite can assert the new path is bit-identical, and so the
   bench speedup is measured against the real before, not a strawman. *)

type twig = { label : int; children : twig list }

let rec of_twig (t : Tl_twig.Twig.t) = { label = t.label; children = List.map of_twig t.children }

let rec size t = List.fold_left (fun acc c -> acc + size c) 1 t.children

let rec canon t =
  let kids = List.map canon t.children in
  let kids = List.sort (fun (_, e1) (_, e2) -> String.compare e1 e2) kids in
  let enc =
    match kids with
    | [] -> string_of_int t.label
    | _ ->
      let inner = String.concat "," (List.map snd kids) in
      string_of_int t.label ^ "(" ^ inner ^ ")"
  in
  ({ label = t.label; children = List.map fst kids }, enc)

let canonicalize t = fst (canon t)

let encode t = snd (canon t)

let hash t = Hashtbl.hash (encode t)

(* --- node-indexed view (seed copy) --------------------------------------- *)

type indexed = { node_labels : int array; parents : int array; kids : int list array }

let index t =
  let t = canonicalize t in
  let n = size t in
  let node_labels = Array.make n 0 in
  let parents = Array.make n (-1) in
  let kids = Array.make n [] in
  let next = ref 0 in
  let rec walk parent node =
    let id = !next in
    incr next;
    node_labels.(id) <- node.label;
    parents.(id) <- parent;
    if parent >= 0 then kids.(parent) <- kids.(parent) @ [ id ];
    List.iter (walk id) node.children
  in
  walk (-1) t;
  { node_labels; parents; kids }

let degree_one ix =
  let n = Array.length ix.node_labels in
  let result = ref [] in
  for i = n - 1 downto 0 do
    let nkids = List.length ix.kids.(i) in
    let deg = if ix.parents.(i) < 0 then nkids else nkids + 1 in
    if deg = 1 then result := i :: !result
  done;
  !result

let rebuild ix ~keep ~root =
  let rec build i =
    let children = List.filter_map (fun c -> if keep c then Some (build c) else None) ix.kids.(i) in
    { label = ix.node_labels.(i); children }
  in
  canonicalize (build root)

let induced ix nodes =
  (match nodes with [] -> invalid_arg "Baseline.induced: empty node set" | _ -> ());
  let n = Array.length ix.node_labels in
  let in_set = Array.make n false in
  List.iter (fun i -> in_set.(i) <- true) nodes;
  let root = List.fold_left min (List.hd nodes) nodes in
  rebuild ix ~keep:(fun j -> in_set.(j)) ~root

(* --- summary as a plain string table ------------------------------------- *)

type t = { k : int; complete : bool; table : (string, int) Hashtbl.t }

let of_summary summary =
  let table = Hashtbl.create (max 64 (Tl_lattice.Summary.entries summary)) in
  Tl_lattice.Summary.fold
    (fun twig count () -> Hashtbl.replace table (Tl_twig.Twig.encode twig) count)
    summary ();
  { k = Tl_lattice.Summary.k summary; complete = Tl_lattice.Summary.is_complete summary; table }

(* --- the seed estimators, string-keyed throughout ------------------------ *)

let unordered_pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs

let nodes_except (ix : indexed) dropped =
  let n = Array.length ix.node_labels in
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (if List.mem i dropped then acc else i :: acc)
  in
  collect (n - 1) []

let recursive_estimate ?(extra = fun _ -> None) ~voting t twig =
  let memo : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let rec est twig =
    let key = encode twig in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v = compute twig key in
      Hashtbl.replace memo key v;
      v
  and compute twig key =
    match (extra key : float option) with
    | Some known -> known
    | None ->
    match Hashtbl.find_opt t.table key with
    | Some count -> float_of_int count
    | None ->
      let n = size twig in
      if n <= 2 || (t.complete && n <= t.k) then 0.0
      else begin
        let ix = index twig in
        let removable = degree_one ix in
        let pairs = unordered_pairs removable in
        let pairs =
          match (voting, pairs) with
          | true, _ | _, [] -> pairs
          | false, first :: _ -> [ first ]
        in
        let value_of (u, u') =
          let t1 = induced ix (nodes_except ix [ u ]) in
          let t2 = induced ix (nodes_except ix [ u' ]) in
          let twin_edges =
            ix.parents.(u) >= 0
            && ix.parents.(u) = ix.parents.(u')
            && ix.node_labels.(u) = ix.node_labels.(u')
          in
          let e1 = est t1 in
          if e1 = 0.0 then 0.0
          else begin
            let e2 = est t2 in
            if e2 = 0.0 then 0.0
            else begin
              let cap = induced ix (nodes_except ix [ u; u' ]) in
              let ec = est cap in
              if ec <= 0.0 then 0.0
              else if twin_edges then Float.max 0.0 ((e1 *. e2 /. ec) -. e1)
              else e1 *. e2 /. ec
            end
          end
        in
        match pairs with
        | [] -> 0.0
        | _ ->
          let total = List.fold_left (fun acc pair -> acc +. value_of pair) 0.0 pairs in
          total /. float_of_int (List.length pairs)
      end
  in
  est twig

let cover_with ~choose (ix : indexed) ~k =
  let n = Array.length ix.node_labels in
  assert (n > k);
  let prefix = List.init k (fun i -> i) in
  let first = (induced ix prefix, None, 0) in
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
    let rec climb j = if j >= 0 && !overlap_size < k - 1 then begin add j; climb ix.parents.(j) end in
    climb ix.parents.(i);
    while !overlap_size < k - 1 do
      let eligible = ref [] in
      for j = i - 1 downto 0 do
        if (not in_overlap.(j)) && ix.parents.(j) >= 0 && in_overlap.(ix.parents.(j)) then
          eligible := j :: !eligible
      done;
      match !eligible with
      | [] -> invalid_arg "Baseline.cover: internal cover construction failure"
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
    let block = induced ix (i :: overlap_nodes) in
    let overlap = induced ix overlap_nodes in
    rest := (block, Some overlap, !twins) :: !rest
  done;
  first :: List.rev !rest

let small_estimate ?(extra = fun _ -> None) t twig =
  let key = encode twig in
  match extra key with
  | Some known -> known
  | None -> (
    match Hashtbl.find_opt t.table key with
    | Some c -> float_of_int c
    | None -> if t.complete then 0.0 else recursive_estimate ~extra ~voting:false t twig)

let estimate_of_cover ?extra t blocks =
  let rec go acc = function
    | [] -> acc
    | (block, overlap, twins) :: rest ->
      if acc = 0.0 then 0.0
      else begin
        let num = small_estimate ?extra t block in
        if num = 0.0 then 0.0
        else begin
          match overlap with
          | None -> go (acc *. num) rest
          | Some i ->
            let den = small_estimate ?extra t i in
            if den <= 0.0 then 0.0
            else begin
              let multiplier = (num /. den) -. float_of_int twins in
              if multiplier <= 0.0 then 0.0 else go (acc *. multiplier) rest
            end
        end
      end
  in
  go 1.0 blocks

let fixed_size_estimate ?extra ?samples t twig =
  let twig = canonicalize twig in
  if size twig <= t.k then small_estimate ?extra t twig
  else begin
    let ix = index twig in
    match samples with
    | None -> estimate_of_cover ?extra t (cover_with ~choose:List.hd ix ~k:t.k)
    | Some count ->
      let count = max 1 count in
      let rng = Tl_util.Xorshift.create (hash twig) in
      let one () =
        let choose candidates = List.nth candidates (Tl_util.Xorshift.int rng (List.length candidates)) in
        estimate_of_cover ?extra t (cover_with ~choose ix ~k:t.k)
      in
      let total = ref 0.0 in
      for _ = 1 to count do
        total := !total +. one ()
      done;
      !total /. float_of_int count
  end

let estimate ?extra t scheme query =
  let twig = canonicalize (of_twig query) in
  match (scheme : Tl_core.Estimator.scheme) with
  | Recursive -> recursive_estimate ?extra ~voting:false t twig
  | Recursive_voting -> recursive_estimate ?extra ~voting:true t twig
  | Fixed_size -> fixed_size_estimate ?extra t twig
  | Fixed_size_voting samples -> fixed_size_estimate ?extra ~samples t twig
