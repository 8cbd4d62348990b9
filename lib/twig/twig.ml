[@@@ocaml.warning "-30"] (* [key] and [indexed] both carry a [twig] field *)

type t = { label : int; children : t list; mutable memo : memo }

and memo =
  | Unknown
  | Self of key  (** this node is the hash-consed canonical representative *)
  | Canon of t  (** the canonical representative (whose memo is [Self]) *)

and key = {
  id : int;
  enc : string;
  khash : int;
  twig : t;
  ksize : int;
  ix : indexed option Atomic.t;
      (** node-indexed view of [twig], built at most once per distinct
          canonical twig (reps are pinned, so this is a pure value) *)
  splits : split array Atomic.t;
      (** leaf-pair splits, one slot per pair, each built on first use;
          [[||]] until the first is built, [unbuilt] in unbuilt slots *)
}

and split = { t1 : key; t2 : key; cap : key; twin : bool }

and indexed = {
  twig : t;
  node_labels : int array;
  parents : int array;
  kids : int list array;
  subtrees : t array;
}

let leaf label = { label; children = []; memo = Unknown }

let node label children = { label; children; memo = Unknown }

let rec size t = List.fold_left (fun acc c -> acc + size c) 1 t.children

let rec depth t = 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 t.children

let rec width t = List.fold_left (fun acc c -> max acc (width c)) (List.length t.children) t.children

let labels t =
  let rec go acc t = List.fold_left go (t.label :: acc) t.children in
  List.rev (go [] t)

(* --- hash-consed canonical keys ------------------------------------------ *)

(* Every distinct canonical twig is interned once, process-wide, into a
   dense id; the registry also pins one canonical representative twig per
   id.  A node caches the outcome of its own canonicalization in [memo], so
   [encode]/[compare]/[hash]/[is_canonical] are O(1) after first touch.

   The registry is keyed structurally, on [(label, canonical child ids)],
   not on the encoding string: a twig is determined by its label and the
   identities of its (canonically ordered) children, so interning a node
   whose children are already keyed — the common case in [induced]/
   [remove]/[grow], which rebuild only a spine over untouched subtrees —
   probes the table with a handful of ints and allocates no string.  The
   encoding is materialized once per distinct twig, at first intern, and
   cached in the key.

   Domain-safety: the registry is guarded by a mutex, taken only on a memo
   miss.  [memo] itself is written without the lock — concurrent writers
   race only to store equivalent values (the registry hands every domain
   the same key for a given structure), which the OCaml 5 memory model
   resolves safely. *)

module Node_interner = Tl_util.Interner.Make (struct
  type t = int * int array
  (** label, child key ids in canonical (encoding) order *)

  let equal (l1, c1) (l2, c2) = l1 = l2 && c1 = c2

  let hash = Hashtbl.hash
end)

let registry_lock = Mutex.create ()

let registry = Node_interner.create ()

let registry_keys : key array ref = ref [||]

(* [candidate] may serve as the pinned representative when the structure is
   new: its children are already the sorted canonical representatives. *)
let intern_key ~skey ~kid_keys ~label ~candidate =
  Mutex.lock registry_lock;
  let k =
    match Node_interner.find registry skey with
    | Some id -> !registry_keys.(id)
    | None ->
      let id = Node_interner.intern registry skey in
      (* First intern of this structure: materialize the encoding, once. *)
      let enc =
        match kid_keys with
        | [] -> string_of_int label
        | _ ->
          let buf = Buffer.create 32 in
          Buffer.add_string buf (string_of_int label);
          Buffer.add_char buf '(';
          List.iteri
            (fun i kk ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf kk.enc)
            kid_keys;
          Buffer.add_char buf ')';
          Buffer.contents buf
      in
      let rep =
        match candidate with
        | Some rep -> rep
        | None -> { label; children = List.map (fun kk -> kk.twig) kid_keys; memo = Unknown }
      in
      let ksize = List.fold_left (fun acc kk -> acc + kk.ksize) 1 kid_keys in
      let k =
        {
          id;
          enc;
          khash = Hashtbl.hash enc;
          twig = rep;
          ksize;
          ix = Atomic.make None;
          splits = Atomic.make [||];
        }
      in
      rep.memo <- Self k;
      if id >= Array.length !registry_keys then begin
        let bigger = Array.make (max 64 (2 * Array.length !registry_keys)) k in
        Array.blit !registry_keys 0 bigger 0 id;
        registry_keys := bigger
      end;
      !registry_keys.(id) <- k;
      k
  in
  Mutex.unlock registry_lock;
  k

let rec key_of t =
  match t.memo with
  | Self k -> k
  | Canon rep -> ( match rep.memo with Self k -> k | Unknown | Canon _ -> assert false)
  | Unknown ->
    let kid_keys = List.map key_of t.children in
    let kid_keys = List.sort (fun k1 k2 -> String.compare k1.enc k2.enc) kid_keys in
    let skey = (t.label, Array.of_list (List.map (fun kk -> kk.id) kid_keys)) in
    let candidate =
      (* same length by construction: [kid_keys] is a permutation of the
         children's keys *)
      if List.for_all2 ( == ) t.children (List.map (fun kk -> kk.twig) kid_keys) then Some t
      else None
    in
    let k = intern_key ~skey ~kid_keys ~label:t.label ~candidate in
    (match t.memo with
    | Self _ -> () (* [t] became the pinned representative inside the lock *)
    | Unknown | Canon _ -> if k.twig != t then t.memo <- Canon k.twig);
    k

let canonicalize t = (key_of t).twig

let encode t = (key_of t).enc

let is_canonical t = (key_of t).twig == t

let compare a b =
  let ka = key_of a and kb = key_of b in
  if ka.id = kb.id then 0 else String.compare ka.enc kb.enc

let equal a b = (key_of a).id = (key_of b).id

let hash t = (key_of t).khash

let key = key_of

let decode s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = invalid_arg (Printf.sprintf "Twig.decode: %s at offset %d in %S" msg !pos s) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let scan_int () =
    let start = !pos in
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      incr pos
    done;
    if !pos = start then fail "expected a label id";
    int_of_string (String.sub s start (!pos - start))
  in
  let rec scan_node () =
    let label = scan_int () in
    match peek () with
    | Some '(' ->
      incr pos;
      let kids = scan_kids [] in
      (match peek () with
      | Some ')' ->
        incr pos;
        node label (List.rev kids)
      | _ -> fail "expected ')'")
    | _ -> leaf label
  and scan_kids acc =
    let child = scan_node () in
    match peek () with
    | Some ',' ->
      incr pos;
      scan_kids (child :: acc)
    | _ -> child :: acc
  in
  let t = scan_node () in
  if !pos <> n then fail "trailing input";
  t

let rec map_labels f t = node (f t.label) (List.map (map_labels f) t.children)

let rec is_path t =
  match t.children with [] -> true | [ c ] -> is_path c | _ :: _ :: _ -> false

let path_labels t =
  let rec go acc t =
    match t.children with
    | [] -> Some (List.rev (t.label :: acc))
    | [ c ] -> go (t.label :: acc) c
    | _ :: _ :: _ -> None
  in
  go [] t

let of_path = function
  | [] -> invalid_arg "Twig.of_path: empty label list"
  | labels ->
    let rec build = function
      | [] -> assert false
      | [ l ] -> leaf l
      | l :: rest -> node l [ build rest ]
    in
    build labels

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let automorphisms t =
  (* aut(t) = prod_children aut(c) * prod over groups of identical child
     encodings of (multiplicity!). *)
  let rec go t =
    let kids = List.map (fun c -> (encode c, c)) t.children in
    let kids = List.sort (fun (e1, _) (e2, _) -> String.compare e1 e2) kids in
    let child_product = List.fold_left (fun acc c -> acc * go c) 1 t.children in
    let rec group_mults acc run = function
      | [] -> run :: acc
      | (e1, _) :: ((e2, _) :: _ as rest) when String.equal e1 e2 -> group_mults acc (run + 1) rest
      | _ :: rest -> group_mults (run :: acc) 1 rest
    in
    let mults = match kids with [] -> [] | _ -> group_mults [] 1 kids in
    List.fold_left (fun acc m -> acc * factorial m) child_product mults
  in
  go t

let pp ~names t =
  let buf = Buffer.create 64 in
  let rec go t =
    Buffer.add_string buf (names t.label);
    match t.children with
    | [] -> ()
    | kids ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char buf ',';
          go c)
        kids;
      Buffer.add_char buf ')'
  in
  go t;
  Buffer.contents buf

(* --- node-indexed view --------------------------------------------------- *)

(* Built once per distinct canonical twig and cached on its key ([Atomic]
   so a racing second builder publishes an equivalent value safely); every
   later [index] is one atomic load.  Consumers must treat the arrays as
   read-only. *)
let build_index t n =
  let node_labels = Array.make n 0 in
  let parents = Array.make n (-1) in
  let kids = Array.make n [] in
  let subtrees = Array.make n t in
  let next = ref 0 in
  let rec walk parent node =
    let id = !next in
    incr next;
    node_labels.(id) <- node.label;
    parents.(id) <- parent;
    subtrees.(id) <- node;
    if parent >= 0 then kids.(parent) <- kids.(parent) @ [ id ];
    List.iter (walk id) node.children
  in
  walk (-1) t;
  { twig = t; node_labels; parents; kids; subtrees }

let index t =
  let k = key_of t in
  match Atomic.get k.ix with
  | Some ix -> ix
  | None ->
    let ix = build_index k.twig k.ksize in
    Atomic.set k.ix (Some ix);
    ix

let degree_one ix =
  let n = Array.length ix.node_labels in
  let result = ref [] in
  for i = n - 1 downto 0 do
    let nkids = List.length ix.kids.(i) in
    let deg = if ix.parents.(i) < 0 then nkids else nkids + 1 in
    if deg = 1 then result := i :: !result
  done;
  !result

(* Rebuild the twig from the index arrays, excluding a set of nodes and
   optionally re-rooting.  [root] is always included; below it a node
   survives only when [keep] holds for it and its whole ancestor chain up
   to [root].  Fully surviving subtrees are returned as the index's
   original (already canonical, already keyed) nodes, so only the spine of
   removed nodes is re-encoded by the final [canonicalize]. *)
let rebuild ix ~keep ~root =
  let n = Array.length ix.node_labels in
  let eff = Array.make n false in
  for i = 0 to n - 1 do
    eff.(i) <- i = root || (ix.parents.(i) >= 0 && eff.(ix.parents.(i)) && keep i)
  done;
  let kept = Array.make n 0 in
  let total = Array.make n 0 in
  for i = n - 1 downto 0 do
    let k = ref (if eff.(i) then 1 else 0) and s = ref 1 in
    List.iter
      (fun c ->
        k := !k + kept.(c);
        s := !s + total.(c))
      ix.kids.(i);
    kept.(i) <- !k;
    total.(i) <- !s
  done;
  let rec build i =
    if eff.(i) && kept.(i) = total.(i) then ix.subtrees.(i)
    else
      node ix.node_labels.(i)
        (List.filter_map (fun c -> if eff.(c) then Some (build c) else None) ix.kids.(i))
  in
  canonicalize (build root)

let remove ix i =
  let n = Array.length ix.node_labels in
  if n <= 1 then invalid_arg "Twig.remove: cannot remove from a single-node twig";
  if i < 0 || i >= n then invalid_arg "Twig.remove: index out of bounds";
  let nkids = List.length ix.kids.(i) in
  let deg = if ix.parents.(i) < 0 then nkids else nkids + 1 in
  if deg <> 1 then invalid_arg "Twig.remove: node is not degree-1";
  if ix.parents.(i) < 0 then begin
    (* Root with a single child: promote the child. *)
    match ix.kids.(i) with
    | [ c ] -> rebuild ix ~keep:(fun j -> j <> i) ~root:c
    | _ -> assert false
  end
  else rebuild ix ~keep:(fun j -> j <> i) ~root:0

let induced ix nodes =
  (match nodes with [] -> invalid_arg "Twig.induced: empty node set" | _ -> ());
  let n = Array.length ix.node_labels in
  let in_set = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Twig.induced: index out of bounds";
      in_set.(i) <- true)
    nodes;
  let root = List.fold_left min (List.hd nodes) nodes in
  List.iter
    (fun i ->
      if i <> root && (ix.parents.(i) < 0 || not in_set.(ix.parents.(i))) then
        invalid_arg "Twig.induced: node set is not connected")
    nodes;
  rebuild ix ~keep:(fun j -> in_set.(j)) ~root

let grow ix i l =
  let n = Array.length ix.node_labels in
  if i < 0 || i >= n then invalid_arg "Twig.grow: index out of bounds";
  (* Only the ancestor chain of [i] gets a new shape; every subtree hanging
     off it is reused as-is. *)
  let on_spine = Array.make n false in
  let rec mark j =
    if j >= 0 && not on_spine.(j) then begin
      on_spine.(j) <- true;
      mark ix.parents.(j)
    end
  in
  mark i;
  let rec build j =
    if not on_spine.(j) then ix.subtrees.(j)
    else begin
      let children = List.map build ix.kids.(j) in
      let children = if j = i then leaf l :: children else children in
      node ix.node_labels.(j) children
    end
  in
  canonicalize (build 0)

(* --- leaf-pair splits ---------------------------------------------------- *)

(* The recursive decomposition (Fig. 4) splits a twig T on a pair (u, v) of
   degree-1 nodes into T-u, T-v and their common part T-u-v.  A split
   depends only on the canonical twig, so it is cached on the twig's key
   next to [ix]: an array with one slot per pair, in [leaf_pairs] order.
   Each slot is built on first use — a caller that needs only the first
   pair never builds the others — and published by copy-and-CAS, so a
   reader sees either the old array or the new one, and a racing builder
   of the same slot publishes (or adopts) an equivalent value.  Pairs
   build one at a time, as the decomposition reaches them, so the order
   in which sub-twig keys are interned (and hence their ids) does not
   depend on what was cached before. *)

(* Marks an unbuilt slot; compared physically, never returned. *)
let unbuilt =
  let twig = { label = -1; children = []; memo = Unknown } in
  let key =
    {
      id = -1;
      enc = "";
      khash = 0;
      twig;
      ksize = 0;
      ix = Atomic.make None;
      splits = Atomic.make [||];
    }
  in
  { t1 = key; t2 = key; cap = key; twin = false }

(* Unordered pairs of degree-1 nodes: (d0,d1), (d0,d2), ..., (d1,d2), ...
   Twigs below three nodes have no split (T-u-v would be empty). *)
let leaf_pairs ix =
  if Array.length ix.node_labels < 3 then []
  else
    let rec go = function [] -> [] | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest in
    go (degree_one ix)

let build_split ix (u, v) =
  let n = Array.length ix.node_labels in
  let t1 = remove ix u in
  let t2 = remove ix v in
  let cap = induced ix (List.filter (fun i -> i <> u && i <> v) (List.init n Fun.id)) in
  (* Same-labeled siblings grow the same edge type twice, which the
     estimator's Theorem 1 step corrects for. *)
  let twin =
    ix.parents.(u) >= 0 && ix.parents.(u) = ix.parents.(v) && ix.node_labels.(u) = ix.node_labels.(v)
  in
  { t1 = key_of t1; t2 = key_of t2; cap = key_of cap; twin }

let rec publish_split k i npairs s =
  let cur = Atomic.get k.splits in
  if Array.length cur > 0 && cur.(i) != unbuilt then cur.(i)
  else begin
    let next = if Array.length cur = 0 then Array.make npairs unbuilt else Array.copy cur in
    next.(i) <- s;
    if Atomic.compare_and_set k.splits cur next then s else publish_split k i npairs s
  end

let split_slow k i =
  let ix = index k.twig in
  let pairs = leaf_pairs ix in
  let npairs = List.length pairs in
  if i < 0 || i >= npairs then invalid_arg "Twig.Key.split: pair index out of bounds";
  let s = build_split ix (List.nth pairs i) in
  Tl_obs.Metrics.incr "twig.leaf_pairs_built";
  publish_split k i npairs s

module Key = struct
  type twig = t

  type nonrec t = key

  type nonrec split = split = { t1 : t; t2 : t; cap : t; twin : bool }

  let twig k = k.twig

  let id k = k.id

  let encode k = k.enc

  let equal a b = a.id = b.id

  let compare a b = if a.id = b.id then 0 else String.compare a.enc b.enc

  let hash k = k.khash

  let size k = k.ksize

  let interned () =
    Mutex.lock registry_lock;
    let n = Node_interner.size registry in
    Mutex.unlock registry_lock;
    n

  let leaf_pairs k =
    let built = Atomic.get k.splits in
    if Array.length built > 0 then Array.length built
    else List.length (leaf_pairs (index k.twig))

  let split k i =
    let built = Atomic.get k.splits in
    if i >= 0 && i < Array.length built && built.(i) != unbuilt then built.(i) else split_slow k i
end
