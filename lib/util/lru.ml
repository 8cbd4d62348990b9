(* Intrusive LRU: the hash table owns the nodes, and the recency order is
   a doubly-linked list threaded through them ([head] = most recent,
   [tail] = eviction victim).  Every operation splices O(1) links; nothing
   ever scans the table. *)

module Make (H : Hashtbl.HashedType) = struct
  type key = H.t

  module Table = Hashtbl.Make (H)

  type 'a node = {
    nkey : key;
    mutable value : 'a;
    mutable prev : 'a node option;  (* toward the most-recent end *)
    mutable next : 'a node option;  (* toward the least-recent end *)
    self : 'a node option;
        (* [Some] of this node, made once: a splice then allocates nothing
           and stores no young block into an old node, so a hit costs the
           minor GC nothing *)
  }

  type 'a t = {
    capacity : int;
    table : 'a node Table.t;
    mutable head : 'a node option;
    mutable tail : 'a node option;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
    {
      capacity;
      table = Table.create capacity;
      head = None;
      tail = None;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let capacity t = t.capacity

  let size t = Table.length t.table

  let unlink t node =
    (match node.prev with
    | Some p -> p.next <- node.next
    | None -> t.head <- node.next);
    (match node.next with
    | Some n -> n.prev <- node.prev
    | None -> t.tail <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.prev <- None;
    node.next <- t.head;
    (match t.head with Some h -> h.prev <- node.self | None -> t.tail <- node.self);
    t.head <- node.self

  let touch t node =
    match node.prev with
    | None -> () (* already the head *)
    | Some _ ->
      unlink t node;
      push_front t node

  let find t key =
    match Table.find_opt t.table key with
    | Some node ->
      t.hits <- t.hits + 1;
      touch t node;
      Some node.value
    | None ->
      t.misses <- t.misses + 1;
      None

  let peek t key = Option.map (fun node -> node.value) (Table.find_opt t.table key)

  let mem t key = Table.mem t.table key

  let evict_lru t =
    match t.tail with
    | None -> ()
    | Some victim ->
      unlink t victim;
      Table.remove t.table victim.nkey;
      t.evictions <- t.evictions + 1

  let add t key value =
    match Table.find_opt t.table key with
    | Some node ->
      node.value <- value;
      touch t node
    | None ->
      if Table.length t.table >= t.capacity then evict_lru t;
      let rec node = { nkey = key; value; prev = None; next = None; self = Some node } in
      Table.replace t.table key node;
      push_front t node

  let remove t key =
    match Table.find_opt t.table key with
    | Some node ->
      unlink t node;
      Table.remove t.table key
    | None -> ()

  let clear t =
    Table.reset t.table;
    t.head <- None;
    t.tail <- None

  let fold f t init =
    let rec go acc = function
      | None -> acc
      | Some node -> go (f node.nkey node.value acc) node.next
    in
    go init t.head

  (* Walk the intrusive list both ways and reconcile it with the table.
     Any unsynchronized concurrent mutation that corrupts the splicing —
     lost nodes, dangling back-links, cycles — shows up here as an
     [Error]; the walk is bounded by the table size so a cycle terminates
     instead of hanging the checker. *)
  let validate t =
    let n = Table.length t.table in
    let rec forward seen prev = function
      | None ->
        if seen <> n then
          Error (Printf.sprintf "list holds %d node(s) but table holds %d" seen n)
        else begin
          match (t.tail, prev) with
          | None, None -> Ok ()
          | Some a, Some b when a == b -> Ok ()
          | _ -> Error "tail does not point at the last node"
        end
      | Some node ->
        if seen >= n then Error "recency list is longer than the table (cycle or stray node)"
        else if
          not
            (match (node.prev, prev) with
            | None, None -> true
            | Some p, Some q -> p == q
            | _ -> false)
        then Error (Printf.sprintf "back-link mismatch at position %d" seen)
        else begin
          match Table.find_opt t.table node.nkey with
          | Some owner when owner == node -> forward (seen + 1) (Some node) node.next
          | Some _ -> Error "listed node is not the table's node for its key"
          | None -> Error "listed node's key is missing from the table"
        end
    in
    match forward 0 None t.head with
    | Error _ as e -> e
    | Ok () ->
      if n > t.capacity then
        Error (Printf.sprintf "size %d exceeds capacity %d" n t.capacity)
      else Ok ()

  type stats = { size : int; capacity : int; hits : int; misses : int; evictions : int }

  let stats t =
    {
      size = Table.length t.table;
      capacity = t.capacity;
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
    }
end
