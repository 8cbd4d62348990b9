type t = { twig : Twig.t; anchored : bool; unknown : string list }

(* [fresh] lists the unknown tags met so far in order of first appearance;
   a query names a handful of tags, so a list is enough. *)
let resolve ~size ~find fresh tag =
  match find tag with
  | Some l -> l
  | None ->
    let rec index i = function
      | [] ->
        fresh := !fresh @ [ tag ];
        size + i
      | known :: rest -> if String.equal known tag then size + i else index (i + 1) rest
    in
    index 0 !fresh

let resolver ~size ~find = resolve ~size ~find (ref [])

let max_nodes = 64

let rec count_nodes n = function
  | [] -> n
  | (ast : Twig_parse.ast) :: rest -> count_nodes (n + 1) (List.rev_append ast.kids rest)

(* Tags are resolved, and the twig canonicalized, only once a syntax has
   accepted the text and its size is known to be within [max_nodes]:
   canonical keys hold every subtree's encoding, so a path of depth d
   would cost O(d^2) memory to key. *)
let parse ~size ~find text =
  let as_twig () =
    match Twig_parse.parse text with
    | ast -> Ok (ast, false)
    | exception Twig_parse.Syntax_error (off, msg) ->
      Error (Printf.sprintf "syntax error at offset %d: %s" off msg)
  in
  let as_xpath () = Result.map (fun (xp : Xpath.t) -> (xp.ast, xp.anchored)) (Xpath.parse text) in
  let first, second =
    if String.length text > 0 && text.[0] = '/' then (as_xpath, as_twig) else (as_twig, as_xpath)
  in
  let parsed =
    match first () with Ok _ as ok -> ok | Error msg -> Result.map_error (fun _ -> msg) (second ())
  in
  Result.bind parsed (fun (ast, anchored) ->
      let nodes = count_nodes 0 [ ast ] in
      if nodes > max_nodes then
        Error (Printf.sprintf "query has %d nodes; the limit is %d" nodes max_nodes)
      else
        let fresh = ref [] in
        let intern tag = Some (resolve ~size ~find fresh tag) in
        Result.map
          (fun twig -> { twig; anchored; unknown = !fresh })
          (Twig_parse.to_twig ~intern ast))

let name ~size ~known q l = if l < size then known l else List.nth q.unknown (l - size)
