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

(* Each syntax resolves tags only once its text has parsed, so a rejected
   first attempt leaves [fresh] empty for the second. *)
let parse ~size ~find text =
  let fresh = ref [] in
  let intern tag = Some (resolve ~size ~find fresh tag) in
  let as_twig () = Result.map (fun twig -> (twig, false)) (Twig_parse.parse_twig ~intern text) in
  let as_xpath () =
    Result.bind (Xpath.parse text) (fun (xp : Xpath.t) ->
        Result.map (fun twig -> (twig, xp.anchored)) (Xpath.to_twig ~intern xp))
  in
  let first, second =
    if String.length text > 0 && text.[0] = '/' then (as_xpath, as_twig) else (as_twig, as_xpath)
  in
  let parsed =
    match first () with Ok _ as ok -> ok | Error msg -> Result.map_error (fun _ -> msg) (second ())
  in
  Result.map (fun (twig, anchored) -> { twig; anchored; unknown = !fresh }) parsed

let name ~size ~known q l = if l < size then known l else List.nth q.unknown (l - size)
