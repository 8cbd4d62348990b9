(* The query-line protocol shared by every serving front end: the routing
   rule, the per-group pinned batch, and the TCP wire rendering.  Front
   ends keep their own framing and output; see protocol.mli. *)

module Estimator = Tl_core.Estimator
module Prelude = Tl_util.Prelude

type served = { epoch : int; dataset : string; scheme : string; suffix : string }

type answer = Estimate of float * served | Failed of string

(* One routed dataset within a call: the bundle it was pinned to and its
   member lines (input indices, newest first). *)
type group = { bundle : Registry.bundle; served : served; mutable members : int list }

let pin bundle =
  let epoch = Registry.epoch bundle and dataset = Registry.name bundle in
  let scheme = Estimator.scheme_name (Engine.scheme (Registry.engine bundle)) in
  let suffix = Printf.sprintf "\t%d\t%s\t%s\n" epoch dataset scheme in
  { bundle; served = { epoch; dataset; scheme; suffix }; members = [] }

let answer ?pool registry lines =
  let answers = Array.make (Array.length lines) (Failed "no dataset installed") in
  let queries = Array.copy lines in
  (* The installed datasets this call has routed to, with their groups,
     so each one costs one [Registry.find] and its bundle is pinned for
     the whole call.  Only found names are kept, so the list never
     outgrows the registry: an unknown prefix (clients choose them) costs
     one [Registry.find] per line, not a scan of every prefix seen. *)
  let seen = ref [] in
  let lookup name =
    match List.assoc_opt name !seen with
    | Some _ as group -> group
    | None ->
      Option.map
        (fun bundle ->
          let group = pin bundle in
          seen := (name, group) :: !seen;
          group)
        (Registry.find registry name)
  in
  let default_group =
    lazy (Option.bind (Registry.default registry) (fun b -> lookup (Registry.name b)))
  in
  let order = ref [] in
  Array.iteri
    (fun idx line ->
      let routed =
        match String.index_opt line ':' with
        | Some i when i > 0 -> (
          match lookup (String.sub line 0 i) with
          | Some _ as named ->
            queries.(idx) <- String.trim (String.sub line (i + 1) (String.length line - i - 1));
            named
          | None -> Lazy.force default_group)
        | _ -> Lazy.force default_group
      in
      match routed with
      | None -> ()
      | Some g ->
        if g.members = [] then order := g :: !order;
        g.members <- idx :: g.members)
    lines;
  List.iter
    (fun g ->
      let members = Array.of_list (List.rev g.members) in
      let results = Registry.parse_queries g.bundle (Array.map (fun idx -> queries.(idx)) members) in
      (* Walking back from the last member leaves [parsed] in input order. *)
      let parsed = ref [] in
      for i = Array.length members - 1 downto 0 do
        match results.(i) with
        | Ok p -> parsed := (members.(i), p) :: !parsed
        | Error msg -> answers.(members.(i)) <- Failed msg
      done;
      match Array.of_list !parsed with
      | [||] -> ()
      | parsed ->
        let estimates =
          Registry.batch ?pool g.bundle (Array.map (fun (_, (twig, _)) -> twig) parsed)
        in
        Array.iteri
          (fun i (idx, (_, transform)) ->
            answers.(idx) <- Estimate (transform estimates.(i), g.served))
          parsed)
    (List.rev !order);
  answers

(* --- wire rendering --------------------------------------------------------- *)

(* [Printf.sprintf "%.17g"] without the format interpreter: the same
   runtime primitive, so the text is byte-identical. *)
external format_float : string -> float -> string = "caml_format_float"

(* The estimate prints as %.17g so a client reading it back gets the
   bit-exact float the engine computed.  Most estimates are counts: an
   integral value in [+0, 1e15) has at most 15 digits, so %.17g prints
   it as plain digits, which [string_of_int] writes without the printf
   machinery.  -0. keeps its sign through %.17g. *)
let estimate_text v =
  let i = int_of_float v in
  if v < 1e15 && float_of_int i = v && not (Float.sign_bit v) then string_of_int i
  else format_float "%.17g" v

let render_error ~json buf msg =
  if json then
    Buffer.add_string buf (Printf.sprintf "{\"error\":\"%s\"}\n" (Prelude.json_escape msg))
  else Buffer.add_string buf (Printf.sprintf "error\t%s\n" msg)

(* A text answer is the estimate followed by its group's suffix. *)
let render ~json buf = function
  | Failed msg -> render_error ~json buf msg
  | Estimate (estimate, s) ->
    if json then
      Buffer.add_string buf
        (Printf.sprintf "{\"estimate\":%s,\"epoch\":%d,\"dataset\":\"%s\",\"scheme\":\"%s\"}\n"
           (estimate_text estimate) s.epoch (Prelude.json_escape s.dataset)
           (Prelude.json_escape s.scheme))
    else begin
      Buffer.add_string buf (estimate_text estimate);
      Buffer.add_string buf s.suffix
    end

let busy_line ~json = if json then "{\"busy\":true}\n" else "busy\toverloaded, retry later\n"
