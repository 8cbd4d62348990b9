module Twig = Tl_twig.Twig

exception Format_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Format_error msg)) fmt

let save ~names summary =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "treelattice-summary v1 k=%d complete=%b labels=%d\n" (Summary.k summary)
       (Summary.is_complete summary) (Array.length names));
  Array.iter
    (fun name ->
      if String.contains name '\n' then invalid_arg "Summary_io.save: label contains a newline";
      Buffer.add_string buf name;
      Buffer.add_char buf '\n')
    names;
  let entries = Summary.fold (fun twig count acc -> (Twig.encode twig, count) :: acc) summary [] in
  let entries = List.sort compare entries in
  List.iter (fun (key, count) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" key count)) entries;
  Buffer.contents buf

(* Written to a temporary file in the target's directory and renamed over
   it, so a reader never sees a cut file and a failed write (say, a label
   with a newline) leaves the old file in place. *)
let save_file ~names path summary =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666 ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".tmp"
  in
  try
    output_string oc (save ~names summary);
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let parse_header line =
  match String.split_on_char ' ' line with
  | [ "treelattice-summary"; "v1"; k_field; complete_field; labels_field ] ->
    let field name s =
      match String.split_on_char '=' s with
      | [ n; v ] when String.equal n name -> v
      | _ -> fail "malformed header field %S" s
    in
    let k = try int_of_string (field "k" k_field) with _ -> fail "bad k" in
    let complete =
      match field "complete" complete_field with
      | "true" -> true
      | "false" -> false
      | other -> fail "bad complete flag %S" other
    in
    let labels = try int_of_string (field "labels" labels_field) with _ -> fail "bad labels count" in
    (k, complete, labels)
  | _ -> fail "unrecognized header %S" line

let load ?intern text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> fail "empty input"
  | header :: rest ->
    let k, complete, nlabels = parse_header header in
    if k < 2 then fail "invalid lattice depth k=%d (must be >= 2)" k;
    if nlabels < 0 then fail "invalid label count labels=%d (must be >= 0)" nlabels;
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> fail "truncated label block"
      | line :: rest -> take (n - 1) (line :: acc) rest
    in
    let label_lines, entry_lines = take nlabels [] rest in
    let names = Array.of_list label_lines in
    let remap =
      match intern with
      | None -> fun id -> id
      | Some intern ->
        let mapping = Array.map intern names in
        fun id ->
          if id < 0 || id >= Array.length mapping then fail "label id %d out of range" id
          else mapping.(id)
    in
    let seen = Hashtbl.create 64 in
    let patterns =
      List.filter_map
        (fun line ->
          if String.length line = 0 then None
          else
            match String.index_opt line ' ' with
            | None -> fail "malformed entry %S" line
            | Some i ->
              let key = String.sub line 0 i in
              let count =
                try int_of_string (String.sub line (i + 1) (String.length line - i - 1))
                with _ -> fail "malformed count in %S" line
              in
              let twig =
                try Twig.decode key with Invalid_argument m -> fail "bad twig key: %s" m
              in
              let twig = Twig.map_labels remap twig in
              let id = Twig.Key.id (Twig.key twig) in
              if Hashtbl.mem seen id then fail "duplicate entry %S" key;
              Hashtbl.replace seen id ();
              Some (twig, count))
        entry_lines
    in
    (Summary.of_patterns ~k ~complete patterns, names)

let load_file ?intern path =
  load ?intern (In_channel.with_open_bin path In_channel.input_all)
