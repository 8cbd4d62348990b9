exception Format_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Format_error msg)) fmt

let save ~names synopsis =
  let buf = Buffer.create 4096 in
  let n = Synopsis.cluster_count synopsis in
  Buffer.add_string buf
    (Printf.sprintf "treesketch-synopsis v1 clusters=%d labels=%d\n" n (Array.length names));
  Array.iter
    (fun name ->
      if String.contains name '\n' then invalid_arg "Sketch_io.save: label contains a newline";
      Buffer.add_string buf name;
      Buffer.add_char buf '\n')
    names;
  for c = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "cluster %d %d %d\n" c synopsis.Synopsis.labels.(c) synopsis.Synopsis.sizes.(c))
  done;
  for c = 0 to n - 1 do
    Array.iter
      (fun (dst, w) -> Buffer.add_string buf (Printf.sprintf "edge %d %d %.17g\n" c dst w))
      synopsis.Synopsis.out_edges.(c)
  done;
  Buffer.contents buf

let save_file ~names path synopsis =
  let oc = open_out_bin path in
  (try output_string oc (save ~names synopsis)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let load text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | [] -> fail "empty input"
  | header :: rest ->
    let nclusters, nlabels =
      match String.split_on_char ' ' header with
      | [ "treesketch-synopsis"; "v1"; c_field; l_field ] ->
        let field name s =
          match String.split_on_char '=' s with
          | [ n; v ] when String.equal n name -> (
            try int_of_string v with _ -> fail "bad %s" name)
          | _ -> fail "malformed header field %S" s
        in
        (field "clusters" c_field, field "labels" l_field)
      | _ -> fail "unrecognized header %S" header
    in
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> fail "truncated label block"
      | line :: rest -> take (n - 1) (line :: acc) rest
    in
    let label_lines, body = take nlabels [] rest in
    let names = Array.of_list label_lines in
    let labels = Array.make nclusters 0 in
    let sizes = Array.make nclusters 0 in
    let edges = Array.make nclusters [] in
    List.iter
      (fun line ->
        if String.length line = 0 then ()
        else begin
          match String.split_on_char ' ' line with
          | [ "cluster"; id; label; size ] -> (
            try
              let id = int_of_string id in
              if id < 0 || id >= nclusters then fail "cluster id %d out of range" id;
              labels.(id) <- int_of_string label;
              sizes.(id) <- int_of_string size
            with Format_error _ as e -> raise e | _ -> fail "malformed cluster line %S" line)
          | [ "edge"; src; dst; w ] -> (
            try
              let src = int_of_string src in
              if src < 0 || src >= nclusters then fail "edge src %d out of range" src;
              edges.(src) <- (int_of_string dst, float_of_string w) :: edges.(src)
            with Format_error _ as e -> raise e | _ -> fail "malformed edge line %S" line)
          | _ -> fail "unrecognized line %S" line
        end)
      body;
    let out_edges =
      Array.map
        (fun es ->
          let arr = Array.of_list es in
          Array.sort (fun (a, _) (b, _) -> compare a b) arr;
          arr)
        edges
    in
    let clusters_of_label = Hashtbl.create 64 in
    Array.iteri
      (fun i l ->
        Hashtbl.replace clusters_of_label l
          (i :: Option.value ~default:[] (Hashtbl.find_opt clusters_of_label l)))
      labels;
    let synopsis = { Synopsis.labels; sizes; out_edges; clusters_of_label } in
    (match Synopsis.validate synopsis with
    | Ok () -> ()
    | Error msg -> fail "invalid synopsis: %s" msg);
    (synopsis, names)

let load_file path =
  load (In_channel.with_open_bin path In_channel.input_all)
