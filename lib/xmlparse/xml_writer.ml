(* A CR anywhere, and a tab or LF in an attribute value, is written as a
   character reference: the parser's end-of-line and attribute-value
   normalization would change it back from a literal. *)
let escape attr s =
  let needs_escape =
    String.exists
      (fun c -> c = '&' || c = '<' || c = '>' || c = '\r' || (attr && (c = '"' || c = '\t' || c = '\n')))
      s
  in
  if not needs_escape then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '&' -> Buffer.add_string buf "&amp;"
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '\r' -> Buffer.add_string buf "&#13;"
        | '"' when attr -> Buffer.add_string buf "&quot;"
        | '\t' when attr -> Buffer.add_string buf "&#9;"
        | '\n' when attr -> Buffer.add_string buf "&#10;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let escape_text = escape false
let escape_attr = escape true

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_attr v);
      Buffer.add_char buf '"')
    attrs

let emit ?(indent = false) buf (doc : Xml_dom.t) =
  (match doc.decl with
  | None -> ()
  | Some attrs ->
    Buffer.add_string buf "<?xml";
    add_attrs buf attrs;
    Buffer.add_string buf "?>";
    if indent then Buffer.add_char buf '\n');
  let pad level = if indent then Buffer.add_string buf (String.make (2 * level) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec emit_element level (el : Xml_dom.element) =
    pad level;
    Buffer.add_char buf '<';
    Buffer.add_string buf el.tag;
    add_attrs buf el.attrs;
    match el.children with
    | [] ->
      Buffer.add_string buf "/>";
      nl ()
    | [ Text t ] ->
      (* Keep single-text elements on one line even when indenting, so
         values stay readable and re-parse unchanged. *)
      Buffer.add_char buf '>';
      Buffer.add_string buf (escape_text t);
      Buffer.add_string buf "</";
      Buffer.add_string buf el.tag;
      Buffer.add_char buf '>';
      nl ()
    | children ->
      Buffer.add_char buf '>';
      nl ();
      List.iter (emit_node (level + 1)) children;
      pad level;
      Buffer.add_string buf "</";
      Buffer.add_string buf el.tag;
      Buffer.add_char buf '>';
      nl ()
  and emit_node level = function
    | Xml_dom.Element el -> emit_element level el
    | Xml_dom.Text t ->
      pad level;
      Buffer.add_string buf (escape_text t);
      nl ()
    | Xml_dom.Comment c ->
      pad level;
      Buffer.add_string buf "<!--";
      Buffer.add_string buf c;
      Buffer.add_string buf "-->";
      nl ()
    | Xml_dom.Pi (target, content) ->
      pad level;
      Buffer.add_string buf "<?";
      Buffer.add_string buf target;
      if content <> "" then begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf content
      end;
      Buffer.add_string buf "?>";
      nl ()
  in
  emit_element 0 doc.root

let to_string ?indent doc =
  let buf = Buffer.create 4096 in
  emit ?indent buf doc;
  Buffer.contents buf

let to_file ?indent path doc =
  let oc = open_out_bin path in
  (try output_string oc (to_string ?indent doc)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let serialized_size doc =
  let buf = Buffer.create 4096 in
  emit buf doc;
  Buffer.length buf
