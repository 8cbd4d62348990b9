type event =
  | Declaration of (string * string) list
  | Start_element of string * (string * string) list
  | End_element of string
  | Text of string
  | Comment of string
  | Pi of string * string

(* Attribute-value normalization (XML 1.0 §3.3.3): a literal tab, LF or
   CR reads as a space; a character reference keeps its character. *)
let scan_attr_value lx =
  let quote = Xml_lexer.next lx in
  if quote <> '"' && quote <> '\'' then Xml_lexer.error lx "expected a quoted attribute value";
  let buf = Buffer.create 16 in
  let rec loop () =
    let c = Xml_lexer.peek lx in
    if c = quote then Xml_lexer.advance lx
    else if c = '&' then begin
      Buffer.add_string buf (Xml_lexer.scan_reference lx);
      loop ()
    end
    else if c = '<' then Xml_lexer.error lx "'<' not allowed in attribute value"
    else begin
      Buffer.add_char buf (match c with '\t' | '\n' | '\r' -> ' ' | c -> c);
      Xml_lexer.advance lx;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let scan_attributes lx =
  let rec loop acc =
    Xml_lexer.skip_whitespace lx;
    let c = Xml_lexer.peek lx in
    if c = '>' || c = '/' || c = '?' then List.rev acc
    else begin
      let name = Xml_lexer.scan_name lx in
      if List.mem_assoc name acc then
        Xml_lexer.error lx (Printf.sprintf "duplicate attribute %S" name);
      Xml_lexer.skip_whitespace lx;
      Xml_lexer.expect lx '=';
      Xml_lexer.skip_whitespace lx;
      let value = scan_attr_value lx in
      loop ((name, value) :: acc)
    end
  in
  loop []

let skip_doctype lx =
  Xml_lexer.expect_string lx "<!DOCTYPE";
  (* Skip to the matching '>': internal subsets nest one level of [...]. *)
  let rec skip depth =
    match Xml_lexer.next lx with
    | '[' -> skip (depth + 1)
    | ']' -> skip (depth - 1)
    | '>' when depth = 0 -> ()
    | _ -> skip depth
  in
  skip 0

(* The rest of [<?target body?>] once [target] is read: the body, less its
   leading whitespace. *)
let scan_pi_body lx target =
  Xml_lexer.skip_whitespace lx;
  Pi (target, Xml_lexer.scan_until lx "?>")

let scan lx handler =
  Xml_lexer.skip_whitespace lx;
  (* A leading PI whose target is exactly [xml] is the declaration; any
     other target, [xml-stylesheet] included, is an ordinary PI. *)
  if Xml_lexer.looking_at lx "<?" then begin
    Xml_lexer.expect_string lx "<?";
    let target = Xml_lexer.scan_name lx in
    if String.equal target "xml" then begin
      let attrs = scan_attributes lx in
      Xml_lexer.skip_whitespace lx;
      Xml_lexer.expect_string lx "?>";
      handler (Declaration attrs)
    end
    else handler (scan_pi_body lx target)
  end;
  (* [open_tags] holds the open elements, innermost first; text accumulates
     per contiguous run. *)
  let text = Buffer.create 64 in
  let flush_text () =
    if Buffer.length text > 0 then begin
      handler (Text (Buffer.contents text));
      Buffer.clear text
    end
  in
  let open_tags = ref [] in
  let seen_root = ref false in
  let rec loop () =
    if Xml_lexer.at_end lx then begin
      if !open_tags <> [] then Xml_lexer.error lx "unexpected end of input inside an element";
      if not !seen_root then Xml_lexer.error lx "expected a root element"
    end
    else begin
      let c = Xml_lexer.peek lx in
      if c = '<' then begin
        if Xml_lexer.looking_at lx "</" then begin
          flush_text ();
          Xml_lexer.expect_string lx "</";
          let tag = Xml_lexer.scan_name lx in
          (match !open_tags with
          | top :: rest when String.equal top tag -> open_tags := rest
          | top :: _ ->
            Xml_lexer.error lx
              (Printf.sprintf "mismatched close tag: expected </%s>, found </%s>" top tag)
          | [] -> Xml_lexer.error lx (Printf.sprintf "unexpected close tag </%s>" tag));
          Xml_lexer.skip_whitespace lx;
          Xml_lexer.expect lx '>';
          handler (End_element tag);
          loop ()
        end
        else if Xml_lexer.looking_at lx "<!--" then begin
          flush_text ();
          Xml_lexer.expect_string lx "<!--";
          handler (Comment (Xml_lexer.scan_until lx "-->"));
          loop ()
        end
        else if Xml_lexer.looking_at lx "<![CDATA[" then begin
          if !open_tags = [] then Xml_lexer.error lx "character data outside the root element";
          Xml_lexer.expect_string lx "<![CDATA[";
          Buffer.add_string text (Xml_lexer.scan_until lx "]]>");
          loop ()
        end
        else if Xml_lexer.looking_at lx "<!DOCTYPE" then begin
          if !seen_root then Xml_lexer.error lx "DOCTYPE after the root element";
          skip_doctype lx;
          loop ()
        end
        else if Xml_lexer.looking_at lx "<?" then begin
          flush_text ();
          Xml_lexer.expect_string lx "<?";
          handler (scan_pi_body lx (Xml_lexer.scan_name lx));
          loop ()
        end
        else begin
          flush_text ();
          if !open_tags = [] && !seen_root then Xml_lexer.error lx "content after the root element";
          Xml_lexer.expect lx '<';
          let tag = Xml_lexer.scan_name lx in
          let attrs = scan_attributes lx in
          Xml_lexer.skip_whitespace lx;
          handler (Start_element (tag, attrs));
          seen_root := true;
          if Xml_lexer.looking_at lx "/>" then begin
            Xml_lexer.expect_string lx "/>";
            handler (End_element tag)
          end
          else begin
            Xml_lexer.expect lx '>';
            open_tags := tag :: !open_tags
          end;
          loop ()
        end
      end
      else if c = '&' then begin
        if !open_tags = [] then Xml_lexer.error lx "character data outside the root element";
        Buffer.add_string text (Xml_lexer.scan_reference lx);
        loop ()
      end
      else begin
        if !open_tags = [] then begin
          (* Whitespace between top-level constructs is fine; anything else
             is stray content. *)
          if Xml_lexer.next lx |> fun ch -> not (ch = ' ' || ch = '\t' || ch = '\r' || ch = '\n')
          then Xml_lexer.error lx "content outside the root element"
        end
        else begin
          Buffer.add_char text c;
          Xml_lexer.advance lx
        end;
        loop ()
      end
    end
  in
  loop ()

let documents_parsed = Tl_obs.Metrics.counter ~help:"XML documents parsed" "xml.documents_parsed"
let input_bytes =
  Tl_obs.Metrics.histogram ~help:"Distribution of parsed XML document sizes" "xml.input_bytes"

let parse_string input handler =
  Tl_obs.Span.with_ "xml.parse" @@ fun () ->
  scan (Xml_lexer.of_string input) handler;
  Tl_obs.Metrics.incr documents_parsed;
  Tl_obs.Metrics.observe input_bytes (String.length input)

let parse_file path handler = parse_string (In_channel.with_open_bin path In_channel.input_all) handler

let events_of_string input =
  let events = ref [] in
  parse_string input (fun e -> events := e :: !events);
  List.rev !events
