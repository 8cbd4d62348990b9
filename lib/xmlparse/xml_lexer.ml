type t = { input : string; len : int; mutable pos : int; mutable line : int; mutable col : int }

(* End-of-line handling (XML 1.0 §2.11): "\r\n" and a lone '\r' reach
   the scanner as '\n'.  An input without '\r' costs one scan. *)
let normalize_newlines s =
  if not (String.contains s '\r') then s
  else begin
    let n = String.length s in
    let buf = Buffer.create n in
    String.iteri
      (fun i c ->
        if c <> '\r' then Buffer.add_char buf c
        else if i + 1 = n || s.[i + 1] <> '\n' then Buffer.add_char buf '\n')
      s;
    Buffer.contents buf
  end

let of_string input =
  let input = normalize_newlines input in
  { input; len = String.length input; pos = 0; line = 1; col = 1 }

let position t : Xml_error.position = { line = t.line; column = t.col; offset = t.pos }

let error t msg = Xml_error.error (position t) msg

let at_end t = t.pos >= t.len

let peek t =
  if at_end t then error t "unexpected end of input";
  t.input.[t.pos]

let advance t =
  if at_end t then error t "advance past end of input";
  if t.input.[t.pos] = '\n' then begin
    t.line <- t.line + 1;
    t.col <- 1
  end
  else t.col <- t.col + 1;
  t.pos <- t.pos + 1

let next t =
  let c = peek t in
  advance t;
  c

let expect t c =
  let got = peek t in
  if got <> c then error t (Printf.sprintf "expected %C but found %C" c got);
  advance t

(* [s] from its [i]-th byte on sits at [input.[pos + i]]; the caller has
   checked that it fits. *)
let rec matches_at input pos s i =
  i = String.length s || (input.[pos + i] = s.[i] && matches_at input pos s (i + 1))

let looking_at t s = t.pos + String.length s <= t.len && matches_at t.input t.pos s 0

let expect_string t s =
  if not (looking_at t s) then error t (Printf.sprintf "expected %S" s);
  String.iter (fun _ -> advance t) s

let is_whitespace = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let skip_whitespace t =
  while (not (at_end t)) && is_whitespace t.input.[t.pos] do
    advance t
  done

let is_name_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false

let is_name_char c =
  is_name_start c || match c with '0' .. '9' | '-' | '.' -> true | _ -> false

let scan_name t =
  if at_end t || not (is_name_start (peek t)) then error t "expected a name";
  let start = t.pos in
  while (not (at_end t)) && is_name_char t.input.[t.pos] do
    advance t
  done;
  String.sub t.input start (t.pos - start)

let scan_until t stop =
  let start = t.pos in
  let rec find () =
    if at_end t then error t (Printf.sprintf "expected %S before end of input" stop)
    else if looking_at t stop then ()
    else begin
      advance t;
      find ()
    end
  in
  find ();
  let content = String.sub t.input start (t.pos - start) in
  expect_string t stop;
  content

let scan_reference t =
  expect t '&';
  if (not (at_end t)) && peek t = '#' then begin
    advance t;
    let hex = (not (at_end t)) && peek t = 'x' in
    if hex then advance t;
    let start = t.pos in
    while (not (at_end t)) && peek t <> ';' do
      advance t
    done;
    let digits = String.sub t.input start (t.pos - start) in
    expect t ';';
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with _ -> error t (Printf.sprintf "malformed character reference %S" digits)
    in
    if code < 0 || code > 0x10FFFF then error t "character reference out of range";
    (* Surrogates sit inside the scalar range check above but are not
       scalar values — [Uchar.of_int] would raise an unpositioned
       [Invalid_argument] on them. *)
    if code >= 0xD800 && code <= 0xDFFF then
      error t (Printf.sprintf "character reference U+%04X is a surrogate" code);
    (* Encode the code point as UTF-8. *)
    let buf = Buffer.create 4 in
    Buffer.add_utf_8_uchar buf (Uchar.of_int code);
    Buffer.contents buf
  end
  else begin
    let name = scan_name t in
    expect t ';';
    match name with
    | "lt" -> "<"
    | "gt" -> ">"
    | "amp" -> "&"
    | "apos" -> "'"
    | "quot" -> "\""
    | other -> error t (Printf.sprintf "unknown entity &%s;" other)
  end
