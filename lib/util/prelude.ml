let list_remove_at i xs =
  if i < 0 then invalid_arg "Prelude.list_remove_at: negative index";
  let rec go i = function
    | [] -> invalid_arg "Prelude.list_remove_at: index out of bounds"
    | _ :: rest when i = 0 -> rest
    | x :: rest -> x :: go (i - 1) rest
  in
  go i xs

let rec list_insert_sorted ~cmp x = function
  | [] -> [ x ]
  | y :: rest as all -> if cmp x y <= 0 then x :: all else y :: list_insert_sorted ~cmp x rest

let rec list_take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: list_take (n - 1) rest

let list_unique ~cmp xs =
  let sorted = List.sort cmp xs in
  let rec dedup = function
    | a :: b :: rest when cmp a b = 0 -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let sum_floats = List.fold_left ( +. ) 0.0

let round_to d v =
  let scale = 10.0 ** float_of_int d in
  Float.round (v *. scale) /. scale

let human_bytes n =
  if n < 1024 then Printf.sprintf "%d B" n
  else if n < 1024 * 1024 then Printf.sprintf "%.1f KB" (float_of_int n /. 1024.0)
  else Printf.sprintf "%.1f MB" (float_of_int n /. (1024.0 *. 1024.0))

let clamp ~lo ~hi v = if v < lo then lo else if v > hi then hi else v

let string_contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i j = j = n || (haystack.[i + j] = needle.[j] && at i (j + 1)) in
  let rec go i = i + n <= h && (at i 0 || go (i + 1)) in
  n = 0 || go 0

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let word_bytes = 8

let heap_string_bytes s =
  (* header word + the padded payload (content, NUL terminator, padding). *)
  word_bytes * (1 + ((String.length s / word_bytes) + 1))

let heap_block_bytes fields = word_bytes * (1 + fields)
