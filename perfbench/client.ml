(* The load generator: a closed loop of waiting callers.  Each client owns
   one TCP connection and sends its next batch only after the previous
   answer has fully arrived, as a query optimizer waiting on each
   estimate would.  Every answer line is checked against the oracle. *)

let now = Proc.now

type t = {
  pools : Inputs.pool array;
  expected : string array array;
  batch_size : int;
  on_batch : unit -> unit;  (** after every completed batch *)
}

(* One client's tally.  Round trips are recorded only for batches sent
   inside the measuring window. *)
type tally = {
  mutable lines : int;  (** query lines attempted *)
  mutable failed : int;  (** lines without a correct answer *)
  mutable window_lines : int;
  mutable rts_ms : float list;
  mutable last_end : float;
  mutable problems : string list;  (** the first few failures, for stderr *)
}

let tally () =
  { lines = 0; failed = 0; window_lines = 0; rts_ms = []; last_end = 0.0; problems = [] }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  (fd, Unix.in_channel_of_descr fd)

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* Runs until [deadline]; batches that start at or after [window_start]
   are the measured ones. *)
let run t ~port ~rng ~window_start ~deadline =
  let r = tally () in
  let note msg = if List.length r.problems < 5 then r.problems <- msg :: r.problems in
  let conn = ref None in
  let n_pools = Array.length t.pools in
  (* Epochs seen on this connection, per dataset: they must never go back. *)
  let epochs = Array.make n_pools 0 in
  let drop () =
    Option.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) !conn;
    conn := None
  in
  let check (p, e) line =
    match String.split_on_char '\t' line with
    | [ estimate; epoch; dataset; scheme ] ->
      let epoch = Option.value (int_of_string_opt epoch) ~default:(-1) in
      let ok =
        estimate = t.expected.(p).(e)
        && dataset = t.pools.(p).Inputs.dataset
        && scheme = Oracle.scheme_name && epoch >= epochs.(p)
      in
      if epoch > epochs.(p) then epochs.(p) <- epoch;
      if not ok then
        note
          (Printf.sprintf "%s -> %S (expected %s)" (String.trim t.pools.(p).Inputs.entries.(e).Inputs.line) line
             t.expected.(p).(e));
      ok
    | _ ->
      note (Printf.sprintf "%s -> %S" (String.trim t.pools.(p).Inputs.entries.(e).Inputs.line) line);
      false
  in
  while now () < deadline do
    let request, picks = Inputs.batch rng t.pools ~size:t.batch_size in
    let good = ref 0 in
    (* The round trip starts at the first byte sent, after any reconnect. *)
    let t0 = ref (now ()) in
    (try
       let fd, ic =
         match !conn with
         | Some c -> c
         | None ->
           let c = connect port in
           conn := Some c;
           Array.fill epochs 0 n_pools 0;
           c
       in
       t0 := now ();
       write_all fd request 0;
       let answered = ref 0 in
       while !answered < t.batch_size do
         match input_line ic with
         | "" ->
           note "batch terminated early";
           answered := t.batch_size + 1
         | line ->
           if check picks.(!answered) line then incr good;
           incr answered
       done;
       if !answered = t.batch_size && input_line ic <> "" then begin
         note "no blank line after the batch";
         drop ()
       end
       else if !answered > t.batch_size then drop ()
     with
    | End_of_file | Sys_error _ | Unix.Unix_error _ ->
      note "connection lost or timed out";
      drop ());
    let t1 = now () in
    r.lines <- r.lines + t.batch_size;
    r.failed <- r.failed + (t.batch_size - !good);
    if !t0 >= window_start then begin
      r.window_lines <- r.window_lines + t.batch_size;
      r.rts_ms <- ((t1 -. !t0) *. 1000.0) :: r.rts_ms;
      r.last_end <- t1
    end;
    t.on_batch ()
  done;
  drop ();
  r

(* Client [c]'s request generator; the traced run replays the same
   batches in process. *)
let rng ~seed c = Tl_util.Xorshift.create ((seed * 1_000_003) + c + 1)

(* [clients] closed-loop clients, each in its own thread of this one
   load-generator process. *)
let run_all t ~port ~seed ~clients ~window_start ~deadline =
  let results = Array.make clients (tally ()) in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            results.(c) <- run t ~port ~rng:(rng ~seed c) ~window_start ~deadline)
          ())
  in
  List.iter Thread.join threads;
  Array.to_list results
