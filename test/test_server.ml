(* Tests for the TCP query front-end: protocol shape, routing, JSON mode,
   concurrent clients reproducing the sequential reference bit-for-bit,
   admission-control shedding under a tiny queue, and graceful drain. *)

module Twig = Tl_twig.Twig
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Treelattice = Tl_core.Treelattice
module Metrics = Tl_obs.Metrics
module Registry = Tl_serve.Registry
module Server = Tl_serve.Server
module Protocol = Tl_serve.Protocol

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let counter name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with Some n -> n | None -> 0

let fig11_queries = [ "a(b(c,d))"; "a(b(c),b(d))"; "a(b,b)"; "b(c,d)"; "a(b(c,d),b)" ]

let contains ~needle hay = Tl_util.Prelude.string_contains ~needle hay

(* The reference every TCP answer must reproduce bit-for-bit. *)
let baseline summary twigs =
  Array.map (fun twig -> Estimator.estimate summary Treelattice.default_scheme twig) twigs

let registry_with_fig11 () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let t = Registry.create () in
  let bundle = Result.get_ok (Registry.install_document t ~name:"d" tree) in
  (t, tree, bundle)

let with_server ?config ?pool registry f =
  let server = Server.start ?config ?pool registry in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

(* --- a tiny test client ---------------------------------------------------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let with_client port f =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd))

let send oc s =
  output_string oc s;
  flush oc

(* Answer lines up to (and consuming) the blank batch terminator. *)
let read_batch ic =
  let rec go acc =
    match input_line ic with
    | "" -> List.rev acc
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

type answer = Ok of float * int * string * string | Err of string

let parse_answer line =
  match String.split_on_char '\t' line with
  | [ "error"; msg ] -> Err msg
  | [ est; epoch; ds; scheme ] -> Ok (float_of_string est, int_of_string epoch, ds, scheme)
  | _ -> Alcotest.failf "unparseable answer line %S" line

(* --- protocol -------------------------------------------------------------- *)

let test_protocol_basics () =
  let t, tree, bundle = registry_with_fig11 () in
  let twigs = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let expected = baseline (Registry.summary bundle) twigs in
  let scheme_name = Estimator.scheme_name Treelattice.default_scheme in
  with_server t @@ fun server ->
  with_client (Server.port server) @@ fun _fd ic oc ->
  (* Comments are skipped, bad lines answer in place, order is input
     order, and the %.17g estimate round-trips bit-exactly. *)
  send oc "# a comment\na(b(c,d))\nnot a query (((\nb(c,d)\n\n";
  (match read_batch ic with
  | [ l0; l1; l2 ] -> (
    Alcotest.(check string) "answer text is the %.17g line"
      (Printf.sprintf "%.17g\t%d\td\t%s" expected.(0) (Registry.epoch bundle) scheme_name)
      l0;
    (match parse_answer l0 with
    | Ok (est, epoch, ds, scheme) ->
      Alcotest.(check bool) "query 0 bits" true (same_float est expected.(0));
      Alcotest.(check int) "epoch" (Registry.epoch bundle) epoch;
      Alcotest.(check string) "dataset" "d" ds;
      Alcotest.(check string) "scheme" scheme_name scheme
    | Err m -> Alcotest.failf "unexpected error %S" m);
    (match parse_answer l1 with
    | Err _ -> ()
    | Ok _ -> Alcotest.fail "malformed line must answer error");
    match parse_answer l2 with
    | Ok (est, _, _, _) -> Alcotest.(check bool) "query 3 bits" true (same_float est expected.(3))
    | Err m -> Alcotest.failf "unexpected error %S" m)
  | lines -> Alcotest.failf "expected 3 answers, got %d" (List.length lines));
  (* An empty flush still acknowledges with a blank line. *)
  send oc "\n";
  Alcotest.(check (list string)) "empty flush" [] (read_batch ic);
  (* A final batch without a trailing blank line flushes on close. *)
  send oc "a(b,b)";
  Unix.shutdown _fd Unix.SHUTDOWN_SEND;
  match read_batch ic with
  | [ line ] -> (
    match parse_answer line with
    | Ok (est, _, _, _) -> Alcotest.(check bool) "eof flush bits" true (same_float est expected.(2))
    | Err m -> Alcotest.failf "unexpected error %S" m)
  | lines -> Alcotest.failf "expected 1 answer at eof, got %d" (List.length lines)

let test_routing_and_unknown_prefix () =
  let t, tree, _ = registry_with_fig11 () in
  let regular = Helpers.tree_of Helpers.regular_spec in
  let b2 = Result.get_ok (Registry.install_document t ~name:"r" regular) in
  ignore tree;
  with_server t @@ fun server ->
  with_client (Server.port server) @@ fun _fd ic oc ->
  send oc "r:a(b)\nnosuch:a(b,b)\n\n";
  match List.map parse_answer (read_batch ic) with
  | [ Ok (_, e1, ds1, _); Ok (_, _, ds2, _) ] ->
    Alcotest.(check string) "prefix routes" "r" ds1;
    Alcotest.(check int) "routed epoch" (Registry.epoch b2) e1;
    (* A prefix naming no dataset is part of the query for the default. *)
    Alcotest.(check string) "unknown prefix falls through" "d" ds2
  | _ -> Alcotest.fail "expected two ok answers"

(* Clients choose the prefixes, so a batch of distinct prefixes that name
   no dataset must cost one lookup each, not a scan of every prefix seen
   before it: 100,000 of them answer well within the bound (a quadratic
   scan takes minutes), every line routed to the default dataset. *)
let test_many_unknown_prefixes () =
  let t, _, _ = registry_with_fig11 () in
  let n = 100_000 in
  with_server t @@ fun server ->
  with_client (Server.port server) @@ fun _fd ic oc ->
  let buf = Buffer.create (16 * n) in
  for i = 1 to n do
    Buffer.add_string buf (Printf.sprintf "x%d:a(b)\n" i)
  done;
  Buffer.add_char buf '\n';
  let t0 = Unix.gettimeofday () in
  send oc (Buffer.contents buf);
  let answers = read_batch ic in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "one answer per line" n (List.length answers);
  List.iter
    (fun line ->
      match parse_answer line with
      | Ok (_, _, ds, _) -> Alcotest.(check string) "routed to the default" "d" ds
      | Err _ -> ())
    answers;
  Alcotest.(check bool) (Printf.sprintf "answered in %.2f s < 10 s" elapsed) true (elapsed < 10.0)

let test_json_mode () =
  let t, _, _ = registry_with_fig11 () in
  let config = { Server.default_config with Server.json = true } in
  with_server ~config t @@ fun server ->
  with_client (Server.port server) @@ fun _fd ic oc ->
  send oc "a(b,b)\nnot a query (((\n\n";
  match read_batch ic with
  | [ l0; l1 ] ->
    Alcotest.(check bool) "estimate field" true (contains ~needle:"\"estimate\":" l0);
    Alcotest.(check bool) "epoch field" true (contains ~needle:"\"epoch\":" l0);
    Alcotest.(check bool) "dataset field" true (contains ~needle:"\"dataset\":\"d\"" l0);
    Alcotest.(check bool) "error object" true (contains ~needle:"\"error\":" l1)
  | lines -> Alcotest.failf "expected 2 json answers, got %d" (List.length lines)

(* [Protocol.render] writes every estimate exactly as [%.17g] does, in
   text and JSON mode, the integral ones it prints without printf
   included: drawn integral values
   up to 2^53 either side of zero, arbitrary floats, and the edges of the
   integral fast path. *)
let test_render_matches_printf () =
  let t, _, _ = registry_with_fig11 () in
  let served =
    match Protocol.answer t [| "a" |] with
    | [| Protocol.Estimate (_, s) |] -> s
    | _ -> Alcotest.fail "no served answer"
  in
  let render ~json v =
    let buf = Buffer.create 64 in
    Protocol.render ~json buf (Protocol.Estimate (v, served));
    Buffer.contents buf
  in
  let text = render ~json:false in
  let agrees v =
    String.equal (text v) (Printf.sprintf "%.17g" v ^ served.Protocol.suffix)
    && String.starts_with ~prefix:(Printf.sprintf "{\"estimate\":%.17g," v) (render ~json:true v)
  in
  let p53 = 2.0 ** 53.0 in
  List.iter
    (fun v ->
      Alcotest.(check string)
        (Printf.sprintf "%h" v)
        (Printf.sprintf "%.17g" v ^ served.Protocol.suffix)
        (text v);
      Alcotest.(check bool) (Printf.sprintf "json %h" v) true (agrees v))
    [ 0.; -0.; p53 -. 1.; p53; p53 +. 1.; 1e15 -. 1.; 1e15; 1e15 +. 1.; 1e17; 0.5; -3.;
      Float.nan; Float.infinity; Float.neg_infinity; Float.max_float; Float.min_float ];
  let bound = 1 lsl 53 in
  let gen =
    QCheck2.Gen.(
      oneof
        [ map Float.of_int (int_range (-bound) bound); map Float.of_int (int_range 0 1_000_000); float ])
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:2000 ~name:"render = %.17g" ~print:(Printf.sprintf "%h") gen agrees)

(* --- concurrent clients ---------------------------------------------------- *)

(* N writer threads, each flushing several batches of known queries: the
   full multiset of served answers must equal the sequential reference —
   here checked line-by-line against the baseline, which implies the
   multiset equality, and bit-exactly. *)
let test_multiclient_matches_sequential () =
  let t, tree, bundle = registry_with_fig11 () in
  let queries = Array.of_list fig11_queries in
  let twigs = Array.map (Helpers.twig_of_string tree) queries in
  let expected = baseline (Registry.summary bundle) twigs in
  let n_clients = 8 and batches_per_client = 5 and reps = 4 in
  Tl_util.Pool.with_pool ~domains:2 @@ fun pool ->
  with_server ~pool t @@ fun server ->
  let failures = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let sent = Atomic.make 0 in
  let client cid =
    try
      with_client (Server.port server) @@ fun _fd ic oc ->
      for b = 1 to batches_per_client do
        let order =
          Array.init
            (reps * Array.length queries)
            (fun i -> (i + cid + b) mod Array.length queries)
        in
        let buf = Buffer.create 256 in
        Array.iter
          (fun qi ->
            Buffer.add_string buf queries.(qi);
            Buffer.add_char buf '\n')
          order;
        Buffer.add_char buf '\n';
        send oc (Buffer.contents buf);
        ignore (Atomic.fetch_and_add sent (Array.length order));
        let answers = read_batch ic in
        if List.length answers <> Array.length order then Atomic.incr failures
        else
          List.iteri
            (fun i line ->
              match parse_answer line with
              | Ok (est, _, _, _) when same_float est expected.(order.(i)) ->
                Atomic.incr answered
              | _ -> Atomic.incr failures)
            answers
      done
    with _ -> Atomic.incr failures
  in
  let threads = List.init n_clients (fun cid -> Thread.create client cid) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no mismatched or lost answer" 0 (Atomic.get failures);
  Alcotest.(check int) "every line answered"
    (n_clients * batches_per_client * reps * Array.length queries)
    (Atomic.get answered);
  let stats = Server.stats server in
  Alcotest.(check int) "stats count every query" (Atomic.get answered) stats.Server.queries;
  Alcotest.(check int) "stats count every line sent" (Atomic.get sent) stats.Server.queries;
  Alcotest.(check int) "all clients accepted" n_clients stats.Server.connections;
  Alcotest.(check int) "nothing shed at this load" 0 stats.Server.shed

(* --- framing ------------------------------------------------------------------ *)

(* Send [pieces] one write each (pausing between them, so the server sees
   them as separate reads), close the send side, and return every byte of
   the answers.  A receive timeout turns a framing bug that loses a line
   into a failure instead of a hang. *)
let exchange ?(pause = 0.0) port pieces =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      List.iter
        (fun piece ->
          let b = Bytes.of_string piece in
          let rec write off =
            if off < Bytes.length b then write (off + Unix.write fd b off (Bytes.length b - off))
          in
          write 0;
          if pause > 0.0 then Thread.delay pause)
        pieces;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      In_channel.input_all (Unix.in_channel_of_descr fd))

let chunks size s =
  List.init
    ((String.length s + size - 1) / size)
    (fun i -> String.sub s (i * size) (min size (String.length s - (i * size))))

let test_framing_matches_one_write () =
  let t, _, _ = registry_with_fig11 () in
  with_server t @@ fun server ->
  let port = Server.port server in
  let same_as_one_write ?pause name payload pieces =
    let expected = exchange port [ payload ] in
    Alcotest.(check bool) (name ^ ": answered") true (contains ~needle:"\td\t" expected);
    Alcotest.(check string) name expected (exchange ?pause port pieces);
    expected
  in
  let batch = "a(b(c,d))\n# comment\nnot a query (((\n/a/b[c]\n\nb(c,d)\na(b,b)\n\n" in
  let lf = same_as_one_write ~pause:0.0005 "one byte per write" batch (chunks 1 batch) in
  let crlf_batch = String.concat "\r\n" (String.split_on_char '\n' batch) in
  let crlf = same_as_one_write ~pause:0.0005 "crlf" crlf_batch (chunks 7 crlf_batch) in
  Alcotest.(check string) "crlf answers = lf answers" lf crlf;
  ignore
    (same_as_one_write ~pause:0.0005 "final line without newline" "a(b,b)\nb(c,d)"
       (chunks 3 "a(b,b)\nb(c,d)"));
  (* Lines of every length around the read size, so some straddle each
     4096-byte boundary, in flushes of 50 lines. *)
  let long =
    String.concat ""
      (List.init 400 (fun i ->
           Printf.sprintf "a(%sb(c),b)\n%s" (String.make (i mod 97) ' ')
             (if i mod 50 = 49 then "\n" else "")))
  in
  Alcotest.(check bool) "spans several reads" true (String.length long > 3 * 4096);
  List.iter
    (fun size ->
      ignore
        (same_as_one_write ~pause:0.002
           (Printf.sprintf "%d-byte writes" size)
           long (chunks size long)))
    [ 4095; 4096; 4097 ];
  (* One 100 KB line (a(b) padded with whitespace the parser ignores),
     then ordinary ones framed after the buffer shrinks back. *)
  let huge = "a(" ^ String.make 100_000 ' ' ^ "b)\nb(c,d)\n\n" ^ long in
  ignore (same_as_one_write ~pause:0.0005 "100 KB line" huge (chunks 1000 huge))

(* A client trickling one byte every 50 ms and never a newline: the batch
   deadline counts from when the worker took the connection, so it is cut
   with the deadline error instead of holding its worker forever. *)
let test_trickled_line_meets_deadline () =
  let t, _, _ = registry_with_fig11 () in
  let config = { Server.default_config with Server.batch_deadline = 0.3 } in
  with_server ~config t @@ fun server ->
  let fd = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let got = Buffer.create 64 and chunk = Bytes.create 4096 in
  let rec trickle () =
    if Unix.gettimeofday () -. t0 < 2.0 then begin
      (try ignore (Unix.write_substring fd "a" 0 1) with Unix.Unix_error _ -> ());
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> trickle ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes got chunk 0 n;
          if not (String.contains (Buffer.contents got) '\n') then trickle ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
    end
  in
  trickle ();
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "deadline error line (got %S after %.2f s)" (Buffer.contents got) elapsed)
    true
    (String.starts_with ~prefix:"error\tbatch deadline (0.3s) exceeded\n" (Buffer.contents got));
  Alcotest.(check bool) "cut within 2 s" true (elapsed < 2.0)

(* A 2 MiB line without a newline is cut with one error line once it
   passes the 1 MiB cap; the server keeps answering fresh connections. *)
let test_overlong_line_cut () =
  let t, _, _ = registry_with_fig11 () in
  with_server t @@ fun server ->
  let port = Server.port server in
  let fd = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let line = String.make (2 lsl 20) 'a' ^ "\n\n" in
  let writer =
    Thread.create
      (fun () ->
        let rec write off =
          if off < String.length line then
            match Unix.write_substring fd line off (String.length line - off) with
            | n -> write (off + n)
            | exception Unix.Unix_error _ -> ()
        in
        write 0)
      ()
  in
  let got = Buffer.create 64 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes got chunk 0 n;
      drain ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  drain ();
  Thread.join writer;
  Alcotest.(check string) "one error line, then close" "error\tline longer than 1048576 bytes\n\n"
    (Buffer.contents got);
  Alcotest.(check bool) "a fresh connection still answers" true
    (contains ~needle:"\td\t" (exchange port [ "a(b,b)\n\n" ]))

(* A path of 100,001 nodes (300 KB, under the line cap) would cost
   gigabytes to key.  The node bound answers it with one error line within
   a second, and the server keeps answering fresh connections. *)
let test_deep_line_refused () =
  let t, _, _ = registry_with_fig11 () in
  with_server t @@ fun server ->
  let port = Server.port server in
  let depth = 100_000 in
  let deep =
    String.concat "" (List.init depth (fun _ -> "a(")) ^ "b" ^ String.make depth ')' ^ "\n\n"
  in
  let t0 = Unix.gettimeofday () in
  let got = exchange port [ deep ] in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "one error line" "error\tquery has 100001 nodes; the limit is 64\n\n" got;
  Alcotest.(check bool) "answered within 1 s" true (elapsed < 1.0);
  Alcotest.(check bool) "a fresh connection still answers" true
    (contains ~needle:"\td\t" (exchange port [ "a(b,b)\n\n" ]))

(* --- one request path ------------------------------------------------------- *)

(* The same mixed lines answered in process by [Protocol.answer] and over
   TCP: routed, unrouted, an unknown prefix, a malformed line, a tag the
   dataset lacks, and anchored XPath on both datasets.  Every estimate
   agrees to the bit, every error to the message. *)
let test_protocol_answer_matches_tcp () =
  let t, _, _ = registry_with_fig11 () in
  let regular = Helpers.tree_of Helpers.regular_spec in
  ignore (Result.get_ok (Registry.install_document t ~name:"r" regular));
  let lines =
    [|
      "r:x(y,z)"; "a(b(c,d))"; "nosuch:a(b,b)"; "not a query((("; "a(b(ghost))"; "/a/b[c]";
      "r:/r/x/y"; "/b/c";
    |]
  in
  let direct = Protocol.answer t lines in
  let over_tcp =
    with_server t @@ fun server ->
    with_client (Server.port server) @@ fun _fd ic oc ->
    send oc (String.concat "\n" (Array.to_list lines) ^ "\n\n");
    Array.of_list (List.map parse_answer (read_batch ic))
  in
  Alcotest.(check int) "one answer per line" (Array.length lines) (Array.length over_tcp);
  let routed = [| "r"; "d"; "d"; ""; "d"; "d"; "r"; "d" |] in
  Array.iteri
    (fun i line ->
      match (direct.(i), over_tcp.(i)) with
      | Protocol.Estimate (e, s), Ok (e', epoch, ds, scheme) ->
        Alcotest.(check string) (line ^ ": bits") (Printf.sprintf "%h" e) (Printf.sprintf "%h" e');
        Alcotest.(check int) (line ^ ": epoch") s.Protocol.epoch epoch;
        Alcotest.(check string) (line ^ ": dataset") s.Protocol.dataset ds;
        Alcotest.(check string) (line ^ ": routed") routed.(i) ds;
        Alcotest.(check string) (line ^ ": scheme") s.Protocol.scheme scheme
      | Protocol.Failed msg, Err msg' ->
        Alcotest.(check string) (line ^ ": error") msg msg';
        Alcotest.(check string) (line ^ ": malformed") "" routed.(i)
      | _ -> Alcotest.failf "%s: in-process and TCP answers disagree in kind" line)
    lines;
  (* Tags the dataset lacks answer exactly 0; the anchored XPath whose root
     tag is not the document root's answers 0 too. *)
  List.iter
    (fun i ->
      match direct.(i) with
      | Protocol.Estimate (e, _) ->
        Alcotest.(check bool) (lines.(i) ^ " = 0") true (same_float e 0.0)
      | Protocol.Failed msg -> Alcotest.failf "%s: %s" lines.(i) msg)
    [ 2; 4; 7 ]

(* --- tags the dataset lacks -------------------------------------------------- *)

(* Two connections alternate fresh unknown tags with known queries: every
   known answer stays bit-identical to the direct estimate, every unknown
   one is exactly 0, and no query grows the dataset's label space. *)
let test_unknown_tags_never_intern () =
  let t, tree, bundle = registry_with_fig11 () in
  let queries = Array.of_list fig11_queries in
  let expected = baseline (Registry.summary bundle) (Array.map (Helpers.twig_of_string tree) queries) in
  let labels_before = Array.length (Registry.label_names bundle) in
  let batches = 157 and half = 32 in
  with_server t @@ fun server ->
  let failures = Atomic.make 0 and known = Atomic.make 0 and novel = Atomic.make 0 in
  let client cid =
    try
      with_client (Server.port server) @@ fun _fd ic oc ->
      for b = 1 to batches do
        let buf = Buffer.create 1024 in
        for i = 0 to half - 1 do
          let tag = Printf.sprintf "zq%d_%d_%d" cid b i in
          Buffer.add_string buf (if i mod 2 = 0 then tag else "a(b(" ^ tag ^ "))");
          Buffer.add_char buf '\n';
          Buffer.add_string buf queries.((b + i) mod Array.length queries);
          Buffer.add_char buf '\n'
        done;
        Buffer.add_char buf '\n';
        send oc (Buffer.contents buf);
        List.iteri
          (fun j line ->
            match parse_answer line with
            | Ok (est, _, _, _) when j mod 2 = 0 && same_float est 0.0 -> Atomic.incr novel
            | Ok (est, _, _, _)
              when j mod 2 = 1 && same_float est expected.((b + (j / 2)) mod Array.length queries) ->
              Atomic.incr known
            | _ -> Atomic.incr failures)
          (read_batch ic)
      done
    with _ -> Atomic.incr failures
  in
  List.iter Thread.join (List.init 2 (Thread.create client));
  Alcotest.(check int) "no wrong answer" 0 (Atomic.get failures);
  Alcotest.(check int) "every known line answered" (2 * batches * half) (Atomic.get known);
  Alcotest.(check bool) "10k novel tags answered 0" true (Atomic.get novel >= 10_000);
  Alcotest.(check int) "label space flat" labels_before
    (Array.length (Registry.label_names bundle));
  match Registry.find t "d" with
  | Some current ->
    Alcotest.(check int) "current bundle's label space flat" labels_before
      (Array.length (Registry.label_names current))
  | None -> Alcotest.fail "dataset vanished"

(* --- admission control ----------------------------------------------------- *)

let test_tiny_queue_sheds () =
  Metrics.reset ();
  let t, _, _ = registry_with_fig11 () in
  let config = { Server.default_config with Server.workers = 1; queue_capacity = 1 } in
  with_server ~config t @@ fun server ->
  let port = Server.port server in
  (* Occupy the single worker with a half-sent batch... *)
  with_client port @@ fun holder_fd holder_ic holder_oc ->
  send holder_oc "a(b,b)\n";
  Thread.delay 0.3;
  (* ...fill the queue with a second connection... *)
  let queued_fd = connect port in
  Thread.delay 0.2;
  (* ...then every further arrival must be shed with a busy line. *)
  let busy_seen = ref 0 in
  for _ = 1 to 3 do
    with_client port @@ fun _fd ic _oc ->
    match input_line ic with
    | line when String.length line >= 4 && String.sub line 0 4 = "busy" -> incr busy_seen
    | line -> Alcotest.failf "expected busy, got %S" line
    | exception End_of_file -> Alcotest.fail "shed connection closed without busy line"
  done;
  Alcotest.(check int) "every overflow connection got busy" 3 !busy_seen;
  let stats = Server.stats server in
  Alcotest.(check bool) "shed counter advanced" true (stats.Server.shed >= 3);
  Alcotest.(check int) "shed metric matches" stats.Server.shed (counter "server.shed_total");
  (* The process stays healthy: the in-flight batch still answers... *)
  send holder_oc "\n";
  Alcotest.(check int) "holder batch answered" 1 (List.length (read_batch holder_ic));
  Unix.shutdown holder_fd Unix.SHUTDOWN_SEND;
  ignore (read_batch holder_ic);
  (* ...and once the worker frees up, the queued connection serves too. *)
  let ic = Unix.in_channel_of_descr queued_fd in
  let oc = Unix.out_channel_of_descr queued_fd in
  send oc "b(c,d)\n\n";
  (match List.map parse_answer (read_batch ic) with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "queued connection must serve after the holder");
  (try Unix.close queued_fd with Unix.Unix_error _ -> ())

(* Whatever [fd] sends within [secs] seconds, up to its first blank
   line (the batch terminator) or its close. *)
let read_within fd secs =
  let got = Buffer.create 64 and chunk = Bytes.create 4096 in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let left = secs -. (Unix.gettimeofday () -. t0) in
    if left > 0.0 && not (contains ~needle:"\n\n" (Buffer.contents got)) then
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes got chunk 0 n;
          go ()
        | exception Unix.Unix_error _ -> ())
  in
  go ();
  Buffer.contents got

(* One worker, held by a client that connects and never sends a byte: the
   deadline clock runs from when the worker took the connection, so the
   idle client is cut and a second client's batch is answered. *)
let test_idle_client_releases_worker () =
  Metrics.reset ();
  let t, _, _ = registry_with_fig11 () in
  let config = { Server.default_config with Server.workers = 1; batch_deadline = 0.3 } in
  with_server ~config t @@ fun server ->
  let port = Server.port server in
  let idle = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close idle with Unix.Unix_error _ -> ()) @@ fun () ->
  Thread.delay 0.1;
  let busy = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close busy with Unix.Unix_error _ -> ()) @@ fun () ->
  ignore (Unix.write_substring busy "a(b,b)\n\n" 0 8);
  let t0 = Unix.gettimeofday () in
  let answer = read_within busy 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "second client answered within 2 s (got %S after %.2f s)" answer
       (Unix.gettimeofday () -. t0))
    true
    (contains ~needle:"\td\t" answer);
  Alcotest.(check string) "the idle client is cut with the deadline error"
    "error\tbatch deadline (0.3s) exceeded\n\n" (read_within idle 2.0);
  Alcotest.(check bool) "cut counted" true (counter "server.deadline_cuts" >= 1)

(* --- graceful drain -------------------------------------------------------- *)

let test_stop_drains_in_flight_batch () =
  let t, tree, bundle = registry_with_fig11 () in
  let twigs = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let expected = baseline (Registry.summary bundle) twigs in
  let server = Server.start t in
  let port = Server.port server in
  with_client port @@ fun _fd ic oc ->
  (* Two lines pending, no flush: stop must half-close the connection so
     this batch still answers on its epoch before the server exits. *)
  send oc "a(b(c,d))\nb(c,d)\n";
  Thread.delay 0.3;
  let stopper = Thread.create Server.stop server in
  (match List.map parse_answer (read_batch ic) with
  | [ Ok (e0, ep0, _, _); Ok (e1, ep1, _, _) ] ->
    Alcotest.(check bool) "drained answer 0 bits" true (same_float e0 expected.(0));
    Alcotest.(check bool) "drained answer 1 bits" true (same_float e1 expected.(3));
    Alcotest.(check int) "same epoch" ep0 ep1
  | _ -> Alcotest.fail "in-flight batch must be answered during drain");
  Thread.join stopper;
  (* Stopped means stopped: new connections are refused. *)
  (match connect port with
  | fd ->
    (* A race with kernel-accepted backlog is possible; the socket must
       at least be closed without an answer. *)
    let ic = Unix.in_channel_of_descr fd in
    (match input_line ic with
    | line -> Alcotest.failf "answer after stop: %S" line
    | exception End_of_file -> ());
    Unix.close fd
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  Server.stop server

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "batching, errors, eof flush" `Quick test_protocol_basics;
          Alcotest.test_case "routing and unknown prefix" `Quick test_routing_and_unknown_prefix;
          Alcotest.test_case "json mode" `Quick test_json_mode;
          Alcotest.test_case "100k unknown prefixes answer in linear time" `Quick
            test_many_unknown_prefixes;
          Alcotest.test_case "Protocol.answer = TCP answers, bit for bit" `Quick
            test_protocol_answer_matches_tcp;
          Alcotest.test_case "render = %.17g, integral or not" `Quick test_render_matches_printf;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "multi-client multiset = sequential reference" `Quick
            test_multiclient_matches_sequential;
        ] );
      ( "framing",
        [
          Alcotest.test_case "split, crlf, unterminated and 100 KB lines = one write" `Quick
            test_framing_matches_one_write;
          Alcotest.test_case "a trickled line without newline meets the deadline" `Quick
            test_trickled_line_meets_deadline;
          Alcotest.test_case "a 2 MiB line is cut, the server keeps serving" `Quick
            test_overlong_line_cut;
          Alcotest.test_case "a 100,001-node line is refused, the server keeps serving" `Quick
            test_deep_line_refused;
        ] );
      ( "novel_tags",
        [
          Alcotest.test_case "concurrent novel tags answer 0, intern nothing" `Quick
            test_unknown_tags_never_intern;
        ] );
      ( "admission",
        [
          Alcotest.test_case "tiny queue sheds with busy" `Quick test_tiny_queue_sheds;
          Alcotest.test_case "an idle client releases its worker" `Quick
            test_idle_client_releases_worker;
        ] );
      ( "drain",
        [
          Alcotest.test_case "stop answers in-flight batches" `Quick
            test_stop_drains_in_flight_batch;
        ] );
    ]
