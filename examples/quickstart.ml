(* Quickstart: the 60-second tour of the public API.

   1. Generate a small auction document (any XML file works the same way).
   2. Parse it and build a TreeLattice with a 4-lattice summary.
   3. Estimate twig queries written in the textual syntax, and compare
      against exact counts.

   Run with: dune exec examples/quickstart.exe *)

module Dataset = Tl_datasets.Dataset
module Treelattice = Tl_core.Treelattice
module Estimator = Tl_core.Estimator

let () =
  (* Step 1: a ~5000-element auction site document.  To use your own data:
     Tl_tree.Tree_load.of_file "your.xml" *)
  let tree = Dataset.tree Dataset.xmark ~target:5_000 ~seed:1 in
  Printf.printf "document: %d elements, %d distinct tags\n\n" (Tl_tree.Data_tree.size tree)
    (Tl_tree.Data_tree.label_count tree);

  (* Step 2: mine the 4-lattice summary.  This is the only expensive step;
     the summary can be saved with Tl_lattice.Summary_io and reloaded. *)
  let tl, ms = Tl_util.Timer.time_ms (fun () -> Treelattice.build ~k:4 tree) in
  Printf.printf "4-lattice summary: %d patterns, %s, built in %.0f ms\n\n"
    (Tl_lattice.Summary.entries (Treelattice.summary tl))
    (Tl_util.Prelude.human_bytes (Tl_lattice.Summary.memory_bytes (Treelattice.summary tl)))
    ms;

  (* Step 3: estimate. *)
  let queries =
    [
      "open_auction(bidder,seller)";
      "open_auction(bidder(increase),initial,current)";
      "person(name,emailaddress,watches(watch))";
      "open_auction(bidder(date,increase),itemref,seller,annotation)";
      "item(name,quantity,mailbox(mail))";
    ]
  in
  Printf.printf "%-60s %12s %8s\n" "query" "estimate" "exact";
  List.iter
    (fun q ->
      match (Treelattice.estimate_text tl q, Treelattice.exact_text tl q) with
      | Ok estimate, Ok exact -> Printf.printf "%-60s %12.1f %8d\n" q estimate exact
      | Error msg, _ | _, Error msg -> Printf.printf "%-60s  error: %s\n" q msg)
    queries;

  print_newline ();
  (* Estimator schemes trade accuracy for speed; Recursive_voting is the
     default (most accurate in the paper), Fixed_size is the fastest. *)
  let q = "open_auction(bidder(date,increase),itemref,seller,annotation)" in
  List.iter
    (fun scheme ->
      match Treelattice.estimate_text ~scheme tl q with
      | Ok estimate -> Printf.printf "%-24s -> %.1f\n" (Estimator.scheme_name scheme) estimate
      | Error msg -> prerr_endline msg)
    Estimator.all_schemes;

  (* A sensitivity interval flags how much the admissible decompositions
     disagree — wide means locally violated independence. *)
  (match Treelattice.parse_text tl q with
  | Ok { Tl_twig.Query.twig; _ } ->
    let i = Treelattice.estimate_interval tl twig in
    Printf.printf "\nsensitivity interval for the last query: [%.1f, %.1f] around %.1f\n"
      i.Estimator.low i.Estimator.high i.Estimator.best
  | Error msg -> prerr_endline msg)
