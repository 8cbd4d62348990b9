(* Interactive query refinement — the scenario from the paper's
   introduction: "an end-user can interactively refine her query if she
   knows that the current query will result in an overwhelming result set."

   A user explores an auction site.  Each refinement step adds a predicate
   to the twig; the estimator prices every candidate refinement in
   microseconds, so the UI can steer the user toward a query whose result
   set fits on a screen — without ever running the full query.

   Run with: dune exec examples/auction_optimizer.exe *)

module Dataset = Tl_datasets.Dataset
module Treelattice = Tl_core.Treelattice

let screenful = 50.0
(* results the user is willing to scroll through *)

let () =
  let tree = Dataset.tree Dataset.xmark ~target:30_000 ~seed:3 in
  let tl = Treelattice.build ~k:4 tree in
  Printf.printf "auction site: %d elements; refining until <= %.0f expected results\n\n"
    (Tl_tree.Data_tree.size tree) screenful;

  (* Each step: the query so far, plus candidate refinements the UI offers. *)
  let steps =
    [
      ("start: all open auctions", [ "open_auction" ]);
      ( "narrow: auctions with some bidding activity",
        [ "open_auction(bidder)"; "open_auction(seller)"; "open_auction(annotation)" ] );
      ( "narrow: active auctions with provenance",
        [
          "open_auction(bidder,seller)";
          "open_auction(bidder,annotation)";
          "open_auction(bidder(increase),seller)";
        ] );
      ( "narrow: fully-documented active auctions",
        [
          "open_auction(bidder(date,increase),seller,itemref)";
          "open_auction(bidder,seller,itemref,annotation(description))";
          "open_auction(bidder(increase),initial,current,seller)";
        ] );
    ]
  in
  let estimate q =
    match Treelattice.estimate_text tl q with Ok v -> v | Error msg -> failwith msg
  in
  let exact q = match Treelattice.exact_text tl q with Ok v -> v | Error msg -> failwith msg in
  List.iter
    (fun (title, candidates) ->
      Printf.printf "%s\n" title;
      let priced =
        List.map
          (fun q ->
            let v, us = Tl_util.Timer.time_ms (fun () -> estimate q) in
            (q, v, us *. 1000.0))
          candidates
      in
      List.iter
        (fun (q, v, us) ->
          let verdict = if v <= screenful then "OK: fits" else "too broad" in
          Printf.printf "  %-58s ~%9.1f results (%5.0f us)  %s\n" q v us verdict)
        priced;
      (* The UI would pick the most selective candidate that is still broad
         enough to be useful; here: smallest estimate. *)
      let best, best_v, _ =
        List.fold_left (fun (bq, bv, bu) (q, v, u) -> if v < bv then (q, v, u) else (bq, bv, bu))
          (List.hd priced) priced
      in
      Printf.printf "  -> continue with %s (est %.1f, true %d)\n\n" best best_v (exact best))
    steps;

  print_endline "The final twig was never executed until the user committed to it.";
  print_endline "Every intermediate decision was priced from the 4-lattice summary alone."
