(* Cost-based twig query planning — the paper's first motivating
   application: "determining an optimal query plan, based on said
   estimates, for complex queries."

   A twig query is evaluated as a sequence of structural joins; the cost is
   the intermediate binding relations the executor materializes, and every
   intermediate relation's size is the selectivity of an induced sub-twig —
   exactly what TreeLattice estimates.  This example prices all candidate
   join orders with the lattice summary, executes the naive and the guided
   plan, and shows the estimator's predictions steering real work.

   Run with: dune exec examples/query_planner.exe *)

module Dataset = Tl_datasets.Dataset
module Plan = Tl_join.Plan
module Executor = Tl_join.Executor
module Summary = Tl_lattice.Summary

let () =
  let tree = Dataset.tree Dataset.xmark ~target:30_000 ~seed:21 in
  let summary, ms = Tl_util.Timer.time_ms (fun () -> Summary.build ~k:4 tree) in
  Printf.printf "auction site: %d elements; 4-lattice built in %.0f ms\n\n"
    (Tl_tree.Data_tree.size tree) ms;
  let names = Tl_tree.Data_tree.label_name tree in

  let queries =
    [
      "open_auction(bidder(date,increase),seller,annotation)";
      "person(name,emailaddress,watches(watch))";
      "item(name,quantity,mailbox(mail))";
      "open_auction(bidder(increase),initial,current,itemref)";
    ]
  in
  List.iter
    (fun q ->
      let twig =
        let size = Tl_tree.Data_tree.label_count tree and find = Tl_tree.Data_tree.label_of_string tree in
        match Tl_twig.Query.parse ~size ~find q with Ok q -> q.Tl_twig.Query.twig | Error m -> failwith m
      in
      let naive = Plan.naive twig in
      let guided = Plan.greedy summary twig in
      Printf.printf "query: %s\n" q;
      Printf.printf "  naive plan :  %s\n" (Plan.pp ~names naive);
      Printf.printf "  guided plan:  %s\n" (Plan.pp ~names guided);
      Printf.printf "  estimated cost: naive %.0f vs guided %.0f intermediate tuples\n"
        (Plan.estimated_cost summary naive)
        (Plan.estimated_cost summary guided);
      let naive_stats, naive_ms = Tl_util.Timer.time_ms (fun () -> Executor.run tree naive) in
      let guided_stats, guided_ms = Tl_util.Timer.time_ms (fun () -> Executor.run tree guided) in
      assert (naive_stats.Executor.result_count = guided_stats.Executor.result_count);
      Printf.printf "  executed:       naive %d vs guided %d tuples (%.1fx less work, %d results)\n"
        naive_stats.Executor.tuples_materialized guided_stats.Executor.tuples_materialized
        (float_of_int naive_stats.Executor.tuples_materialized
        /. Float.max 1.0 (float_of_int guided_stats.Executor.tuples_materialized))
        guided_stats.Executor.result_count;
      Printf.printf "  wall time:      naive %.1f ms vs guided %.1f ms\n\n" naive_ms guided_ms)
    queries;

  print_endline "The guided plan anchors each query on its most selective region,";
  print_endline "priced entirely from the 4-lattice summary - no data was touched";
  print_endline "until execution."
