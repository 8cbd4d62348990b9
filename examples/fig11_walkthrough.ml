(* The paper's §5.3 discussion (Fig. 11), reconstructed: why TreeLattice
   beats TreeSketches when fan-outs are heterogeneous.

   A TreeSketches synopsis stores one *average* child count per
   (cluster, cluster) edge.  When same-label nodes differ wildly — here,
   three b-nodes own only c-children while the fourth owns the d-children —
   a query that needs c and d under the same b multiplies two averages that
   never co-occur, and overestimates badly (the paper's example:
   1 x 4 x 3.5 x 3.5 x 2 = 98 against a true count of 8, >100% error).
   TreeLattice stores the joint count of the small twig b(c,d) itself, so
   the decomposition is anchored on the true joint distribution.

   Run with: dune exec examples/fig11_walkthrough.exe *)

module TB = Tl_tree.Tree_builder
module Treelattice = Tl_core.Treelattice
module Sketch_build = Tl_sketch.Sketch_build
module Sketch_estimate = Tl_sketch.Sketch_estimate

(* Document T in concise form:
     a
     +- b  (x3)  each with four c children, no d
     +- b  (x1)  with one c child and four d children *)
let document =
  TB.node "a"
    (TB.replicate 3 (TB.node "b" (TB.replicate 4 (TB.leaf "c")))
    @ [ TB.node "b" (TB.leaf "c" :: TB.replicate 4 (TB.leaf "d")) ])

let () =
  let tree = TB.build document in
  let tl = Treelattice.build ~k:3 tree in

  (* A generous budget: the synopsis still cannot keep the four b-nodes
     apart once they share a label partition, which is the point. *)
  let sketch = Sketch_build.build ~budget_bytes:64 ~refine_rounds:0 tree in
  (* With the label partition, cluster(b) holds all four b nodes:
     w(b->c) = (3*4 + 1)/4 = 3.25 and w(b->d) = 4/4 = 1. *)
  Printf.printf "TreeSketches synopsis: %d clusters, %d edges\n"
    (Tl_sketch.Synopsis.cluster_count sketch)
    (Tl_sketch.Synopsis.edge_count sketch);

  let query = "a(b(c,d))" in
  let twig =
    match Treelattice.parse_text tl query with Ok q -> q.Tl_twig.Query.twig | Error m -> failwith m
  in
  let truth = Treelattice.exact tl twig in
  let lattice_estimate = Treelattice.estimate ~scheme:Tl_core.Estimator.Recursive tl twig in
  let voting_estimate = Treelattice.estimate ~scheme:Tl_core.Estimator.Recursive_voting tl twig in
  let sketch_estimate = Sketch_estimate.estimate sketch twig in
  Printf.printf "\nquery: %s\n" query;
  Printf.printf "  true selectivity          = %d\n" truth;
  Printf.printf "  TreeLattice (recursive)   = %.2f\n" lattice_estimate;
  Printf.printf "  TreeLattice (voting)      = %.2f\n" voting_estimate;
  Printf.printf "  TreeSketches (avg edges)  = %.2f\n" sketch_estimate;
  let err v = 100.0 *. Float.abs (v -. float_of_int truth) /. float_of_int truth in
  Printf.printf "  errors: TreeLattice %.1f%%, TreeSketches %.1f%%\n\n" (err lattice_estimate)
    (err sketch_estimate);

  (* Show the lattice entries that anchor the estimate, as in Fig. 11(c). *)
  let show q =
    let twig = (Result.get_ok (Treelattice.parse_text tl q)).Tl_twig.Query.twig in
    Printf.printf "  sigma(%-8s) = %d\n" q (Treelattice.exact tl twig)
  in
  print_endline "lattice entries used by the decomposition:";
  List.iter show [ "a(b)"; "b(c,d)"; "b" ];
  print_endline "\nestimate = sigma(a(b)) * sigma(b(c,d)) / sigma(b)  -- Theorem 1";
  print_endline "TreeSketches instead multiplies the averages w(b->c) * w(b->d),";
  print_endline "which assumes every b-node looks like the cluster mean."
