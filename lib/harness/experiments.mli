(** Drivers for every table and figure of the paper's evaluation (§5).

    A {!suite} prepares the four datasets once (generation, lattice mining,
    TreeSketches construction, workload sampling) and the experiment
    functions render each artifact as a text report.  The mapping from
    experiment id to paper artifact is DESIGN.md §4; EXPERIMENTS.md records
    paper-vs-measured values. *)

type config = {
  seed : int;
  target : int;  (** generated element count per dataset *)
  queries_per_size : int;  (** positive workload width *)
  sizes : int list;  (** query sizes for Figs. 7-9 (paper: 4-8) *)
  k : int;  (** lattice depth (paper default: 4) *)
  table2_depth : int;  (** mining depth for Table 2 (paper: 5) *)
  sketch_budget : int;  (** TreeSketches memory budget in bytes (paper: 50 KB) *)
  fig10b_sizes : int list;  (** query sizes for Fig. 10(b) (paper: 4-9) *)
}

val default_config : config
(** The full reproduction: 40k-element datasets, 40 queries per size. *)

val quick_config : config
(** A seconds-scale configuration for tests and smoke runs. *)

(** One prepared dataset: document, tree, summary, serving engine,
    synopsis, workloads, and the construction timings that feed Table 3. *)
type env = {
  dataset : Tl_datasets.Dataset.t;
  document : Tl_xml.Xml_dom.element;
  tree : Tl_tree.Data_tree.t;
  ctx : Tl_twig.Match_count.ctx;
  summary : Tl_lattice.Summary.t;
  engine : Tl_serve.Engine.t;
      (** plan-cached front over [summary]; the lattice schemes in every
          figure estimate through it (bit-identical to [Estimator.estimate]) *)
  lattice_ms : float;
  sketch : Tl_sketch.Synopsis.t;
  sketch_ms : float;
  workloads : Tl_workload.Workload.t list;
}

type suite

val make_suite :
  ?pool:Tl_util.Pool.t -> ?datasets:Tl_datasets.Dataset.t list -> config -> suite
(** Prepare every dataset (default: all four).  This is the expensive
    step; each experiment below is cheap against a prepared suite.
    [pool] parallelizes summary construction here and the per-query
    workload loops of every experiment run against the suite; all
    reported numbers except wall-clock timings are identical with or
    without it. *)

val suite_config : suite -> config

val envs : suite -> env list

val prepare : ?pool:Tl_util.Pool.t -> config -> Tl_datasets.Dataset.t -> env
(** Prepare a single dataset outside a suite. *)

(** {2 Experiments} — each renders a self-contained text report. *)

val table1 : suite -> string
(** Dataset characteristics: generated vs paper elements and sizes. *)

val table2 : suite -> string
(** Occurring subtree patterns per lattice level. *)

val table3 : suite -> string
(** Summary construction time and memory utilization, TreeLattice vs
    TreeSketches. *)

val fig7 : suite -> string
(** Average estimation error vs query size, per dataset and estimator. *)

val fig8 : suite -> string
(** Error CDF: fraction of queries under fixed error thresholds. *)

val fig9 : suite -> string
(** Average estimation response time vs query size. *)

val fig10a : suite -> string
(** Lattice size with and without 0-derivable patterns, per dataset. *)

val fig10b : suite -> string
(** Accuracy of the pruned deeper lattice ("OPT") on Nasa. *)

val fig10c : suite -> string
(** IMDB summary size under δ ∈ {0, 10, 20, 30}%. *)

val fig10d : suite -> string
(** IMDB estimation quality under the same δ sweep. *)

val negative : suite -> string
(** Accuracy on zero-selectivity workloads (§5.1 text). *)

val lemma4 : suite -> string
(** Markov-path equivalence check on sampled path queries. *)

(** {2 Ablations beyond the paper} (DESIGN.md §6)

    The lattice-depth ([ablation-k]) and leaf-pair ([ablation-pairs])
    ablations run by id through {!run}. *)

val incremental : suite -> string
(** Incremental maintenance: mine half a dataset, add the other half with
    {!Tl_core.Treelattice.add_document}, verify count additivity, and
    compare against the initial build cost. *)

val pathcmp : suite -> string
(** The classical Markov path table (related work) vs TreeLattice: equal on
    path queries of matching order, blind on branching twigs. *)

val adaptive : suite -> string
(** Workload-adaptive estimation (future work #3): error over a skewed
    query stream with feedback, before and after the cache warms. *)

val joinopt : suite -> string
(** Estimate-guided join ordering vs naive plans: the paper's first
    motivating application, measured in materialized intermediate
    tuples. *)

val all_experiments : (string * string * (suite -> string)) list
(** [(id, title, driver)] in report order. *)

val run : suite -> string -> string option
(** Run one experiment by id. *)

val run_all : suite -> string
(** Every experiment, concatenated in order. *)
