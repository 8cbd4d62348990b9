(** The independent test oracle: the seed string-keyed estimation path.

    This module re-implements the decomposition estimators exactly as they
    were before canonical twig keys were hash-consed and before estimates
    were compiled into plans: every canonicalization re-encodes its
    subtree, every memo and summary lookup hashes a full encoding string,
    and each scheme is evaluated directly by recursion over the twig.  It
    operates on a private twig copy type, so the interning in
    {!Tl_twig.Twig} cannot leak in and make it artificially fast.  It is
    linked only by the tests, the fuzz harness and the bench; the shipped
    library has one evaluator, {!Tl_core.Estimator.Plan}.

    Two consumers:
    - the qcheck differential suite and the fuzz harness assert {!estimate}
      is {e bit-identical} to {!Tl_core.Estimator.estimate} for every
      scheme, with and without an [?extra] feedback source;
    - the benchmark's estimation-latency section measures the interned-key
      speedup against this path — the real before, not a strawman. *)

type t
(** A string-keyed snapshot of a lattice summary. *)

val of_summary : Tl_lattice.Summary.t -> t

val estimate :
  ?extra:(string -> float option) ->
  t ->
  Tl_core.Estimator.scheme ->
  Tl_twig.Twig.t ->
  float
(** Seed-path estimate of the query's selectivity.  [extra] is keyed by
    canonical encoding, as the seed's was. *)
