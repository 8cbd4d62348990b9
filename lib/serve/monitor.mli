(** The online accuracy-drift monitor.

    Samples a configurable fraction of served queries, replays each
    sample against an exact oracle, and keeps the relative errors
    ([|estimate - exact| / max 1 |exact|]) in a sliding window.  The
    window's p50/p90/p99 are published as [drift.rel_error_p*_ppm]
    gauges (and every sample feeds the [drift.rel_error_ppm] histogram);
    when the p90 crosses the threshold with enough samples in the window
    the alarm is raised — [/healthz] on the {!Tl_obs.Exporter} flips to
    503 and [drift.alarm] goes to 1.  Every series carries the
    monitor's [dataset] label, so monitors of different datasets never
    overwrite each other's.

    Thread-safe for sampling decisions and observations; the oracle
    replay itself runs on the caller (see {!consider}).  With a fixed
    seed and a fixed query sequence the sampling trace is deterministic,
    which the golden test in [test/test_serve.ml] relies on. *)

type t

val create :
  ?sample_rate:float ->
  ?window:int ->
  ?threshold:float ->
  ?min_samples:int ->
  ?seed:int ->
  dataset:string ->
  oracle:(Tl_twig.Twig.Key.t -> float) ->
  unit ->
  t
(** A monitor sampling [sample_rate] (default 0.01) of considered
    queries, holding the last [window] (default 512) relative errors,
    alarming when the window p90 reaches [threshold] (default 1.0, i.e.
    100% relative error) with at least [min_samples] (default 16) errors
    in the window.  [seed] (default 42) drives the deterministic
    sampling rng.  Registers the [tl_drift_*{dataset="..."}] series and
    sets [dataset]'s gauges to 0, so an idle engine's scrape already shows
    the drift surface and a rebuilt bundle's monitor starts from an empty
    window. *)

val oracle_of_tree : Tl_tree.Data_tree.t -> Tl_twig.Twig.Key.t -> float
(** An exact oracle counting matches in [tree].  Owns a private
    {!Tl_twig.Match_count} context behind a lock (counting contexts are
    not domain-safe), so replays serialize — acceptable for a sampled
    slow path. *)

val oracle_of_adaptive : Tl_core.Adaptive.t -> Tl_twig.Twig.Key.t -> float
(** An exact oracle routed through {!Tl_core.Adaptive.observe_exact}:
    each replay is also recorded as feedback, closing the
    workload-driven refinement loop.  Single-domain by the adaptive
    layer's contract — the engine only invokes oracles from the batch
    caller domain, which satisfies it. *)

val consider : t -> Tl_twig.Twig.Key.t -> float option
(** Draw the sampling decision for one served query; on [Some exact] the
    oracle has been replayed (on the calling domain — call this outside
    any worker pool).  Returns [None] without touching the rng when
    [sample_rate <= 0], so an unmonitored engine pays one float
    compare. *)

val observe : t -> exact:float -> estimate:float -> float
(** Push one (exact, estimate) pair into the error window, update the
    quantile gauges and the alarm, and return the relative error. *)

val quantile : t -> float -> float
(** The [q]-quantile of the current error window ([nan] when empty). *)

val alarm : t -> bool
(** Whether the drift alarm is currently raised. *)

val sample_rate : t -> float

val threshold : t -> float

type stats = {
  samples : int;  (** observations ever made *)
  window_n : int;  (** errors currently in the window *)
  p50 : float;
  p90 : float;
  p99 : float;
  alarm : bool;
  alarm_transitions : int;  (** times the alarm has been raised *)
}

val stats : t -> stats

val pp_stats : stats -> string
(** One human-readable summary line. *)
