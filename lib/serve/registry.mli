(** The dataset registry: epoch-versioned serving bundles with hot reload.

    A registry names a collection of {e bundles}.  Each bundle is one
    immutable serving unit — summary, compiled-plan cache ({!Engine}),
    adaptive feedback state, audit ring, and drift monitor — stamped with
    a registry-wide monotonically increasing {e epoch}.  {!swap} (and the
    file-loading {!load}/{!reload}) builds and validates a replacement
    bundle {e off} the serving path and installs it with a single atomic
    pointer store:

    - a batch holds the bundle it started with, so in-flight work always
      finishes on the epoch it began on, which only the bundle records.
      No plan compiled under one summary is evaluated under another: a
      bundle's {!Tl_core.Plan_cache} serves one summary and asserts, in
      debug builds, that every plan it serves carries that summary's
      stamp;
    - new batches pick up the new bundle on their next {!find};
    - a failed load or validation leaves the old bundle serving untouched
      — graceful degradation, surfaced through the
      [tl_registry_reload_failures_total] counter and a latching
      reload-failure {!alarm} (which does {e not} flip [/healthz]: the old
      epoch is still healthy).

    Label safety: a bundle's label space is one table of tag names and
    their ids, taken from the backing document or, for a summary-only
    dataset, from the summary file.  Installing a summary whose twigs
    reference labels outside that space is rejected with a descriptive
    error instead of silently serving wrong selectivities; so, on the
    file-loading path, is a summary whose embedded label {e names} the
    routed document lacks.

    Metrics: the [registry.datasets] and [registry.alarm] gauges, the
    [registry.reloads_total] / [registry.reload_failures_total] counters,
    and a [registry.epoch{dataset="<name>"}] gauge per dataset. *)

type t

type bundle
(** One immutable serving unit.  Everything reachable from a bundle —
    summary, engine, adaptive state, audit log, monitor — belongs to its
    epoch and is never mutated by a subsequent {!swap}; holding a bundle
    across a swap is safe and serves consistent (if stale) answers.

    A bundle has adaptive feedback state only when its drift monitor
    feeds it: a document-backed dataset under a config with
    [sample_rate > 0] and no [drift_tree].  Every other bundle answers
    each query with its compiled plan's constant. *)

type config = {
  scheme : Tl_core.Estimator.scheme;  (** estimation scheme for all bundles *)
  k : int;  (** lattice depth when mining a document *)
  plan_capacity : int option;  (** per-bundle plan-cache capacity *)
  sample_rate : float;  (** drift-monitor sampling rate (0 = off) *)
  drift_threshold : float;  (** drift-alarm p90 threshold *)
  drift_tree : Tl_tree.Data_tree.t option;
      (** replay sampled queries against this document (remapped by tag
          name) instead of each dataset's own oracle *)
}

val default_config : config
(** [default_scheme], [k = 4], default capacities, monitoring off. *)

val create : ?config:config -> unit -> t
(** An empty registry. *)

val config : t -> config

(** {2 Installing and swapping} *)

val install_document :
  ?pool:Tl_util.Pool.t -> t -> name:string -> ?source:string -> Tl_tree.Data_tree.t -> (bundle, string) result
(** Mine [tree] at the configured [k] and install the result as dataset
    [name] (creating it, or swapping an existing one).  [source] records
    where the dataset came from, enabling {!reload}. *)

val install_summary :
  t -> name:string -> ?source:string -> names:string array -> Tl_lattice.Summary.t -> (bundle, string) result
(** Install a pre-built summary as a {e summary-only} dataset: label ids
    in the summary's twigs index [names].  Summary-only bundles estimate
    and audit like document-backed ones but have no adaptive feedback or
    exact oracle (so no drift monitor unless [config.drift_tree] is set). *)

val swap : t -> string -> Tl_lattice.Summary.t -> (bundle, string) result
(** [swap t name summary] installs a fresh bundle around [summary] for
    the existing dataset [name], keeping its label space and source.  The
    new summary is validated against that label space first; on [Error]
    the old bundle keeps serving and the reload-failure alarm latches.
    Returns the bundle now current for [name]. *)

val load : ?pool:Tl_util.Pool.t -> t -> string -> string -> (bundle, string) result
(** [load t name path] routes [path] into dataset [name]: a [*.xml] path
    is streamed into a tree ({!Tl_tree.Tree_load}) and mined
    ({!install_document}, across [pool]); anything else is read as a
    serialized summary ({!Tl_lattice.Summary_io}).  A summary routed to a
    document-backed dataset is re-keyed into the document's interner by
    tag {e name} and rejected if it names a tag the document lacks; a
    summary routed to a new or summary-only dataset brings its own label
    table.  All failures (I/O, parse, validation) degrade gracefully:
    [Error] with the old bundle — if any — still serving. *)

val reload : ?pool:Tl_util.Pool.t -> t -> string -> (bundle, string) result
(** Re-run {!load} from the dataset's recorded source path. *)

val reload_all : ?pool:Tl_util.Pool.t -> t -> (string * (bundle, string) result) list
(** {!reload} every dataset that has a recorded source, in installation
    order (datasets installed programmatically are skipped). *)

(** {2 Lookup} *)

val find : t -> string -> bundle option
(** The current bundle of dataset [name] — one lock-protected table probe
    plus one atomic read.  Callers serve a whole batch from the bundle
    they got, picking up swaps only between batches. *)

val default : t -> bundle option
(** The first-installed dataset's current bundle (the serving default for
    queries that do not name a dataset). *)

val dataset_names : t -> string list
(** Installation order. *)

val list : t -> bundle list
(** Current bundles, in installation order. *)

val alarm : t -> bool
(** The latching reload-failure alarm: raised by the first failed
    {!swap}/{!load}/{!reload} and held until {!clear_alarm}.  Distinct
    from the per-bundle drift alarm ({!Monitor.alarm}). *)

val clear_alarm : t -> unit

val datasets_json : t -> string
(** The [/datasets] payload: a single JSON object listing every dataset's
    name, epoch, summary entry count, lattice depth, kind
    ([document]/[summary]), and drift-alarm state, plus the registry-wide
    reload alarm. *)

(** {2 Bundles} *)

val name : bundle -> string

val epoch : bundle -> int
(** The registry-wide epoch this bundle was installed at; strictly
    increasing across installs of any dataset. *)

val summary : bundle -> Tl_lattice.Summary.t

val engine : bundle -> Engine.t

val audit : bundle -> Audit.t

val monitor : bundle -> Monitor.t option

val adaptive : bundle -> Tl_core.Adaptive.t option

val tree : bundle -> Tl_tree.Data_tree.t option
(** The backing document ([None] for summary-only datasets). *)

val label_names : bundle -> string array
(** The bundle's label space, indexed by label id. *)

val parse_query : bundle -> string -> (Tl_twig.Twig.t * (float -> float), string) result
(** One query line in twig or XPath syntax, parsed against the bundle's
    label space by {!Tl_twig.Query.parse}, which also diagnoses syntax
    errors.  Nothing is written to the label space: a line naming a tag
    the dataset lacks parses to one shared twig whose estimate is exactly
    0.  The returned transform applies anchored-XPath scaling: against a
    document it mirrors {!Tl_core.Treelattice.estimate_text} exactly; a
    summary-only bundle scales by the root tag's own level-1 occurrence
    count instead (the document shape is unavailable).

    Valid lines of up to 512 bytes are cached per bundle, keyed by their
    exact text, in a mutex-guarded LRU as large as the bundle's plan
    cache, counted under [registry.parse_cache_hits] /
    [registry.parse_cache_misses] (a longer line is parsed uncached and
    counts as a miss).  The cache is born empty with its bundle, so a
    swap never serves a stale transform. *)

val parse_queries :
  bundle -> string array -> (Tl_twig.Twig.t * (float -> float), string) result array
(** {!parse_query} over each line, in order, with the same results and
    counter totals.  A call takes the cache lock once (again only after
    each miss, which parses unlocked) and bumps each counter once, not
    once per line. *)

val batch : ?pool:Tl_util.Pool.t -> bundle -> Tl_twig.Twig.t array -> float array
(** {!Engine.batch} through the bundle's full serving stack: adaptive
    feedback as the [?extra] source (only where a monitor feeds it; see
    {!bundle}), the audit ring, and the drift monitor when configured.  Also bumps the
    bundle's [serve.queries] / [serve.batches] counters, labelled with its
    dataset. *)
