(** TreeLattice: the public front-end of the library.

    A [Treelattice.t] ties together a data tree, its lattice summary, and
    an exact-counting context, and answers selectivity queries written
    either as {!Tl_twig.Twig.t} values or in the textual twig syntax
    ([laptop(brand,price)]).

    Typical use:
    {[
      let tree = Tl_tree.Tree_load.of_file "auction.xml" in
      let tl = Treelattice.build ~k:4 tree in
      match Treelattice.estimate_string tl "laptop(brand,price)" with
      | Ok estimate -> Printf.printf "~%.1f matches\n" estimate
      | Error msg -> prerr_endline msg
    ]} *)

type t

val build : ?pool:Tl_util.Pool.t -> ?k:int -> Tl_tree.Data_tree.t -> t
(** Mine the document into a [k]-lattice (default 4) and wrap it.  [pool]
    parallelizes the mining step; the result is identical either way. *)

val of_summary : Tl_tree.Data_tree.t -> Tl_lattice.Summary.t -> t
(** Wrap a pre-built (possibly pruned or merged) summary.  The summary's
    label ids must come from [tree]'s interner. *)

val tree : t -> Tl_tree.Data_tree.t

val summary : t -> Tl_lattice.Summary.t

val k : t -> int

val default_scheme : Estimator.scheme
(** [Estimator.Recursive_voting] — the paper's best performer overall. *)

val estimate : ?scheme:Estimator.scheme -> t -> Tl_twig.Twig.t -> float
(** Estimated selectivity of the twig. *)

val estimate_interval : t -> Tl_twig.Twig.t -> Estimator.interval
(** The voting estimate with its decomposition-spread sensitivity interval
    (see {!Estimator.estimate_interval}). *)

val exact : t -> Tl_twig.Twig.t -> int
(** Exact selectivity, by full twig matching over the document. *)

val parse_query : t -> string -> (Tl_twig.Twig.t, string) result
(** Parse the textual syntax against the document's tags.  A syntactically
    valid query naming a tag absent from the document is {e not} an error:
    it parses to a twig that trivially has selectivity 0, mirroring how an
    estimator must handle negative workloads.  [Error] is reserved for
    syntax errors. *)

val estimate_string : ?scheme:Estimator.scheme -> t -> string -> (float, string) result

val exact_string : t -> string -> (int, string) result

val pp_twig : t -> Tl_twig.Twig.t -> string
(** Render a twig with the document's tag names. *)

val estimate_xpath : ?scheme:Estimator.scheme -> t -> string -> (float, string) result
(** Estimate an XPath query; an anchored one is scaled by
    {!anchored_scale}. *)

val anchored_scale : Tl_tree.Data_tree.t -> Tl_twig.Twig.t -> float -> float
(** [anchored_scale tree twig estimate] turns the estimate of [twig]
    anywhere in [tree] into the estimate of the anchored XPath query
    [/twig]: 0 when [twig]'s root tag is not the document root's, and
    otherwise [estimate] divided by the number of nodes carrying that tag
    (exact whenever the root tag occurs once, the normal case). *)

val exact_xpath : t -> string -> (int, string) result
(** Exact count of an XPath query; anchoring is honoured exactly (matches
    rooted at the document root only). *)

val prune : ?scheme:Estimator.scheme -> t -> delta:float -> t
(** Replace the summary with its δ-pruned version (see {!Derivable});
    for lossless δ=0 pruning, pass the scheme you will estimate with. *)

val add_document : ?pool:Tl_util.Pool.t -> t -> Tl_tree.Data_tree.t -> t
(** Incremental maintenance: fold another document's statistics into the
    summary.  The new document is re-labeled into this instance's label
    space by tag name (new tags are added); exact counting still runs
    against the original tree only.  Counts become forest-level statistics
    — the sum over both documents — matching what mining the concatenated
    forest would produce. *)
