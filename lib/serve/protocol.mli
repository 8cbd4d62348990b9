(** The query-line protocol: how a batch of query lines is routed,
    evaluated and answered.  Every serving front end goes through
    {!answer} — the TCP {!Server}, the stdin [serve] loop and the
    [batch] subcommand — so the routing rule and the pinning policy
    below are defined once.

    {b Lines.}  A query line is [[NAME:]query], the query in twig or XPath
    syntax ({!Registry.parse_query}).  Framing — blank lines flushing a
    batch, ['#'] comments, control lines — belongs to each front end; this
    module sees only the query lines of one flushed batch.

    {b Routing.}  A [NAME:] prefix that names an installed dataset routes
    the rest of the line (trimmed) to that dataset.  Every other line —
    including one whose prefix names nothing — is a query, whole, for the
    default dataset, the registry's first-installed one
    ({!Registry.default}).

    {b Pinning.}  {!answer} groups the lines by routed dataset and pins
    each group's current bundle once for the whole call: a concurrent
    {!Registry.swap} lands between calls, never inside one, and every
    answer carries the epoch it was actually served from.  Each group is
    parsed with one {!Registry.parse_queries} and evaluated with one
    {!Registry.batch}; answers come back in input order.

    {b Wire rendering} (the TCP front end).  Each answer is one line:
    tab-separated [ESTIMATE EPOCH DATASET SCHEME], the estimate printed
    as [%.17g] prints it, so it round-trips bit-exactly (an integral
    estimate in [[+0, 1e15)] is written by [string_of_int], which gives
    the same digits), or [error<TAB>message]
    for a line that does not parse.  In JSON mode each answer is instead
    a one-line object, [{"estimate":..,"epoch":..,"dataset":..,"scheme":..}]
    or [{"error":..}].  The server ends every batch with one blank line. *)

type served = private {
  epoch : int;
  dataset : string;
  scheme : string;
  suffix : string;  (** the text answer's tail, [\tEPOCH\tDATASET\tSCHEME\n] *)
}
(** The bundle a routed group was served from.  One value per group per
    call, so the text tail is formatted once per group, not per line. *)

type answer = Estimate of float * served | Failed of string

val answer : ?pool:Tl_util.Pool.t -> Registry.t -> string array -> answer array
(** [answer registry lines] answers one batch of query lines, in input
    order, by the routing and pinning rules above.  When no dataset is
    installed, lines without a routed prefix answer [Failed].  A line that
    does not parse answers [Failed] with the parser's diagnosis.  Each
    call looks each dataset it routes to up once; a prefix that names no
    dataset costs one lookup per line, so a batch stays linear whatever
    prefixes a client sends.  [pool] is passed to {!Registry.batch}. *)

val render : json:bool -> Buffer.t -> answer -> unit
(** Append one answer's wire line (newline included). *)

val render_error : json:bool -> Buffer.t -> string -> unit
(** Append an error line, as {!render} does for [Failed]. *)

val busy_line : json:bool -> string
(** The one-line answer to a connection shed by admission control. *)
