(** The serve composition: a registry, its HTTP endpoint and the optional
    TCP {!Server}, started, controlled and stopped as one unit.  The
    [serve] subcommand keeps only argument parsing, signal handlers and
    its stdin loop.  Every report goes to stderr, prefixed [serve: ]. *)

(** One field per [serve] flag of the same name; [datasets] holds the
    validated [--dataset NAME=PATH] pairs, [listen] the TCP port. *)
type config = {
  xml : string option;
  datasets : (string * string) list;
  k : int;
  scheme : Tl_core.Estimator.scheme;
  sample_rate : float;
  drift_threshold : float;
  drift_xml : string option;
  port : int;
  port_file : string option;
  audit_out : string option;
  listen : int option;
  server_port_file : string option;
  server_workers : int;
  server_queue : int;
  json : bool;
}

type t

val start :
  ?pool:Tl_util.Pool.t ->
  ?ready:(t -> unit) ->
  load_tree:(string -> Tl_tree.Data_tree.t) ->
  config ->
  t
(** Install [xml] as ["default"], then [datasets]; then start the
    endpoint, then the TCP front-end, then hand the service to [ready],
    then write the port files.  [pool] mines every [.xml] dataset, at
    startup and on reload.  [load_tree] reads [xml] and [drift_xml].  A
    failed install is reported and raises [Failure] before anything has
    started.  A caller that must {!stop} on a signal stores the service
    in [ready], so no port file names a service it cannot drain; should
    [ready] raise, [start] stops the service and re-raises. *)

val registry : t -> Registry.t

val routes : t -> (string * (unit -> Tl_obs.Exporter.response)) list
(** [/audit] (each dataset's newest 256 records, tagged with it),
    [/healthz] (503 while any dataset's drift alarm is raised; a failed
    reload does not flip it) and [/datasets]. *)

val handle_control : t -> string -> unit
(** Run and report one [reload [NAME [PATH]]] control line; a failed
    reload leaves the previous epoch serving. *)

val report : t -> queries:int -> batches:int -> unit
(** The exit telemetry: totals, each drift monitor, the reload alarm. *)

val stop : t -> unit
(** Drain the TCP front-end, stop the endpoint, write [audit_out].
    Idempotent. *)
