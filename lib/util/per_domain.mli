(** Per-domain state owned by one instance.

    A value of type ['a t] hands every domain that calls {!get} a private
    ['a], made on that domain's first call.  Unlike a [Domain.DLS] key,
    which the runtime never frees, the per-domain values are held by the
    ['a t] itself and are collected with it: a {!Tl_core.Plan_cache} shard
    dies with the cache that owns it.

    {!get} after a domain's first call is lock-free: one read of the
    domain's id from a process-wide DLS key, one atomic load of an array
    indexed by that id, and one field read.  A first call
    takes the instance's mutex to publish a grown copy of that array. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create make]: each domain's value is [make ()], called on that
    domain by its first {!get}. *)

val get : 'a t -> 'a
(** The calling domain's value. *)

val all : 'a t -> 'a list
(** Every value made so far, newest first — including those of domains
    that have since terminated.  For read-side views (stats, audit
    merges), not for hot paths: it takes the mutex. *)
