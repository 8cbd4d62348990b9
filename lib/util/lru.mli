(** Bounded LRU maps with O(1) lookup, insert, and eviction.

    The recency order is an intrusive doubly-linked list threaded through
    the hash-table entries, so every operation — including evicting the
    least-recently-used entry when a full map takes a new key — is
    constant-time.  {!Tl_core.Adaptive}'s feedback cache and the compiled
    plan cache ({!Tl_core.Plan_cache}) both sit on this structure, which is
    what keeps their eviction policies coordinated: one mechanism, one set
    of stats, the same meaning of "oldest".

    A map is {e not} synchronized; share one across domains only behind a
    caller-owned lock — which is exactly what both named consumers do:
    {!Tl_core.Plan_cache} guards its table with its mutex, and
    {!Tl_core.Adaptive} wraps every cache operation in an internal lock. *)

module Make (H : Hashtbl.HashedType) : sig
  type key = H.t

  type 'a t

  val create : capacity:int -> 'a t
  (** An empty map evicting beyond [capacity] entries.  Raises
      [Invalid_argument] when [capacity < 1]. *)

  val capacity : 'a t -> int

  val size : 'a t -> int

  val find : 'a t -> key -> 'a option
  (** Lookup, marking the entry most-recently-used and counting a hit or a
      miss. *)

  val peek : 'a t -> key -> 'a option
  (** Lookup without touching recency or the hit/miss counters. *)

  val mem : 'a t -> key -> bool
  (** Membership without touching recency or the hit/miss counters. *)

  val add : 'a t -> key -> 'a -> unit
  (** Insert or replace, marking the entry most-recently-used.  When a new
      key lands in a full map the least-recently-used entry is evicted
      first (O(1)). *)

  val remove : 'a t -> key -> unit

  val clear : 'a t -> unit
  (** Drop every entry.  Does not reset the counters. *)

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  (** Fold over the entries, most recent first. *)

  val validate : 'a t -> (unit, string) result
  (** Structural integrity check: the recency list must visit exactly the
      table's entries, forward and backward links must agree, and the size
      must respect the capacity.  Always [Ok] under the documented
      single-owner discipline — the point of the check is to {e catch}
      undisciplined sharing, so concurrency stress tests can assert that a
      lock-wrapped map survives what an unsynchronized one would not. *)

  type stats = {
    size : int;
    capacity : int;
    hits : int;  (** {!find} calls answered *)
    misses : int;  (** {!find} calls not answered *)
    evictions : int;  (** entries displaced by {!add} on a full map *)
  }

  val stats : 'a t -> stats
end
