(** Twig queries (the paper's [T_Q], §2.1).

    A twig is a rooted unordered node-labeled tree.  Labels are interned
    integers (normally shared with a {!Tl_tree.Data_tree.t}'s interner).
    Twigs are small — queries in the paper's workloads have 4 to 9 nodes —
    so the operations here favour clarity over asymptotics, except for the
    canonical-key machinery, which sits on the estimation hot path.

    {2 Canonical form}

    Twig matching ignores sibling order, so structurally equal twigs must
    compare equal regardless of how children were listed.  The canonical
    form orders every child list by the children's canonical encodings; the
    encoding (a bracketed string over label ids) is injective on canonical
    twigs.

    {2 Hash-consing}

    Canonicalization results are hash-consed: every distinct canonical
    encoding is interned process-wide into a dense integer id (a {!Key.t}),
    and each node caches its own key after first touch.  {!encode},
    {!compare}, {!equal}, {!hash} and {!is_canonical} are therefore O(1)
    amortized, and the derived-twig operations ({!induced}, {!remove},
    {!grow}) re-encode only the nodes they rebuild, merging the cached
    encodings of untouched subtrees.  The registry is append-only and
    mutex-guarded, so twigs may be keyed concurrently from a
    {!Tl_util.Pool} domain pool. *)

type memo
(** Per-node canonicalization cache; opaque.  Fresh nodes start unkeyed. *)

type t = private { label : int; children : t list; mutable memo : memo }

val leaf : int -> t

val node : int -> t list -> t

val size : t -> int
(** Number of nodes. *)

val depth : t -> int
(** Height in nodes; a single node has depth 1. *)

val width : t -> int
(** Maximum number of children of any node. *)

val labels : t -> int list
(** All labels, in preorder, with repetitions. *)

val canonicalize : t -> t
(** The hash-consed canonical representative: children sorted by canonical
    encoding, bottom-up.  Idempotent; structurally equal twigs map to the
    {e same} (physically shared) representative. *)

val is_canonical : t -> bool
(** True exactly for hash-consed representatives (every {!canonicalize},
    {!induced}, {!remove} and {!grow} result).  A structurally sorted node
    built by hand is keyed on first touch and then shares its
    representative, but is not itself [is_canonical]. *)

val encode : t -> string
(** Canonical key: canonicalizes, then prints as e.g. ["3(1,4(2))"].
    Cached — O(1) after the node's first touch. *)

val decode : string -> t
(** Inverse of {!encode}.  Raises [Invalid_argument] on malformed input.
    The result is canonical iff the input was produced by {!encode}. *)

val compare : t -> t -> int
(** Total order agreeing with structural equality modulo sibling order
    (lexicographic on canonical encodings, as the seed string path). *)

val equal : t -> t -> bool

val hash : t -> int
(** Hash of the canonical encoding; cached. *)

(** {2 Interned canonical keys}

    A {!Key.t} names one canonical twig: a dense process-wide integer id
    plus its cached encoding.  Summaries, estimator memos, adaptive caches
    and miner dedup tables key on {!Key.id} so their hot paths hash and
    compare ints; {!Key.encode} recovers the string form for the edges
    (serialization, probes, rendering) without re-canonicalizing. *)
module Key : sig
  type twig = t

  type t

  val twig : t -> twig
  (** The canonical representative twig. *)

  val id : t -> int
  (** Dense process-wide id; equal twigs (modulo sibling order) share it. *)

  val encode : t -> string
  (** The canonical encoding, without recomputation. *)

  val equal : t -> t -> bool

  val compare : t -> t -> int
  (** Same order as {!Twig.compare} (lexicographic on encodings). *)

  val hash : t -> int

  val size : t -> int
  (** Node count of the keyed twig; computed at intern time, O(1). *)

  val interned : unit -> int
  (** Number of distinct canonical twigs interned so far, process-wide. *)

  (** {3 Leaf-pair splits}

      The recursive decomposition (Fig. 4) splits a twig [T] on a pair
      [(u, v)] of degree-1 nodes ({!degree_one}) into [T-u], [T-v] and
      their common part [T-u-v].  A split depends only on the canonical
      twig, so each key caches its splits: a split is built on the first
      {!split} call for its pair, once per process (racing builders
      agree), and every later call is one atomic load.  Building one pair
      never builds another.  Each build adds 1 to the
      [twig.leaf_pairs_built] counter. *)

  type split = private {
    t1 : t;  (** [T-u] *)
    t2 : t;  (** [T-v] *)
    cap : t;  (** [T-u-v], the part the two sides share *)
    twin : bool;
        (** [u] and [v] are same-labeled siblings: both sides grow the
            same edge type, which Theorem 1 must place injectively *)
  }

  val leaf_pairs : t -> int
  (** Number of splits: [L(L-1)/2] for [L] degree-1 nodes, and 0 for
      twigs below three nodes, whose [T-u-v] would be empty. *)

  val split : t -> int -> split
  (** [split k i] is the [i]-th split, with pairs ordered as
      [(d0,d1); (d0,d2); ...; (d1,d2); ...] over [degree_one] = [d0; d1; ...].
      Raises [Invalid_argument] unless [0 <= i < leaf_pairs k]. *)
end

val key : t -> Key.t
(** Canonicalize and intern; O(1) for already-keyed nodes. *)

val map_labels : (int -> int) -> t -> t
(** Relabel; the result is {e not} re-canonicalized. *)

val is_path : t -> bool
(** True when every node has at most one child. *)

val path_labels : t -> int list option
(** For a path twig, its labels root-to-leaf. *)

val of_path : int list -> t
(** Build a path twig.  Raises [Invalid_argument] on an empty list. *)

val automorphisms : t -> int
(** Number of root-preserving automorphisms — the product over nodes of the
    factorials of identical-child-subtree multiplicities.  Relates
    injective-match counts to occurrence-subset counts in tests. *)

val pp : names:(int -> string) -> t -> string
(** Render with tag names, e.g. ["a(b,c(d))"]. *)

(** {2 Node-indexed view}

    Decomposition needs to address individual twig nodes.  The indexed view
    exposes the canonical preorder: node 0 is the root, children appear in
    canonical order.  All indices below refer to this preorder. *)

type indexed = private {
  twig : t;  (** the canonical twig the indices refer to *)
  node_labels : int array;
  parents : int array;  (** [-1] for the root *)
  kids : int list array;  (** children, in canonical preorder *)
  subtrees : t array;
      (** the (canonical, keyed) subtree rooted at each preorder index —
          reused wholesale by {!induced}/{!remove}/{!grow} when untouched *)
}

val index : t -> indexed
(** Canonicalizes, then indexes.  The view is built at most once per
    distinct canonical twig — it is cached on the twig's {!Key.t}, so at
    steady state this is a key-field read plus one atomic load.  Treat the
    arrays as read-only. *)

val degree_one : indexed -> int list
(** Preorder indices of nodes of degree 1: the leaves, plus the root when it
    has exactly one child.  These are the removable nodes of the recursive
    decomposition (§3.2).  For a twig of size >= 2 there are always at least
    two. *)

val remove : indexed -> int -> t
(** [remove ix i] removes the degree-1 node [i]: dropping a leaf, or
    promoting the root's only child when [i] is the root.  The result is
    canonical.  Raises [Invalid_argument] when [i] is not degree-1 or the
    twig has a single node. *)

val induced : indexed -> int list -> t
(** [induced ix nodes] is the subtree induced by the given preorder indices,
    which must be non-empty and connected (contain, for each non-minimal
    node, its parent).  Raises [Invalid_argument] otherwise.  Canonical. *)

val grow : indexed -> int -> int -> t
(** [grow ix i l] attaches a fresh [l]-labeled leaf under node [i];
    canonical result.  This is the miner's extension step. *)
