(** Query text to a twig: the one front end for both query syntaxes.

    The paper writes one query language two ways: as a twig
    ([laptop(brand,price)], {!Twig_parse}) and as XPath child steps with
    predicates ([//laptop[brand][price]], {!Xpath}).  Every reader of
    query text goes through this module, so the syntax choice and the tag
    resolution are decided once.

    {b Syntax.}  Text that starts with [/] is read as XPath first, other
    text as a twig first; when that syntax rejects the text the other is
    tried, and when both reject it the first one's diagnosis is the error.

    {b Tags.}  A tag [find] knows gets its id.  The distinct unknown tags
    get {e overflow} ids [size], [size + 1], ... in order of first
    appearance.  Nothing is written to the label space.  Overflow ids sort
    after every known id, so the canonical twig is the one that interning
    the unknown tags into a [size]-label table would give, and as no node
    carries an overflow id, the twig has selectivity 0. *)

type t = {
  twig : Twig.t;  (** canonical *)
  anchored : bool;  (** XPath text that began with a single [/] *)
  unknown : string list;  (** tags [find] did not know: the [i]th has id [size + i] *)
}

val parse : size:int -> find:(string -> int option) -> string -> (t, string) result
(** [parse ~size ~find text] reads [text] in either syntax against a label
    space of [size] labels whose names [find] resolves.

    A query may have at most 64 nodes; the paper's workloads use 4 to 9.
    A larger one is an [Error] naming its node count and the limit.  The
    bound is checked on the syntax tree, before any tag is resolved or the
    twig canonicalized: a canonical key holds the encoding of every
    subtree, so a path of depth d costs O(d{^2}) memory to key, and one
    deep line would otherwise exhaust a server's memory. *)

val resolver : size:int -> find:(string -> int option) -> string -> int
(** [resolver ~size ~find] is a fresh resolver for one query, assigning
    overflow ids as {!parse} does; for the value-twig syntax. *)

val name : size:int -> known:(int -> string) -> t -> int -> string
(** The tag name of a label of the parsed twig: [known] below [size]. *)
