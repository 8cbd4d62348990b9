(** An XPath frontend for twig queries.

    Twig queries are exactly the XPath fragment built from child steps and
    nested structural predicates — the paper's own examples are written in
    this style ([//laptop[brand][price]], Fig. 1).  This module parses that
    fragment and converts it to the twig AST:

    {v
      //open_auction[bidder/increase][seller]
        ==  open_auction(bidder(increase),seller)
      /site/people/person[address/city]
        ==  site(people(person(address(city))))   (anchored)
    v}

    Grammar (whitespace-insensitive):
    {v
      query     ::= ("/" | "//")? step ("/" step)*
      step      ::= name predicate*
      predicate ::= "[" step ("/" step)* "]"
    v}

    A leading [//] (or none) asks for matches anywhere — precisely the twig
    match semantics of Definition 1.  A leading [/] anchors the first step
    at the document root: the conversion records this in {!anchored}; since
    an XML document has a single root element, an anchored query whose
    first tag is the root tag has the same selectivity as the unanchored
    twig, and one whose first tag differs has selectivity 0 — the caller
    decides with {!anchored} and the root tag.

    Out-of-fragment constructs are rejected with a descriptive error:
    descendant axes beyond the leading position ([a//b]), wildcards ([*]),
    attribute axes ([@id]), value predicates ([\[price > 100\]]), and
    positional predicates ([\[1\]]) — the paper's data model has no values
    or order, so these have no meaning against a lattice summary.  For
    value predicates see [Tl_values]. *)

type t = {
  anchored : bool;  (** the query began with a single [/] *)
  ast : Twig_parse.ast;
}

val parse : string -> (t, string) result
(** Parse a query in the fragment above. *)

val to_string : t -> string
(** Render back as XPath (normalized: predicates for every branch). *)

val to_twig : intern:(string -> int option) -> t -> (Twig.t, string) result
(** Resolve tags to label ids, as {!Twig_parse.to_twig}. *)

val of_twig_ast : anchored:bool -> Twig_parse.ast -> t
