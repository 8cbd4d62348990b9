(** Combinators for schema-driven random document generation.

    A {!gen} produces one element; a {!kids} produces a child-element list.
    Generators compose bottom-up into a document schema whose structural
    statistics (alphabet, fan-out distributions, optionality, sibling
    correlation) mimic a target dataset — see {!Nasa}, {!Imdb}, {!Psd},
    {!Xmark}.  All randomness flows through the supplied
    {!Tl_util.Xorshift.t}, so generation is reproducible from a seed. *)

type gen = Tl_util.Xorshift.t -> Tl_xml.Xml_dom.element

type kids = Tl_util.Xorshift.t -> Tl_xml.Xml_dom.element list

(** Child-count distributions. *)
type count =
  | Const of int
  | Uniform of int * int  (** inclusive bounds *)
  | Geometric of float * int  (** success probability, hard cap; mean ~ (1-p)/p *)
  | Zipf of int * float  (** [Zipf (n, s)]: skewed counts in [1, n] with exponent [s] *)
  | Shifted of int * count  (** add a constant offset *)

val sample_count : Tl_util.Xorshift.t -> count -> int

val elem : string -> kids list -> gen
(** An element whose children are the concatenation of the child groups. *)

val leaf : string -> gen

val one : gen -> kids
(** Exactly one child. *)

val opt : float -> gen -> kids
(** Present with the given probability. *)

val repeat : count -> gen -> kids
(** Independent copies, count drawn from the distribution. *)

val choice : (gen * float) list -> kids
(** Exactly one child, chosen by weight. *)

val group : kids list -> kids
(** Concatenation, for bundling under {!cond}. *)

val nothing : kids

val cond : float -> then_:kids -> else_:kids -> kids
(** The correlation device: with probability [p] generate the whole
    [then_] bundle, otherwise the whole [else_] bundle.  All children inside
    a bundle co-occur, which is exactly what breaks the estimators'
    conditional-independence assumption. *)

val element_count : Tl_xml.Xml_dom.element -> int
(** Number of element nodes in a generated subtree. *)

val generate_document :
  root:string ->
  record:gen ->
  ?prologue:gen list ->
  target:int ->
  seed:int ->
  unit ->
  Tl_xml.Xml_dom.element
(** Build [<root>] holding the [prologue] elements (generated once) followed
    by as many [record] elements as needed to reach [target] total element
    nodes (always at least one record).  This is how dataset size is scaled
    precisely. *)
