(** Small general-purpose helpers shared across the library. *)

val list_remove_at : int -> 'a list -> 'a list
(** [list_remove_at i xs] drops the element at index [i].  Raises
    [Invalid_argument] if [i] is out of bounds. *)

val list_insert_sorted : cmp:('a -> 'a -> int) -> 'a -> 'a list -> 'a list
(** Insert keeping the list sorted under [cmp]. *)

val list_take : int -> 'a list -> 'a list
(** First [n] elements (fewer if the list is shorter). *)

val list_unique : cmp:('a -> 'a -> int) -> 'a list -> 'a list
(** Sort and deduplicate. *)

val sum_floats : float list -> float

val round_to : int -> float -> float
(** [round_to d v] rounds [v] to [d] decimal places. *)

val human_bytes : int -> string
(** Render a byte count as ["512 B"], ["20.1 KB"], ["3.4 MB"]. *)

val clamp : lo:'a -> hi:'a -> 'a -> 'a

val string_contains : needle:string -> string -> bool
(** Naive substring search; the empty needle is found everywhere. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    ['"'] and ['\\'] are backslash-escaped, newline, tab and carriage
    return use their short escapes, and every other byte below 0x20 is
    written as [\u00XX].  Bytes from 0x20 up pass through unchanged. *)

val word_bytes : int
(** Bytes per OCaml heap word on this (64-bit) platform. *)

val heap_string_bytes : string -> int
(** Heap footprint of a string block: header word plus the padded payload.
    Used by the summary memory audits so the paper's "Utilization"
    comparisons charge what the runtime actually allocates. *)

val heap_block_bytes : int -> int
(** Heap footprint of a block with [fields] words (header included) — a
    record, a tuple, or one hash-table bucket cell. *)
