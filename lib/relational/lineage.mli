(** Lineage (which-provenance) sets.

    A lineage is a set of [(input_relation, input_tid)] pairs — the "set
    of contributing tuples" provenance the paper adopts (its [43]). The
    executor threads a lineage through every operator when tracking is
    enabled; the [Off] state makes the common non-provenance path free.

    Costs: {!singleton} and {!union} allocate O(1) and compare nothing,
    so a join or a DISTINCT merge pays one node per output row. The set
    is deduplicated when it is read ({!to_list}, {!cardinal}) and when
    a group's lineages are merged ({!union_all}): O(k log k) over the k
    leaves gathered, duplicates included, after which it holds each
    contributing tuple once. *)

type t

(** Tracking disabled: absorbing under {!union}. *)
val off : t

(** The empty (but tracking) lineage. *)
val empty : t

val singleton : string -> int -> t

(** Set union; [Off] absorbs. O(1): duplicates stay until the set is
    read or grouped. *)
val union : t -> t -> t

(** Union of a group's lineages, deduplicated: a grouped row's lineage
    holds each contributing tuple once. *)
val union_all : t list -> t

(** Elements in lexicographic order, without duplicates; [[]] for
    [Off]. *)
val to_list : t -> (string * int) list

val cardinal : t -> int
val is_tracking : t -> bool
