(** Growable bit vectors — null bitmaps for the typed column store.

    One bit per row packed into [Bytes], plus a maintained set-bit count
    so kernels can test "no NULLs in this column" in O(1) and pick a
    branch-free variant. *)

type t

val create : unit -> t
val length : t -> int

(** Number of set bits. *)
val count : t -> int

(** [get t i] is bit [i]; [false] for any index outside [0, length t) —
    which lets null-free views share {!empty}. *)
val get : t -> int -> bool

val push : t -> bool -> unit

(** Drop all bits at indices [>= n]; no-op when [n >= length t]. *)
val truncate : t -> int -> unit

val clear : t -> unit

(** [filter_in_place keep t] keeps the bits whose index (before
    filtering) satisfies [keep], in order. *)
val filter_in_place : (int -> bool) -> t -> unit

(** A shared all-false bitmap (length 0, so every [get] is [false]).
    Treat as read-only: never push into it. *)
val empty : t
