(** Growable arrays (OCaml 5.1 predates [Dynarray]).

    Backing storage doubles on overflow. Unused slots are overwritten with
    the [dummy] element so truncated values can be garbage-collected. *)

type 'a t

(** [create ~dummy ()] is an empty vector. [dummy] fills unused slots. *)
val create : dummy:'a -> unit -> 'a t

(** Number of elements. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [get t i] is the [i]-th element.
    @raise Invalid_argument when out of bounds. *)
val get : 'a t -> int -> 'a

(** [set t i x] replaces the [i]-th element.
    @raise Invalid_argument when out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** Append an element, growing the backing array if needed. *)
val push : 'a t -> 'a -> unit

(** [truncate t n] drops all elements at indices [>= n].
    @raise Invalid_argument if [n] is negative or exceeds the length. *)
val truncate : 'a t -> int -> unit

(** Remove all elements. *)
val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

(** The backing array, without copying: indices [>= length t] hold the
    dummy element. For zero-copy batch scans; treat as read-only and pair
    with the length observed at the same time. *)
val unsafe_data : 'a t -> 'a array
val of_list : dummy:'a -> 'a list -> 'a t

(** [filter_in_place p t] keeps only elements satisfying [p], preserving
    order; returns the number of elements removed. *)
val filter_in_place : ('a -> bool) -> 'a t -> int

(** [filteri_in_place p t] is {!filter_in_place} with the element's
    index (before filtering) passed to [p]. *)
val filteri_in_place : (int -> 'a -> bool) -> 'a t -> int

(** {1 Bulk operations} *)

(** [blit ~src ~src_pos ~dst ~dst_pos ~len] copies [len] elements from
    [src] starting at [src_pos] into [dst] starting at [dst_pos], growing
    [dst] when the destination range extends past its current length
    ([dst_pos] itself must not).
    @raise Invalid_argument when either range is out of bounds. *)
val blit :
  src:'a t -> src_pos:int -> dst:'a t -> dst_pos:int -> len:int -> unit

(** [sub t ~pos ~len] is a fresh vector holding elements
    [pos .. pos+len-1].
    @raise Invalid_argument when the range is out of bounds. *)
val sub : 'a t -> pos:int -> len:int -> 'a t

(** [append dst src] pushes every element of [src] onto the end of
    [dst]. *)
val append : 'a t -> 'a t -> unit
