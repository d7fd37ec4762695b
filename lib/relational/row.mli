(** Stored rows: a tuple of cells plus a table-unique tuple id.

    Tuple ids ([tid]) are assigned by the owning {!Table} in insertion
    order and never reused. They are the [itid]/[otid] values of the
    paper's [provenance] usage log, and they let log compaction mark
    witness tuples in place. *)

type t

val make : tid:int -> Value.t array -> t

val tid : t -> int

(** The cell array. Treat as read-only; tables share it. *)
val cells : t -> Value.t array

(** The [i]-th cell. *)
val cell : t -> int -> Value.t

val arity : t -> int

val pp : Format.formatter -> t -> unit
