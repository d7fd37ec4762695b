(** Runtime values.

    Cells are dynamically typed at execution time. Two equalities are
    defined here, once each:

    - {e grouping identity} — {!equal}, {!hash}, {!Tbl}, {!Key} — is
      exactly [compare a b = 0]: [Null] groups with [Null], NaN with NaN,
      [-0.0] with [0.0], integral floats with the matching ints. DISTINCT,
      GROUP BY, UNION, dedup and hash-index buckets use it;
    - {e SQL [=]} — {!sql_equal} — is grouping identity except that
      [Null] matches nothing (including [NULL = NULL]). Predicates,
      hash-join keys and index probes use it.

    NULL semantics are otherwise simplified with respect to full SQL
    three-valued logic: any comparison involving [Null] is false. The
    DataLawyer usage logs never contain NULLs in the columns policies
    compare, so policy semantics are unaffected. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

(** The value's type; [None] for [Null]. *)
val type_of : t -> Ty.t option

val is_null : t -> bool

(** Grouping identity: [equal a b] iff [compare a b = 0]. *)
val equal : t -> t -> bool

(** SQL [=]: [false] when either side is [Null], {!equal} otherwise. *)
val sql_equal : t -> t -> bool

(** Total order for ORDER BY: Null < Bool < numbers < Str, with numbers
    compared numerically across [Int]/[Float]. *)
val compare : t -> t -> int

(** Exact order of an [Int] against a [Float] — no rounding of the int,
    so [Int (2^53 + 1)] sorts above [Float 2^53] — with NaN below every
    number as in [Float.compare]. {!compare} uses it across the two
    types. *)
val compare_int_float : int -> float -> int

(** Hash consistent with {!equal}. *)
val hash : t -> int

(** Hash tables keyed on single values under {!equal}. *)
module Tbl : Hashtbl.S with type key = t

(** SQL-facing truthiness: only [Bool true] is true. *)
val to_bool : t -> bool

(** Human-readable rendering (no quoting). *)
val to_string : t -> string

(** SQL literal syntax, suitable for re-parsing (strings are quoted with
    [''] escaping). *)
val to_sql : t -> string

val pp : Format.formatter -> t -> unit

(** Value tuples under elementwise {!equal}, with a compatible hash:
    the DISTINCT / GROUP BY / UNION / hash-join tables key on row arrays
    through this. *)
module Key : sig
  type nonrec t = t array

  val equal : t -> t -> bool
  val hash : t -> int

  (** Does any component hold [Null]? Such a key matches nothing under
      SQL [=], so hash joins neither build nor probe it. *)
  val has_null : t -> bool

  module Tbl : Hashtbl.S with type key = t

  (** [dedup key rows]: [rows] in order, without those whose [key]
      equals an earlier row's. *)
  val dedup : ('a -> t) -> 'a list -> 'a list
end

(** Numeric coercion to float; [None] for non-numeric values. *)
val as_float : t -> float option
