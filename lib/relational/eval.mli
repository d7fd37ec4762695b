(** Scalar operator helpers shared by the row ({!Compile}) and batch
    ({!Compile_batch}) expression compilers.

    NULL semantics follow {!Value}: comparisons involving NULL are false;
    arithmetic on NULL yields NULL. *)

(** SQL [LIKE] matching: ['%'] matches any sequence, ['_'] any single
    character. *)
val like_match : string -> string -> bool

(** Arithmetic with SQL NULL propagation and int/float promotion:
    [arith name fint ffloat a b]. *)
val arith :
  string -> (int -> int -> int) -> (float -> float -> float) -> Value.t ->
  Value.t -> Value.t

(** Comparison operators ([Eq]..[Ge]) with NULL-is-false semantics: [Eq]
    is {!Value.sql_equal}, the others order by {!Value.compare}. *)
val compare_op : Ast.binop -> Value.t -> Value.t -> Value.t
