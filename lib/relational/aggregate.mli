(** Aggregate function computation: the one fold behind every evaluator.

    Matches PostgreSQL for the supported cases: COUNT ignores NULL
    arguments; SUM/AVG/MIN/MAX of an empty or all-NULL group is NULL; SUM
    over integers stays an integer; AVG is a float. SUM folds in arrival
    order, MIN/MAX keep the first of equal values, and DISTINCT arguments
    fold as the sorted set of non-NULL values. *)

(** [compute agg ~distinct ~eval_arg rows] evaluates every row's argument
    (none for [Count_star]), then folds them into one value. *)
val compute :
  Ast.agg -> distinct:bool -> eval_arg:('row -> Value.t) -> 'row list -> Value.t

(** The distinct aggregate-call nodes appearing in an expression, in
    first-occurrence order. *)
val calls_in_expr : Ast.expr -> Ast.expr list
