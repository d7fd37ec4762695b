(** Aggregate function computation: the one fold behind every evaluator.

    Matches PostgreSQL for the supported cases: COUNT ignores NULL
    arguments; SUM/AVG/MIN/MAX of an empty or all-NULL group is NULL; SUM
    over integers stays an integer; AVG is a float. SUM folds in arrival
    order, MIN/MAX keep the first of equal values, and DISTINCT arguments
    fold as the sorted set of non-NULL values. *)

(** The running state of one aggregate call over one group. The
    incremental evaluator carries these across submissions, so the
    batch {!compute} and the carried groups finish identically. *)
type acc

val create : unit -> acc

(** An independent copy (scratch evaluation over carried state). *)
val copy : acc -> acc

(** Fold one row's argument value. [Count_star] counts the row whatever
    the value.
    @raise Errors.Sql_error on a SUM/AVG over a non-numeric value. *)
val step : Ast.agg * bool -> acc -> Value.t -> unit

(** The aggregate's value over the folded rows.
    @raise Errors.Sql_error on a DISTINCT SUM/AVG over a non-numeric
    value. *)
val finish : Ast.agg * bool -> acc -> Value.t

(** [compute agg ~distinct ~eval_arg rows] evaluates every row's argument
    (none for [Count_star]), then folds them: {!create}, {!step} per row,
    {!finish}. *)
val compute :
  Ast.agg -> distinct:bool -> eval_arg:('row -> Value.t) -> 'row list -> Value.t

(** The distinct aggregate-call nodes appearing in an expression, in
    first-occurrence order. *)
val calls_in_expr : Ast.expr -> Ast.expr list
