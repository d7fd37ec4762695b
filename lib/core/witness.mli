(** Absolute-witness computation for log compaction (§4.1.2).

    For a policy π and log relation [Ri], an {e absolute witness} is a
    subset of [Ri] sufficient to evaluate π at every future time
    (Def. 4.1; the produced witnesses guarantee evaluations from the next
    timestamp on, which is when compaction takes effect). Built per
    Lemmas 4.1–4.3 with Algorithm 2's recursion into union branches and
    FROM subqueries.

    Witness queries do not depend on the compaction time. Lemma 4.3's
    frozen clock bounds [now + 1 < e] / [now + 1 <= e] are left out of
    the WHERE clause; the query emits each [e] instead, and {!deadline}
    turns its value into the first tick at which the bound fails. A
    tuple is a witness at tick [now] exactly when one of its joined rows
    has every deadline above [now]. *)

open Relational

(** A frozen upper clock bound: at tick [now] it holds when
    [now + 1 < expr] ([strict]) or [now + 1 <= expr]. [expr] reads the
    joined row only. *)
type bound = { expr : Ast.expr; strict : bool }

type query = {
  select : Ast.select;
      (** the Lemma 4.1 semijoin without its clock bounds. FROM slot 0
          is the target occurrence, so executing with source-tid tracking
          names the tuple each row witnesses. The items are the [keys]
          attributes followed by one column per bound ([1] when there are
          neither). *)
  keys : int option;
      (** [Some k]: one tuple per value of the first [k] items (see
          [latest]); [None]: every joined row counts (Lemma 4.1) *)
  latest : int list option;
      (** with [keys = Some _]: [None] for a Boolean policy's witness
          (Lemma 4.2), whose key is the target's join attributes and
          whose representative is the first joined row, in output order,
          whose bounds hold; [Some slots] for a distinct-value witness,
          of a SELECT whose every aggregate is a [COUNT(DISTINCT e)] and
          whose clock predicates are upper bounds. Its key is the GROUP
          BY expressions, then the counted ones, then every kept-alias
          column that a predicate dropped from the query reads. Its
          representative is the joined row with the latest deadline, ties
          broken by the larger source tids at [slots] (the binding's log
          slots in alias order, so every witness query of one ts class
          picks the same binding). *)
  bounds : bound list;  (** one per trailing item *)
  clock : string;  (** a FROM alias free in [select], for the clock *)
}

type t =
  | Keep_all  (** no compaction possible: retain the whole relation *)
  | Queries of query list  (** union of witness queries *)

val merge : t -> t -> t

(** Witnesses of every log relation occurring in one SELECT. *)
val for_select : is_log:(string -> bool) -> Ast.select -> (string * t) list

(** Witnesses over a whole query (Algorithm 2). *)
val for_query : is_log:(string -> bool) -> Ast.query -> (string * t) list

val for_policy : is_log:(string -> bool) -> Policy.t -> (string * t) list

(** The first tick at which the bound fails for a value of its
    expression, under the executor's comparison order (NULL and BOOL
    never satisfy it, TEXT always does). [min_int] when it never holds,
    [max_int] when it always does. *)
val deadline : bound -> Value.t -> int

(** The query with slot 0 restricted to the rows stamped at the clock's
    tick: the clock relation joins under [clock] and the target's [ts]
    equals its [ts]. *)
val at_clock_tick : query -> Ast.select

(** Lemma 4.3's frozen witness with the frontier read from the clock
    relation: each bound becomes [clock.ts + 1 < e] (or [<=]). *)
val frozen : query -> Ast.select

(** §4.3's preemptive probe: {!Partial.at_tick} of {!frozen} [q]
    projecting a constant, so it is restricted to the [available] log
    relations and every remaining log slot's [ts] is pinned to
    [q.clock]'s, the frozen query's one clock item. An empty result means
    no tuple of an increment stamped at the clock's tick can be a
    witness. [None] when only the clock is left. *)
val probe :
  is_log:(string -> bool) -> available:string list -> query -> Ast.select option

(** [scan q ~now r f] reads the result [r] of [q] (or of
    {!at_clock_tick} [q]) run with source-tid tracking, calling
    [f key tid d] for the slot-0 tuples it witnesses: with
    [keys = None], once per joined row with the row's deadline (the min
    over its bounds) and an empty [key]; with [keys = Some _], once per
    key value whose representative at tick [now] has [d > now] (see
    [latest]), with that value. A tuple is retained at [now] when some
    [d > now]. Over {!at_clock_tick} [q], a distinct-value witness's
    calls name the increment's best binding per key; whether it replaces
    the committed representative is the caller's decision. *)
val scan :
  query -> now:int -> Executor.result -> (Value.t array -> int -> int -> unit) -> unit
