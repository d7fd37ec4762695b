(** Policy relevance index: per-policy metadata that lets the engine
    decide, from a submission's tentative log increment alone, that a
    policy's verdict cannot have changed since the last accepted
    submission proved it empty — and skip evaluating it. See the
    implementation header for the full soundness argument; in short,
    for a monotone top-level SELECT with no log subqueries, if no delta
    row can bind any of its log slots (each slot gated by the query's
    own equality conjuncts) and its non-log dependencies are unchanged,
    the result is literally the proved one: empty. *)

open Relational

(** One equality gate on a log slot: column [col] (cell index, timestamp
    included) must hold a value {!Value.equal} to one of [allowed]. *)
type filter = { col : int; allowed : unit Value.Tbl.t }

type info = {
  eligible : bool;
  deps : string list;
      (** referenced relations (canonical names): what the accept
          proof must cover *)
  slots : (string * filter list) list;
      (** top-level log-relation occurrences with their filters *)
  guards : (string * int) list;
      (** enumeration sources and their [ver_mut] at build time *)
  ts_linked : bool;
      (** the log slots are one component under the query's
          timestamp-equality conjuncts; since a submission appends all
          its increments at one clock tick, a binding with one delta row
          then has delta rows in every log slot — one blocked slot
          suffices to skip *)
  ti_pinned : bool;
      (** the query is TI-rewritten: its verdict is emptiness at the
          current clock tick (§4.1.1), whose rows are all delta rows —
          so {!blocked} decides it alone, no accept proof needed *)
}

type t

(** Build the index for a post-unification active-policy list. Consults
    the catalog for schemas and enumerates equality-partner columns
    (e.g. a unified policy's constants table), recording version
    guards. A policy that reads [clock_rel] without being TI-rewritten
    is not eligible: the clock moves at every submission, so no accept
    proof ever covers it. *)
val build :
  Catalog.t ->
  is_log:(string -> bool) ->
  clock_rel:string ->
  Policy.t list ->
  t

val info : t -> string -> info option

(** Do the guards still hold, and are the log slots blocked — one of
    them when [ts_linked], every one otherwise? A slot is blocked when
    no row of its relation's tentative delta satisfies all the slot's
    filters (with no filters: only if the delta is empty). [true] plus
    an accept proof that covers [deps] means the policy can be
    skipped.

    [available], when given, lists (lowercase) log relations whose
    tentative increment is fully appended; slots over other relations
    are not considered — their deltas aren't final yet, so neither
    verdict about them would be sound. The interleaved evaluator passes
    the relations generated so far. *)
val blocked : ?available:string list -> Catalog.t -> info -> bool

(** Policies marked eligible / total policies indexed. *)
val eligible_count : t -> int

val size : t -> int
