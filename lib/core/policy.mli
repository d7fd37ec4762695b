(** Policies (§3.1).

    A policy is a SQL query of the form [SELECT DISTINCT '<error-message>'
    FROM ... WHERE ... GROUP BY ... HAVING ...] over the usage log, the
    database and [clock]; it is satisfied iff it returns no rows. *)

open Relational

type t = {
  name : string;
  source : string;  (** SQL text as registered *)
  query : Ast.query;  (** qualified; possibly rewritten by optimizations *)
  shape : Ast.query;
      (** [query] with every literal masked ({!Ast.mask_literals}):
          the template identity policy unification groups by, computed
          once at registration *)
  message : string;  (** the error-message literal, or a default *)
  log_rels : string list;  (** lowercased usage-log relations referenced *)
  monotone : bool;
      (** §4.2.1: SPJU, or HAVING limited to [COUNT(...) > k] conjuncts *)
  interleavable : bool;
      (** monotone policies safe for partial-policy pruning: all counted
          HAVING aggregates are DISTINCT (multiplicity-insensitive) *)
  core_prunable : bool;
      (** may join interleaved evaluation with a HAVING-stripped partial:
          empty input implies empty output (grouped, or no HAVING) *)
  time_independent : bool;
      (** §4.1.1 criterion, strengthened to also exclude [clock] uses *)
  ts_joined : bool;
      (** the query is one SELECT whose top-level log aliases (at least
          one) share one [ts] equivalence class
          ({!Analysis.one_class}): a binding's log rows then all carry
          one tick. Gates §4.3's tick-pinned probe and the relevance
          index's one-blocked-slot rule. TI rewriting keeps it: the
          clock pin it adds joins one class that is already whole *)
  ti_rewritten : bool;  (** [query] already restricted to the current ts *)
  active_from : int;  (** timestamp at which the policy was registered *)
}

(** All SELECT nodes of a query: top level, union branches and FROM
    subqueries. *)
val selects_of : Ast.query -> Ast.select list

(** Classification primitives (exposed for tests). *)

val monotone : Ast.query -> bool
val interleavable : is_log:(string -> bool) -> Ast.query -> bool
val time_independent : is_log:(string -> bool) -> Ast.query -> bool

(** Parse, qualify and classify a policy. When [active_from > 0], adds
    a [ts > active_from] guard to every log occurrence — in each UNION
    arm and inside FROM subqueries — so the policy's history starts at
    its registration (the paper's footnote 7).
    @raise Errors.Sql_error on malformed SQL or unresolvable names. *)
val create :
  Catalog.t ->
  is_log:(string -> bool) ->
  name:string ->
  active_from:int ->
  string ->
  t

(** Replace a policy's query, re-running classification. *)
val with_query : is_log:(string -> bool) -> t -> Ast.query -> t

val pp : Format.formatter -> t -> unit
