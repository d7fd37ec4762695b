(** Partial policies for interleaved evaluation (§4.2.1).

    πS drops every reference to log relations outside the available set
    [S]; by Lemma 4.4, π ⇒ πS for interleavable policies, so an empty πS
    proves π satisfied. Before dropping, WHERE conjuncts are {e
    saturated} through column-equality classes so that, e.g., a window
    predicate written on a removed relation's timestamp survives on an
    equated kept timestamp (the paper's Example 4.5 P2c). *)

open Relational

(** Derive equality-implied conjunct variants (exposed for tests). *)
val saturate : Ast.expr list -> Ast.expr list

(** πS of one SELECT. [available] holds lowercased log relation names. *)
val of_select :
  is_log:(string -> bool) -> available:string list -> Ast.select -> Ast.select

val of_query :
  is_log:(string -> bool) -> available:string list -> Ast.query -> Ast.query

(** Drop HAVING everywhere: the monotone SPJ core used to prune
    non-monotone (but grouped) policies. *)
val strip_having : Ast.query -> Ast.query

(** A FROM alias for the clock relation that no item of the select uses. *)
val fresh_clock_alias : Ast.select -> string

(** §4.3's tick-pinned probe: [s] restricted ({!of_select}) to the
    [available] log relations, with every remaining log slot's [ts]
    pinned to the clock's ([s]'s clock alias, or an added one).
    Increment rows carry the clock's tick and committed rows are older,
    so the probe keeps exactly the bindings whose log slots all lie in
    the increments. When [s]'s log slots share one [ts] equivalence
    class, every binding has them all at one tick, so the probe is
    non-empty iff some binding draws on an increment at all. [None] when
    only the clock is left. *)
val at_tick :
  is_log:(string -> bool) -> available:string list -> Ast.select -> Ast.select option
