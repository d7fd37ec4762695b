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

(** The increment probes of a partial policy πS (§4.3): one per
    top-level log slot, each πS without HAVING plus the conjunct pinning
    that slot's [ts] to the clock's (πS's clock alias, or an added one).
    Increment rows carry the clock's tick and committed rows are older,
    so some probe is non-empty iff a binding of πS's FROM list and WHERE
    draws on the increment. [[]] when πS has no log slot. *)
val increment_probes : is_log:(string -> bool) -> Ast.select -> Ast.select list
