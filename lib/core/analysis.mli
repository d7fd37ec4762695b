(** Shared static-analysis helpers over policy ASTs.

    All policy rewrites operate on {e qualified} queries: every column
    reference carries its table alias. {!qualify} resolves unqualified
    references once at registration time so the rewrites can reason
    purely syntactically afterwards. *)

open Relational

(** [String.lowercase_ascii]. *)
val lc : string -> string

(** Qualify every unqualified column reference with the alias the binder
    resolves it to ({!Plan.alias_of}); FROM subqueries are bound whole.
    @raise Errors.Sql_error with the binder's message on unknown or
    ambiguous names. *)
val qualify : Catalog.t -> Ast.query -> Ast.query

(** Does the expression reference any of the given (lowercased)
    aliases? *)
val expr_refs_any_alias : Ast.expr -> string list -> bool

(** FROM-table occurrences of a select: (lowercased alias, lowercased
    relation name) pairs; subqueries excluded. *)
val table_occurrences : Ast.select -> (string * string) list

(** Log-relation names (lowercased) referenced anywhere, including within
    FROM subqueries. *)
val log_relations : is_log:(string -> bool) -> Ast.query -> string list

(** Does any FROM subquery (recursively) reference a log relation? *)
val subquery_uses_log : is_log:(string -> bool) -> Ast.query -> bool

(** Union-find over (alias, column) pairs induced by the equality
    conjuncts of a WHERE clause; drives the time-independence test,
    neighborhood computation and predicate saturation. *)
module Eq_classes : sig
  type t

  val of_conjuncts : Ast.expr list -> t
  val find : t -> string * string -> string * string
  val union : t -> string * string -> string * string -> unit
  val same : t -> string * string -> string * string -> bool
end

(** Are the [col] columns of all [aliases] in one equivalence class of
    the equality [conjuncts]? Chains through any alias count: equality
    propagates the value whatever relation carries it. Vacuously true
    for fewer than two aliases. Decides whether a policy's log aliases
    share one [ts] (the relevance index's [ts_linked], the engine's
    improved-partial gate). *)
val one_class : col:string -> Ast.expr list -> string list -> bool
