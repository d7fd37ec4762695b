(** Abstract syntax of the SQL dialect.

    Covers what the DataLawyer paper needs (§3.1): select-from-where-
    groupby-having queries whose FROM clauses contain base tables or
    subqueries, [DISTINCT] / PostgreSQL-style [DISTINCT ON], aggregates
    with optional [DISTINCT], [UNION [ALL]], plus DML. Policy analysis is
    implemented as AST-to-AST transformation, so structural helpers
    (conjunct decomposition, traversals, literal sites) live here too. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or
  | Concat
  | Like  (** SQL LIKE with [%] and [_] wildcards *)

(** The comparison that holds with its operands swapped: [a op b] is
    [b (flip_cmp op) a]. [Lt]/[Gt] and [Le]/[Ge] trade places; every
    other operator maps to itself. *)
val flip_cmp : binop -> binop

type unop = Not | Neg

type agg = Count_star | Count | Sum | Avg | Min | Max

type expr =
  | Lit of Value.t
  | Col of string option * string  (** optional qualifier, column name *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Agg_call of agg * bool * expr option
      (** aggregate, DISTINCT flag, argument ([None] only for COUNT star) *)
  | Fn_call of string * expr list
      (** scalar function call (ABS, LENGTH, LOWER, UPPER, COALESCE,
          ROUND); name stored lowercased *)
  | Case of (expr * expr) list * expr option
      (** searched CASE: WHEN/THEN branches and optional ELSE. [IN] and
          [BETWEEN] are desugared by the parser and need no nodes. *)

type order_dir = Asc | Desc

type distinct_spec =
  | All
  | Distinct
  | Distinct_on of expr list  (** PostgreSQL [DISTINCT ON (exprs)] *)

type select_item =
  | Star
  | Table_star of string  (** [t.*] *)
  | Sel_expr of expr * string option  (** expression with optional alias *)

type select = {
  distinct : distinct_spec;
  items : select_item list;
  from : from_item list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : (expr * order_dir) list;
  limit : int option;
}

and from_item =
  | From_table of { name : string; alias : string option }
  | From_subquery of { query : query; alias : string }

and query = Select of select | Union of { all : bool; left : query; right : query }

type stmt =
  | Query of query
  | Insert of { table : string; columns : string list option; rows : expr list list }
  | Create_table of { table : string; columns : (string * Ty.t) list }
  | Delete of { table : string; where : expr option }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Drop_table of { table : string; if_exists : bool }
  | Create_index of { index : string; table : string; column : string; sorted : bool }
      (** [CREATE INDEX index ON table [USING hash|sorted] (column)];
          [sorted] selects the range-capable index shape. *)
  | Drop_index of { index : string; if_exists : bool }

(** A SELECT with no items, FROM, or clauses — the base for building
    rewritten queries (witnesses). *)
val empty_select : select

(** Top-level AND conjuncts of an expression. *)
val conjuncts : expr -> expr list

val conjuncts_opt : expr option -> expr list

(** Rebuild a WHERE clause from conjuncts; [None] for the empty list. *)
val conjoin : expr list -> expr option

(** Pre-order traversal of an expression. *)
val iter_expr : (expr -> unit) -> expr -> unit

(** Bottom-up rebuild; [f] is applied to each node before recursing into
    the result's children. *)
val map_expr : (expr -> expr) -> expr -> expr

(** Qualifiers referenced by an expression ([None] for unqualified). *)
val expr_qualifiers : expr -> string option list

val expr_has_agg : expr -> bool

(** The alias under which a FROM item is visible. *)
val from_item_alias : from_item -> string

(** Structural equality. *)
val equal_query : query -> query -> bool

(** Clause of the top-level query a literal syntactically falls under.
    Literals inside FROM subqueries or UNION branches report the
    enclosing clause, not their local one. *)
type lit_clause =
  | Clause_item of int  (** [i]-th select item of the top-level SELECT *)
  | Clause_from of int  (** inside the [i]-th FROM subquery *)
  | Clause_where
  | Clause_group_by of int
  | Clause_having
  | Clause_order_by of int
  | Clause_union  (** inside a UNION branch *)

(** A literal occurrence: its stable syntactic position, enclosing
    clause, and value. *)
type lit_site = { path : string; clause : lit_clause; value : Value.t }

(** Every literal in the query, in a deterministic order. Drives policy
    unification's shape comparison. *)
val query_literals : query -> lit_site list

(** Replace the literal at position [path] with [f old_value]. *)
val query_map_literal : query -> path:string -> f:(Value.t -> expr) -> query

(** Replace every literal with [placeholder] (default [Value.Null]) in a
    single pass: the query's template shape. Structural equality of
    masked queries groups policies into template families. *)
val mask_literals : ?placeholder:Value.t -> query -> query
