(** Abstract syntax of the SQL dialect.

    The dialect covers what the DataLawyer paper needs (§3.1): select-
    from-where-groupby-having queries whose FROM clauses contain base
    tables or subqueries, [DISTINCT] / PostgreSQL-style [DISTINCT ON],
    aggregates with optional [DISTINCT], [UNION [ALL]], plus the DML
    needed to drive a database ([INSERT], [DELETE], [UPDATE],
    [CREATE/DROP TABLE]).

    Policy analysis (time-independence, witnesses, partial policies,
    unification) is implemented as AST-to-AST transformations, so this
    module also provides structural helpers: conjunct decomposition,
    free-alias computation, structural equality and literal traversal. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or
  | Concat
  | Like  (** SQL LIKE with [%] and [_] wildcards *)

let flip_cmp = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | op -> op

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
      (** searched CASE: WHEN/THEN branches and optional ELSE.
          [IN (...)] and [BETWEEN] are desugared by the parser into
          OR/AND chains and need no dedicated nodes. *)

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
  | Drop_index of { index : string; if_exists : bool }

(* Constructors ----------------------------------------------------------- *)

let empty_select =
  {
    distinct = All;
    items = [];
    from = [];
    where = None;
    group_by = [];
    having = None;
    order_by = [];
    limit = None;
  }

(* Conjunctions ----------------------------------------------------------- *)

(* Split an expression into its top-level AND conjuncts. *)
let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjuncts_opt = function None -> [] | Some e -> conjuncts e

(* Rebuild a WHERE clause from a conjunct list. *)
let conjoin = function
  | [] -> None
  | e :: es -> Some (List.fold_left (fun acc e -> Binop (And, acc, e)) e es)

(* Traversals -------------------------------------------------------------- *)

let rec iter_expr f e =
  f e;
  match e with
  | Lit _ | Col _ -> ()
  | Binop (_, a, b) ->
    iter_expr f a;
    iter_expr f b
  | Unop (_, a) -> iter_expr f a
  | Agg_call (_, _, arg) -> Option.iter (iter_expr f) arg
  | Fn_call (_, args) -> List.iter (iter_expr f) args
  | Case (branches, default) ->
    List.iter
      (fun (c, v) ->
        iter_expr f c;
        iter_expr f v)
      branches;
    Option.iter (iter_expr f) default

let rec map_expr f e =
  let e = f e in
  match e with
  | Lit _ | Col _ -> e
  | Binop (op, a, b) -> Binop (op, map_expr f a, map_expr f b)
  | Unop (op, a) -> Unop (op, map_expr f a)
  | Agg_call (agg, distinct, arg) -> Agg_call (agg, distinct, Option.map (map_expr f) arg)
  | Fn_call (name, args) -> Fn_call (name, List.map (map_expr f) args)
  | Case (branches, default) ->
    Case
      ( List.map (fun (c, v) -> (map_expr f c, map_expr f v)) branches,
        Option.map (map_expr f) default )

(* Qualifiers (table aliases) referenced by an expression. Unqualified
   columns report [None]. *)
let expr_qualifiers e =
  let acc = ref [] in
  iter_expr
    (function
      | Col (q, _) -> if not (List.mem q !acc) then acc := q :: !acc
      | _ -> ())
    e;
  !acc

let expr_has_agg e =
  let found = ref false in
  iter_expr (function Agg_call _ -> found := true | _ -> ()) e;
  !found

(* The effective alias under which a FROM item is visible. *)
let from_item_alias = function
  | From_table { name; alias } -> Option.value alias ~default:name
  | From_subquery { alias; _ } -> alias

(* Structural equality, used by policy unification to compare shapes. *)
let equal_query (a : query) (b : query) = a = b

(* Collect every literal in a query together with a mutation function that
   replaces it; used by policy unification to find the differing constants
   between template-instantiated policies. The path is a stable identifier
   of the literal's syntactic position; the clause records which clause of
   the top-level query the literal syntactically falls under, so consumers
   (e.g. unification's message detection) never parse path strings. *)
type lit_clause =
  | Clause_item of int  (** [i]-th select item of the top-level SELECT *)
  | Clause_from of int  (** inside the [i]-th FROM subquery *)
  | Clause_where
  | Clause_group_by of int
  | Clause_having
  | Clause_order_by of int
  | Clause_union  (** inside a UNION branch *)

type lit_site = { path : string; clause : lit_clause; value : Value.t }

let query_literals (q : query) : lit_site list =
  let out = ref [] in
  let add clause path v = out := { path; clause; value = v } :: !out in
  let rec walk_expr clause path = function
    | Lit v -> add clause path v
    | Col _ -> ()
    | Binop (_, a, b) ->
      walk_expr clause (path ^ "l") a;
      walk_expr clause (path ^ "r") b
    | Unop (_, a) -> walk_expr clause (path ^ "u") a
    | Agg_call (_, _, arg) -> Option.iter (walk_expr clause (path ^ "a")) arg
    | Fn_call (_, args) ->
      List.iteri (fun i a -> walk_expr clause (Printf.sprintf "%sf%d" path i) a) args
    | Case (branches, default) ->
      List.iteri
        (fun i (c, v) ->
          walk_expr clause (Printf.sprintf "%sc%d" path i) c;
          walk_expr clause (Printf.sprintf "%sv%d" path i) v)
        branches;
      Option.iter (walk_expr clause (path ^ "d")) default
  (* [fixed] is [Some c] beneath a subquery or UNION branch: every literal
     there belongs to clause [c] of the top-level query. *)
  and walk_select fixed path (s : select) =
    let cl c = match fixed with Some c' -> c' | None -> c in
    List.iteri
      (fun i -> function
        | Sel_expr (e, _) ->
          walk_expr (cl (Clause_item i)) (Printf.sprintf "%s.i%d" path i) e
        | Star | Table_star _ -> ())
      s.items;
    List.iteri
      (fun i -> function
        | From_subquery { query; _ } ->
          walk_query
            (Some (cl (Clause_from i)))
            (Printf.sprintf "%s.f%d" path i) query
        | From_table _ -> ())
      s.from;
    Option.iter (walk_expr (cl Clause_where) (path ^ ".w")) s.where;
    List.iteri
      (fun i e -> walk_expr (cl (Clause_group_by i)) (Printf.sprintf "%s.g%d" path i) e)
      s.group_by;
    Option.iter (walk_expr (cl Clause_having) (path ^ ".h")) s.having;
    List.iteri
      (fun i (e, _) ->
        walk_expr (cl (Clause_order_by i)) (Printf.sprintf "%s.o%d" path i) e)
      s.order_by
  and walk_query fixed path = function
    | Select s -> walk_select fixed path s
    | Union { left; right; _ } ->
      let fixed = match fixed with Some _ -> fixed | None -> Some Clause_union in
      walk_query fixed (path ^ "L") left;
      walk_query fixed (path ^ "R") right
  in
  walk_query None "q" q;
  List.rev !out

(* Replace every literal with [placeholder] in one pass: the query's
   shape. Two policies are instances of the same template iff their
   masked queries are structurally equal. *)
let mask_literals ?(placeholder = Value.Null) (q : query) : query =
  let me = map_expr (function Lit _ -> Lit placeholder | e -> e) in
  let rec mq = function
    | Select s -> Select (ms s)
    | Union { all; left; right } -> Union { all; left = mq left; right = mq right }
  and ms (s : select) =
    {
      s with
      items =
        List.map
          (function Sel_expr (e, a) -> Sel_expr (me e, a) | it -> it)
          s.items;
      from =
        List.map
          (function
            | From_subquery { query; alias } ->
              From_subquery { query = mq query; alias }
            | fi -> fi)
          s.from;
      where = Option.map me s.where;
      group_by = List.map me s.group_by;
      having = Option.map me s.having;
      order_by = List.map (fun (e, d) -> (me e, d)) s.order_by;
    }
  in
  mq q

(* Replace the literal at syntactic position [path] using [f]. *)
let query_map_literal (q : query) ~(path : string) ~(f : Value.t -> expr) : query =
  let rec walk_expr p e =
    match e with
    | Lit v -> if p = path then f v else e
    | Col _ -> e
    | Binop (op, a, b) -> Binop (op, walk_expr (p ^ "l") a, walk_expr (p ^ "r") b)
    | Unop (op, a) -> Unop (op, walk_expr (p ^ "u") a)
    | Agg_call (agg, d, arg) -> Agg_call (agg, d, Option.map (walk_expr (p ^ "a")) arg)
    | Fn_call (name, args) ->
      Fn_call (name, List.mapi (fun i a -> walk_expr (Printf.sprintf "%sf%d" p i) a) args)
    | Case (branches, default) ->
      Case
        ( List.mapi
            (fun i (c, v) ->
              (walk_expr (Printf.sprintf "%sc%d" p i) c,
               walk_expr (Printf.sprintf "%sv%d" p i) v))
            branches,
          Option.map (walk_expr (p ^ "d")) default )
  and walk_select p (s : select) =
    {
      s with
      items =
        List.mapi
          (fun i it ->
            match it with
            | Sel_expr (e, a) -> Sel_expr (walk_expr (Printf.sprintf "%s.i%d" p i) e, a)
            | Star | Table_star _ -> it)
          s.items;
      from =
        List.mapi
          (fun i fi ->
            match fi with
            | From_subquery { query; alias } ->
              From_subquery { query = walk_query (Printf.sprintf "%s.f%d" p i) query; alias }
            | From_table _ -> fi)
          s.from;
      where = Option.map (walk_expr (p ^ ".w")) s.where;
      group_by = List.mapi (fun i e -> walk_expr (Printf.sprintf "%s.g%d" p i) e) s.group_by;
      having = Option.map (walk_expr (p ^ ".h")) s.having;
      order_by =
        List.mapi (fun i (e, d) -> (walk_expr (Printf.sprintf "%s.o%d" p i) e, d)) s.order_by;
    }
  and walk_query p = function
    | Select s -> Select (walk_select p s)
    | Union { all; left; right } ->
      Union { all; left = walk_query (p ^ "L") left; right = walk_query (p ^ "R") right }
  in
  walk_query "q" q
