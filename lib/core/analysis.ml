(** Shared static-analysis helpers over policy ASTs.

    All policy rewrites (time-independence, witnesses, partial policies,
    unification) operate on {e qualified} queries: every column reference
    carries its table alias. {!qualify} resolves unqualified references
    once at policy-registration time, through the binder's own scope
    ({!Plan.from_scope}), so the rewrites can reason purely syntactically
    afterwards. *)

open Relational

let lc = String.lowercase_ascii

(* Qualify every column reference in a query with the alias the binder
   resolves it to. *)
let rec qualify (cat : Catalog.t) (q : Ast.query) : Ast.query =
  match q with
  | Ast.Union { all; left; right } ->
    Ast.Union { all; left = qualify cat left; right = qualify cat right }
  | Ast.Select s ->
    let from =
      List.map
        (fun fi ->
          match fi with
          | Ast.From_subquery { query; alias } ->
            Ast.From_subquery { query = qualify cat query; alias }
          | Ast.From_table _ -> fi)
        s.from
    in
    let scope = Plan.from_scope cat from in
    let fix =
      Ast.map_expr (function
        | Ast.Col (None, name) -> Ast.Col (Some (Plan.alias_of scope name), name)
        | e -> e)
    in
    Ast.Select
      {
        s with
        from;
        items =
          List.map
            (function
              | Ast.Sel_expr (e, a) -> Ast.Sel_expr (fix e, a)
              | it -> it)
            s.items;
        where = Option.map fix s.where;
        group_by = List.map fix s.group_by;
        having = Option.map fix s.having;
        order_by = List.map (fun (e, d) -> (fix e, d)) s.order_by;
      }

(* Does the expression reference the given (lowercased) alias? *)
let expr_refs_alias (e : Ast.expr) (alias : string) =
  List.exists
    (function Some q -> lc q = alias | None -> false)
    (Ast.expr_qualifiers e)

let expr_refs_any_alias (e : Ast.expr) (aliases : string list) =
  List.exists (fun a -> expr_refs_alias e a) aliases

(* FROM-table occurrences of a select: (lowercased alias, relation name). *)
let table_occurrences (s : Ast.select) : (string * string) list =
  List.filter_map
    (function
      | Ast.From_table { name; alias } ->
        Some (lc (Option.value alias ~default:name), lc name)
      | Ast.From_subquery _ -> None)
    s.from

(* Log-relation names (lowercased) referenced anywhere in a query,
   including within FROM subqueries. *)
let rec log_relations ~(is_log : string -> bool) (q : Ast.query) : string list =
  let add acc r = if List.mem r acc then acc else r :: acc in
  let of_select acc (s : Ast.select) =
    List.fold_left
      (fun acc fi ->
        match fi with
        | Ast.From_table { name; _ } when is_log (lc name) -> add acc (lc name)
        | Ast.From_table _ -> acc
        | Ast.From_subquery { query; _ } ->
          List.fold_left add acc (log_relations ~is_log query))
      acc s.from
  in
  match q with
  | Ast.Select s -> of_select [] s
  | Ast.Union { left; right; _ } ->
    List.fold_left add (log_relations ~is_log left) (log_relations ~is_log right)

(* Whether any FROM subquery (recursively) references a log relation. *)
let rec subquery_uses_log ~is_log (q : Ast.query) : bool =
  match q with
  | Ast.Union { left; right; _ } ->
    subquery_uses_log ~is_log left || subquery_uses_log ~is_log right
  | Ast.Select s ->
    List.exists
      (function
        | Ast.From_subquery { query; _ } -> log_relations ~is_log query <> []
        | Ast.From_table _ -> false)
      s.from

(* Union-find over (alias, column) pairs induced by the equality
   conjuncts of a WHERE clause; used for the time-independence test and
   neighborhood computation. *)
module Eq_classes = struct
  type t = (string * string, string * string) Hashtbl.t

  let rec find (t : t) x =
    match Hashtbl.find_opt t x with
    | None -> x
    | Some p when p = x -> x
    | Some p ->
      let root = find t p in
      Hashtbl.replace t x root;
      root

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t ra rb

  let of_conjuncts (conjs : Ast.expr list) : t =
    let t : t = Hashtbl.create 16 in
    List.iter
      (function
        | Ast.Binop (Ast.Eq, Ast.Col (Some qa, ca), Ast.Col (Some qb, cb)) ->
          union t (lc qa, lc ca) (lc qb, lc cb)
        | _ -> ())
      conjs;
    t

  let same t a b = find t a = find t b
end

let one_class ~(col : string) (conjuncts : Ast.expr list) (aliases : string list)
    : bool =
  match aliases with
  | [] | [ _ ] -> true
  | a0 :: rest ->
    let classes = Eq_classes.of_conjuncts conjuncts in
    List.for_all (fun a -> Eq_classes.same classes (a0, col) (a, col)) rest
