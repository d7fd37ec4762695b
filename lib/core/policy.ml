(** Policies (§3.1).

    A policy is a SQL query of the form
    [SELECT DISTINCT '<error-message>' FROM ... WHERE ... GROUP BY ...
    HAVING ...] over the usage log, the database and [clock]. The policy
    is satisfied iff the query returns no rows.

    At registration time the query is qualified (every column reference
    gets its alias) and classified:

    - {b monotone} (§4.2.1): SPJU queries, or queries whose HAVING is a
      conjunction of [COUNT([DISTINCT] x) > k] conditions.
    - {b interleavable}: monotone policies safe for partial-policy
      pruning. Lemma 4.4 requires relations removed by a partial policy
      to be key-joined when the aggregate can grow with row multiplicity;
      lacking key metadata we admit only [COUNT(DISTINCT ...)] (whose
      value cannot increase when a join is removed), plus aggregate-free
      policies.
    - {b time-independent} (§4.1.1): every pair of log-relation [ts]
      attributes is (transitively) equated, group-by includes a joined
      [ts] whenever aggregates appear, and — a soundness strengthening
      over the paper's syntactic test — the policy does not reference
      [clock] (a clock comparison such as [c.ts - u.ts > w] can make old
      tuples age into violation, which the current-timestamp rewriting
      would miss). *)

open Relational

type t = {
  name : string;
  source : string;  (** SQL text as registered *)
  query : Ast.query;  (** qualified; possibly rewritten by optimizations *)
  shape : Ast.query;  (** [query] with every literal masked: the template
                          identity unification groups by *)
  message : string;
  log_rels : string list;  (** lowercased usage-log relations referenced *)
  monotone : bool;
  interleavable : bool;
  core_prunable : bool;
      (** may join interleaved evaluation with a HAVING-stripped partial *)
  time_independent : bool;
  ts_joined : bool;  (** the top-level log aliases share one [ts] class *)
  ti_rewritten : bool;  (** [query] already restricted to the current ts *)
  active_from : int;  (** timestamp at which the policy was registered *)
}

let lc = Analysis.lc

(* Each select of the query (top level, union branches, FROM subqueries). *)
let rec selects_of (q : Ast.query) : Ast.select list =
  match q with
  | Ast.Union { left; right; _ } -> selects_of left @ selects_of right
  | Ast.Select s ->
    s
    :: List.concat_map
         (function
           | Ast.From_subquery { query; _ } -> selects_of query
           | Ast.From_table _ -> [])
         s.from

let message_of (q : Ast.query) ~(default : string) =
  match q with
  | Ast.Select { items = Ast.Sel_expr (Ast.Lit (Value.Str m), _) :: _; _ } -> m
  | _ -> default

(* Monotonicity --------------------------------------------------------- *)

(* A HAVING conjunct of the form COUNT([DISTINCT] x) > k (or flipped);
   returns the aggregate's distinct flag when it matches. *)
let monotone_having_conjunct (e : Ast.expr) : bool option =
  match e with
  | Ast.Binop ((Ast.Gt | Ast.Ge), Ast.Agg_call ((Ast.Count | Ast.Count_star), d, _), Ast.Lit _)
  | Ast.Binop ((Ast.Lt | Ast.Le), Ast.Lit _, Ast.Agg_call ((Ast.Count | Ast.Count_star), d, _))
    ->
    Some d
  | _ -> None

let select_monotone (s : Ast.select) =
  let no_agg_items =
    List.for_all
      (function Ast.Sel_expr (e, _) -> not (Ast.expr_has_agg e) | _ -> true)
      s.items
  in
  let where_ok =
    List.for_all (fun c -> not (Ast.expr_has_agg c)) (Ast.conjuncts_opt s.where)
  in
  let having_ok =
    List.for_all
      (fun c -> monotone_having_conjunct c <> None)
      (Ast.conjuncts_opt s.having)
  in
  no_agg_items && where_ok && having_ok

let monotone (q : Ast.query) = List.for_all select_monotone (selects_of q)

let interleavable ~is_log (q : Ast.query) =
  monotone q
  && (not (Analysis.subquery_uses_log ~is_log q))
  && List.for_all
       (fun s ->
         List.for_all
           (fun c ->
             match monotone_having_conjunct c with
             | Some distinct -> distinct
             | None -> false)
           (Ast.conjuncts_opt s.Ast.having))
       (selects_of q)

(* A query for which empty input implies empty output: every select either
   groups (no groups over no rows) or has no HAVING. A policy with this
   property — even a non-monotone one — can be pruned during interleaved
   evaluation whenever its HAVING-stripped SPJ core is already empty,
   because the stripped core is monotone (Lemma 4.4 applies to it) and no
   surviving join rows means no groups for HAVING to accept. This is what
   lets the paper's P4 (COUNT <= k, non-monotone) still benefit from the
   uid-0 fast path in Fig. 2a. *)
let empty_input_empty_output (q : Ast.query) =
  List.for_all
    (fun (s : Ast.select) -> s.group_by <> [] || s.having = None)
    (selects_of q)

(* Time-independence ----------------------------------------------------- *)

let log_aliases ~is_log (s : Ast.select) =
  List.filter_map
    (fun (alias, rel) -> if is_log rel then Some alias else None)
    (Analysis.table_occurrences s)

(* Do the log aliases of [s] share one [ts] equivalence class? *)
let select_ts_joined ~is_log (s : Ast.select) =
  Analysis.one_class ~col:Usage_log.time_column (Ast.conjuncts_opt s.where)
    (log_aliases ~is_log s)

let select_time_independent ~is_log (s : Ast.select) =
  let uses_clock =
    List.exists
      (fun (_, rel) -> rel = Usage_log.clock_relation)
      (Analysis.table_occurrences s)
  in
  if uses_clock then false
  else
    match log_aliases ~is_log s with
    | [] -> true (* no log relations: trivially time-independent *)
    | a0 :: _ ->
      let classes = Analysis.Eq_classes.of_conjuncts (Ast.conjuncts_opt s.where) in
      let has_agg =
        s.having <> None
        || List.exists
             (function Ast.Sel_expr (e, _) -> Ast.expr_has_agg e | _ -> false)
             s.items
      in
      let group_has_ts =
        List.exists
          (function
            | Ast.Col (Some q, c) ->
              Analysis.Eq_classes.same classes (a0, "ts") (lc q, lc c)
            | _ -> false)
          s.group_by
      in
      select_ts_joined ~is_log s && ((not has_agg) || group_has_ts)

let time_independent ~is_log (q : Ast.query) =
  (* No FROM subqueries referencing logs: keeps the rewriting simple and
     sound (our survey policies never nest log references). *)
  (not (Analysis.subquery_uses_log ~is_log q))
  && List.for_all (select_time_independent ~is_log) (selects_of q)

(* One top-level SELECT whose log aliases (at least one) share one
   [ts] class. *)
let ts_joined ~is_log (q : Ast.query) =
  match q with
  | Ast.Union _ -> false
  | Ast.Select s -> log_aliases ~is_log s <> [] && select_ts_joined ~is_log s

(* Registration ------------------------------------------------------------ *)

(* Replace a policy's query, re-running classification: every field
   derived from the query alone. *)
let with_query ~is_log (p : t) (query : Ast.query) : t =
  {
    p with
    query;
    shape = Ast.mask_literals query;
    log_rels = Analysis.log_relations ~is_log query;
    monotone = monotone query;
    interleavable = interleavable ~is_log query;
    core_prunable =
      (not (Analysis.subquery_uses_log ~is_log query))
      && empty_input_empty_output query;
    time_independent = time_independent ~is_log query;
    ts_joined = ts_joined ~is_log query;
  }

let create (cat : Catalog.t) ~(is_log : string -> bool) ~(name : string)
    ~(active_from : int) (source : string) : t =
  let parsed = Parser.query source in
  let query = Analysis.qualify cat parsed in
  (* Restrict the policy's view of history to its registration time
     (footnote 7): older log tuples predate the policy. Every log
     occurrence is guarded — in each UNION arm and inside FROM
     subqueries too. *)
  let rec restrict (q : Ast.query) : Ast.query =
    match q with
    | Ast.Union u ->
      Ast.Union { u with left = restrict u.left; right = restrict u.right }
    | Ast.Select s ->
      let from =
        List.map
          (function
            | Ast.From_subquery sq ->
              Ast.From_subquery { sq with query = restrict sq.query }
            | fi -> fi)
          s.from
      in
      let extra =
        List.filter_map
          (fun (alias, rel) ->
            if is_log rel then
              Some
                (Ast.Binop
                   ( Ast.Gt,
                     Ast.Col (Some alias, "ts"),
                     Ast.Lit (Value.Int active_from) ))
            else None)
          (Analysis.table_occurrences s)
      in
      Ast.Select
        { s with from; where = Ast.conjoin (Ast.conjuncts_opt s.where @ extra) }
  in
  let query = if active_from <= 0 then query else restrict query in
  (* [with_query] fills in every classified field. *)
  with_query ~is_log
    {
      name;
      source;
      query;
      shape = query;
      message = message_of query ~default:(Printf.sprintf "policy %s violated" name);
      log_rels = [];
      monotone = false;
      interleavable = false;
      core_prunable = false;
      time_independent = false;
      ts_joined = false;
      ti_rewritten = false;
      active_from;
    }
    query

let pp ppf (p : t) =
  Format.fprintf ppf "%s [%s%s%s]: %s" p.name
    (if p.monotone then "monotone" else "non-monotone")
    (if p.interleavable then ", interleavable" else "")
    (if p.time_independent then ", time-independent" else "")
    (Sql_print.query p.query)
