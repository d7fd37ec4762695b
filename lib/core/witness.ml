(** Absolute-witness computation for log compaction (§4.1.2).

    For a policy π and a log relation [Ri], an {e absolute witness} is a
    subset of [Ri] sufficient to evaluate π now and at every future time
    (Def. 4.1). Witnesses are built as queries over the current log
    following Lemmas 4.1–4.3:

    - Lemma 4.1 (full queries / policies with HAVING): semijoin-reduce
      [Ri] against its ts-equijoin neighborhood and the policy's database
      relations, keeping the applicable predicates.
    - Lemma 4.2 (Boolean policies): additionally keep only one tuple per
      combination of [Ri]'s join attributes (the paper's [DISTINCT ON],
      applied by {!scan}).
    - Distinct-value witnesses (an extension of Lemma 4.1): when every
      aggregate of the SELECT is a [COUNT(DISTINCT e)], keep one binding
      per value of the group expressions, the counted expressions and
      the kept columns that dropped predicates read — the one whose
      deadline is latest ({!scan}). docs/ARCHITECTURE.md
      ("Correctness") has the proof and the shapes it leaves out.
    - Lemma 4.3 (clock): normalize clock predicates to [c.ts op expr],
      drop lower bounds on the clock, and freeze upper bounds at
      [currenttime + 1]. Policies with an unsupported clock predicate
      (e.g. [!=]) are not compacted at all.

    The frozen frontier is the only part of a witness that depends on the
    compaction time, so it is not written into the query: each frozen
    bound [now + 1 op e] becomes an output column [e] plus its
    strictness, and {!deadline} turns a value of [e] into the first tick
    at which the bound fails. The query text is then the same at every
    commit, and a retained tuple's {e deadline} — the max over its joined
    rows of the min over their bounds — says when it stops being a
    witness.

    Algorithm 2's recursion handles FROM subqueries: each subquery is
    compacted separately as a full query, and the witnesses are unioned.

    The produced witness queries always place the target occurrence of
    [Ri] at FROM slot 0, so the engine can execute them in source-tid
    tracking mode and mark the retained tuples in place. *)

open Relational

type bound = { expr : Ast.expr; strict : bool }

type query = {
  select : Ast.select;
  keys : int option;
  latest : int list option;
  bounds : bound list;
  clock : string;
}

type t = Keep_all | Queries of query list

let lc = Analysis.lc

let merge a b =
  match a, b with
  | Keep_all, _ | _, Keep_all -> Keep_all
  | Queries x, Queries y -> Queries (x @ y)

(* Clock predicate normalization (Lemma 4.3) ----------------------------- *)

(* Isolate [clk.ts op expr] from a comparison conjunct; the clock side may
   be wrapped in +/- arithmetic. Returns [None] when the predicate cannot
   be normalized (which disables compaction for the whole policy). *)
let isolate_clock ~(clock_aliases : string list) (conj : Ast.expr) :
    [ `NoClock | `Clock of Ast.binop * Ast.expr | `Unsupported ] =
  let mentions e = Analysis.expr_refs_any_alias e clock_aliases in
  if not (mentions conj) then `NoClock
  else
    let rec isolate op lhs rhs =
      (* invariant: [lhs] mentions the clock, [rhs] does not *)
      match lhs with
      | Ast.Col (Some q, c) when List.mem (lc q) clock_aliases && lc c = "ts" ->
        Some (op, rhs)
      | Ast.Binop (Ast.Add, a, b) when mentions a && not (mentions b) ->
        isolate op a (Ast.Binop (Ast.Sub, rhs, b))
      | Ast.Binop (Ast.Add, a, b) when mentions b && not (mentions a) ->
        isolate op b (Ast.Binop (Ast.Sub, rhs, a))
      | Ast.Binop (Ast.Sub, a, b) when mentions a && not (mentions b) ->
        isolate op a (Ast.Binop (Ast.Add, rhs, b))
      | Ast.Binop (Ast.Sub, a, b) when mentions b && not (mentions a) ->
        isolate (Ast.flip_cmp op) b (Ast.Binop (Ast.Sub, a, rhs))
      | _ -> None
    in
    match conj with
    | Ast.Binop (((Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), l, r) -> (
      let attempt =
        if mentions l && not (mentions r) then isolate op l r
        else if mentions r && not (mentions l) then isolate (Ast.flip_cmp op) r l
        else None
      in
      match attempt with Some (op, e) -> `Clock (op, e) | None -> `Unsupported)
    | _ -> `Unsupported

(* Lemma 4.3 at compaction time [now] keeps [now + 1 < e] for a strict
   upper clock bound and [now + 1 <= e] for a non-strict one (an equality
   freezes like [<=]); lower bounds drop. [e] reads the joined row only,
   so the frontier is left out of the query and applied by [deadline]. *)
let bound_of (op : Ast.binop) (e : Ast.expr) : bound option =
  match op with
  | Ast.Gt | Ast.Ge -> None
  | Ast.Lt -> Some { expr = e; strict = true }
  | Ast.Le | Ast.Eq -> Some { expr = e; strict = false }
  | _ -> assert false

let never = min_int

let forever = max_int

(* The first tick [now] at which [now + 1 op v] is false, under the
   executor's comparison ({!Relational.Eval.compare_op}: NULL compares
   false, numbers order above BOOL and below TEXT, INT against FLOAT
   exactly). *)
let deadline (b : bound) (v : Value.t) : int =
  match v with
  | Value.Int n ->
    if b.strict then if n = min_int then never else n - 1 else n
  | Value.Float f ->
    if Float.is_nan f || f < -0x1p62 then never
    else if f >= 0x1p62 then forever
    else if b.strict then int_of_float (Float.ceil f) - 1
    else int_of_float (Float.floor f)
  | Value.Str _ -> forever
  | Value.Null | Value.Bool _ -> never

(* Distinct-value witnesses ---------------------------------------------- *)

(* The counted expressions of a grouped SELECT whose every aggregate is a
   [COUNT(DISTINCT e)] and whose items and HAVING read nothing else but
   literals and GROUP BY expressions: its output is a function of the
   set of (group, counted values) its bindings reach. [None] for any
   other shape, and for one with a FROM subquery, DISTINCT ON, ORDER BY
   or LIMIT. *)
let counted_exprs (s : Ast.select) : Ast.expr list option =
  let counted = ref [] in
  let rec determined e =
    List.mem e s.group_by
    ||
    match e with
    | Ast.Lit _ -> true
    | Ast.Col _ -> false
    | Ast.Agg_call (Ast.Count, true, Some arg) ->
      if not (List.mem arg !counted) then counted := arg :: !counted;
      true
    | Ast.Agg_call _ -> false
    | Ast.Binop (_, a, b) -> determined a && determined b
    | Ast.Unop (_, a) -> determined a
    | Ast.Fn_call (_, args) -> List.for_all determined args
    | Ast.Case (branches, default) ->
      List.for_all (fun (c, v) -> determined c && determined v) branches
      && Option.fold ~none:true ~some:determined default
  in
  let plain_shape =
    (match s.distinct with Ast.All | Ast.Distinct -> true | Ast.Distinct_on _ -> false)
    && s.order_by = [] && s.limit = None
    && List.for_all (function Ast.From_table _ -> true | Ast.From_subquery _ -> false) s.from
  in
  if
    plain_shape
    && List.for_all
         (function Ast.Sel_expr (e, _) -> determined e | Ast.Star | Ast.Table_star _ -> false)
         s.items
    && List.for_all determined (Ast.conjuncts_opt s.having)
  then Some (List.rev !counted)
  else None

(* Witnesses for one SELECT ------------------------------------------------ *)

(* Compute, for every log relation occurring in [s], its witness queries.
   Returns an association list keyed by (lowercased) log relation name. *)
let for_select ~(is_log : string -> bool) (s : Ast.select) : (string * t) list =
  let occs = Analysis.table_occurrences s in
  let clock_aliases =
    List.filter_map
      (fun (a, rel) -> if rel = Usage_log.clock_relation then Some a else None)
      occs
  in
  let log_occs = List.filter (fun (_, rel) -> is_log rel) occs in
  let db_items =
    List.filter
      (fun fi ->
        match fi with
        | Ast.From_table { name; _ } ->
          let rel = lc name in
          (not (is_log rel)) && rel <> Usage_log.clock_relation
        | Ast.From_subquery _ -> false)
      s.from
  in
  if log_occs = [] then []
  else begin
    (* 1. Normalize clock predicates. *)
    let conjuncts = Ast.conjuncts_opt s.where in
    let normalized =
      List.map
        (fun c ->
          match c with
          | Ast.Binop (Ast.Neq, _, _)
            when Analysis.expr_refs_any_alias c clock_aliases ->
            `Unsupported
          | _ -> (
            match isolate_clock ~clock_aliases c with
            | `NoClock -> `Plain c
            | `Clock (op, e) -> `Clock (op, e)
            | `Unsupported -> `Unsupported))
        conjuncts
    in
    if List.mem `Unsupported normalized then
      (* Paper: no compaction for policies with unsupported clock use. *)
      List.map (fun (_, rel) -> (rel, Keep_all)) log_occs
    else begin
      let plain =
        List.filter_map (function `Plain c -> Some c | _ -> None) normalized
      in
      let bounds =
        List.filter_map
          (function `Clock (op, e) -> bound_of op e | _ -> None)
          normalized
      in
      (* Each predicate with the expression whose qualifiers decide where
         it applies: a plain conjunct itself, a bound its [e]. *)
      let tagged =
        List.map (fun c -> (`Plain c, c)) plain
        @ List.map (fun b -> (`Bound b, b.expr)) bounds
      in
      (* 2. ts-equijoin neighborhood over log occurrences. *)
      let log_aliases = List.map fst log_occs in
      let ts_edges =
        List.filter_map
          (fun c ->
            match c with
            | Ast.Binop (Ast.Eq, Ast.Col (Some qa, ca), Ast.Col (Some qb, cb))
              when lc ca = "ts" && lc cb = "ts"
                   && List.mem (lc qa) log_aliases
                   && List.mem (lc qb) log_aliases ->
              Some (Ast.Binop (Ast.Eq, Ast.Col (Some (lc qa), "ts"),
                               Ast.Col (Some (lc qb), "ts")))
            | _ -> None)
          plain
      in
      let classes = Analysis.Eq_classes.of_conjuncts ts_edges in
      let neighborhood target_alias =
        List.filter
          (fun (a, _) ->
            a <> target_alias
            && Analysis.Eq_classes.same classes (target_alias, "ts") (a, "ts"))
          log_occs
      in
      (* Aliases kept for a given target, and their FROM items. *)
      let from_item_of alias =
        List.find
          (fun fi -> lc (Ast.from_item_alias fi) = alias)
          s.from
      in
      let boolean = s.having = None && s.group_by = [] in
      (* A distinct-value witness needs every clock predicate to be an
         upper bound: a dropped lower bound may hold for the binding it
         replaces and fail for the later representative. *)
      let counted =
        if
          boolean
          || List.exists
               (function `Clock ((Ast.Gt | Ast.Ge | Ast.Eq), _) -> true | _ -> false)
               normalized
        then None
        else counted_exprs s
      in
      let clock = Partial.fresh_clock_alias s in
      let witness_for (target_alias, _rel) : query =
        let kept_aliases =
          target_alias
          :: List.map fst (neighborhood target_alias)
          @ List.map (fun fi -> lc (Ast.from_item_alias fi)) db_items
        in
        let reads_kept e =
          List.for_all
            (fun q ->
              match q with
              | Some q -> List.mem (lc q) kept_aliases
              | None -> true)
            (Ast.expr_qualifiers e)
        in
        let applicable, dropped = List.partition (fun (_, e) -> reads_kept e) tagged in
        let where =
          Ast.conjoin
            (List.filter_map
               (function `Plain c, _ -> Some c | `Bound _, _ -> None)
               applicable)
        in
        let bounds =
          List.filter_map
            (function `Bound b, _ -> Some b | `Plain _, _ -> None)
            applicable
        in
        let from =
          from_item_of target_alias
          :: List.map (fun (a, _) -> from_item_of a) (neighborhood target_alias)
          @ db_items
        in
        let keys =
          match counted with
          | Some counted ->
            (* One binding per value of the group and counted
               expressions, and of every kept column a dropped predicate
               reads; an expression over a dropped alias contributes the
               kept columns it reads. *)
            let x = ref [] in
            let add e = if not (List.mem e !x) then x := e :: !x in
            let add_cols =
              Ast.iter_expr (function
                | Ast.Col (Some q, col) when List.mem (lc q) kept_aliases ->
                  add (Ast.Col (Some (lc q), col))
                | _ -> ())
            in
            List.iter
              (fun e -> if reads_kept e then add e else add_cols e)
              (s.group_by @ counted);
            List.iter (fun (_, e) -> add_cols e) dropped;
            Some (List.rev !x)
          | None when not boolean -> None
          | None -> begin
            (* Lemma 4.2's X: attributes of the target occurring in join
               predicates; clock bounds count as joins. *)
            let x = ref [] in
            List.iter
              (fun (p, e) ->
                let quals =
                  List.filter_map (Option.map lc) (Ast.expr_qualifiers e)
                in
                let joins_elsewhere =
                  (match p with `Bound _ -> true | `Plain _ -> false)
                  || List.exists (fun q -> q <> target_alias) quals
                in
                if joins_elsewhere && List.mem target_alias quals then
                  Ast.iter_expr
                    (function
                      | Ast.Col (Some q, col) when lc q = target_alias ->
                        let e = Ast.Col (Some target_alias, col) in
                        if not (List.mem e !x) then x := e :: !x
                      | _ -> ())
                    e)
              applicable;
            Some (List.rev !x)
          end
        in
        (* Lemma 4.2's one tuple per key is picked by {!scan}, not by a
           DISTINCT ON: a representative must satisfy its bounds at the
           compaction tick, which the query does not read. *)
        let items =
          match
            Option.value keys ~default:[] @ List.map (fun b -> b.expr) bounds
          with
          | [] -> [ Ast.Sel_expr (Ast.Lit (Value.Int 1), None) ]
          | es -> List.map (fun e -> Ast.Sel_expr (e, None)) es
        in
        (* The binding's log slots (the target and its neighbourhood)
           in alias order, the same in every witness query of the ts
           class: ties between representatives break alike in each. *)
        let latest =
          Option.map
            (fun _ ->
              List.map snd
                (List.sort compare
                   (List.mapi (fun i a -> (a, i))
                      (target_alias :: List.map fst (neighborhood target_alias)))))
            counted
        in
        {
          select = { Ast.empty_select with items; from; where };
          keys = Option.map List.length keys;
          latest;
          bounds;
          clock;
        }
      in
      (* One witness query per occurrence; self-joins union per relation. *)
      let by_rel = Hashtbl.create 4 in
      List.iter
        (fun (alias, rel) ->
          let w = Queries [ witness_for (alias, rel) ] in
          let cur = Option.value (Hashtbl.find_opt by_rel rel) ~default:(Queries []) in
          Hashtbl.replace by_rel rel (merge cur w))
        log_occs;
      Hashtbl.fold (fun rel w acc -> (rel, w) :: acc) by_rel []
    end
  end

(* Witnesses for a policy query, with Algorithm 2's recursion into union
   branches and FROM subqueries. *)
let rec for_query ~is_log (q : Ast.query) : (string * t) list =
  let combine lists =
    List.fold_left
      (fun acc (rel, w) ->
        let cur = Option.value (List.assoc_opt rel acc) ~default:(Queries []) in
        (rel, merge cur w) :: List.remove_assoc rel acc)
      [] (List.concat lists)
  in
  match q with
  | Ast.Union { left; right; _ } ->
    combine [ for_query ~is_log left; for_query ~is_log right ]
  | Ast.Select s ->
    let sub =
      List.concat_map
        (function
          | Ast.From_subquery { query; _ } -> [ for_query ~is_log query ]
          | Ast.From_table _ -> [])
        s.from
    in
    combine (for_select ~is_log s :: sub)

let for_policy ~is_log (p : Policy.t) : (string * t) list =
  for_query ~is_log p.Policy.query

(* Query forms reading the clock ------------------------------------------- *)

let clock_ts q = Ast.Col (Some q.clock, Usage_log.time_column)

let with_clock q (extra : Ast.expr list) : Ast.select =
  let s = q.select in
  {
    s with
    Ast.from =
      s.Ast.from
      @ [ Ast.From_table { name = Usage_log.clock_relation; alias = Some q.clock } ];
    where = Ast.conjoin (Ast.conjuncts_opt s.Ast.where @ extra);
  }

let at_clock_tick q =
  let target = lc (Ast.from_item_alias (List.hd q.select.Ast.from)) in
  with_clock q
    [ Ast.Binop (Ast.Eq, Ast.Col (Some target, Usage_log.time_column), clock_ts q) ]

let frozen q =
  let frontier = Ast.Binop (Ast.Add, clock_ts q, Ast.Lit (Value.Int 1)) in
  with_clock q
    (List.map
       (fun b -> Ast.Binop ((if b.strict then Ast.Lt else Ast.Le), frontier, b.expr))
       q.bounds)

(* The frozen witness restricted to the [available] logs, every
   surviving log slot pinned to the tick of [q.clock], its one clock
   item: the target's neighbourhood all ts-equijoins it, and a would-be
   increment lives at the clock's tick. *)
let probe ~is_log ~available q =
  let s = frozen q in
  Partial.at_tick ~is_log ~available
    { s with Ast.items = [ Ast.Sel_expr (Ast.Lit (Value.Int 1), None) ] }

(* Reading results ------------------------------------------------------------ *)

let row_deadline q (values : Value.t array) =
  let base = Option.value q.keys ~default:0 in
  let d = ref forever in
  List.iteri (fun i b -> d := min !d (deadline b values.(base + i))) q.bounds;
  !d

let target_tid (row : Executor.row_out) =
  List.assoc 0 row.Executor.src_tids

let no_key = [||]

(* Compare two rows' source tids at [slots], in order. *)
let rec compare_tids slots (a : Executor.row_out) (b : Executor.row_out) =
  match slots with
  | [] -> 0
  | i :: rest ->
    let c = Int.compare (List.assoc i a.Executor.src_tids) (List.assoc i b.Executor.src_tids) in
    if c <> 0 then c else compare_tids rest a b

let scan q ~now (r : Executor.result) (f : Value.t array -> int -> int -> unit) =
  match q.keys, q.latest with
  | None, _ ->
    List.iter
      (fun (row : Executor.row_out) ->
        f no_key (target_tid row) (row_deadline q row.Executor.values))
      r.Executor.out_rows
  | Some k, Some slots ->
    let best = Value.Key.Tbl.create 16 in
    List.iter
      (fun (row : Executor.row_out) ->
        let d = row_deadline q row.Executor.values in
        if d > now then begin
          let key = Array.sub row.Executor.values 0 k in
          match Value.Key.Tbl.find_opt best key with
          | Some (d0, row0) when d0 > d || (d0 = d && compare_tids slots row0 row >= 0) -> ()
          | Some _ | None -> Value.Key.Tbl.replace best key (d, row)
        end)
      r.Executor.out_rows;
    Value.Key.Tbl.iter (fun key (d, row) -> f key (target_tid row) d) best
  | Some k, None ->
    let seen = Value.Key.Tbl.create 16 in
    List.iter
      (fun (row : Executor.row_out) ->
        let d = row_deadline q row.Executor.values in
        if d > now then begin
          let key = Array.sub row.Executor.values 0 k in
          if not (Value.Key.Tbl.mem seen key) then begin
            Value.Key.Tbl.add seen key ();
            f key (target_tid row) d
          end
        end)
      r.Executor.out_rows
