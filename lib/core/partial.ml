(** Partial policies for interleaved evaluation (§4.2.1).

    Given a subset [S] of usage-log relations whose increments have been
    generated, the partial policy πS drops every reference to log
    relations outside [S]: their FROM occurrences, the WHERE conjuncts
    and GROUP BY expressions mentioning them, and the HAVING clause if it
    mentions them. By Lemma 4.4, for a monotone (interleavable) policy
    π ⇒ πS, so πS returning the empty set proves π satisfied and lets the
    engine skip both the full evaluation and the remaining log-generating
    functions. *)

open Relational

let lc = Analysis.lc

(* Saturate a conjunct list with predicates implied by column equalities:
   if [a.x = b.y] and [a.x > e] are conjuncts, add [b.y > e]. This keeps
   sliding-window predicates alive in partial policies even when the
   window was written on a removed relation's timestamp (the paper's
   Example 4.5 keeps [u.ts > c.ts - w] in P2c for the same reason). Each
   derived conjunct substitutes one column for one of its equality-class
   peers; a single round suffices because equality classes are already
   transitive. *)
let saturate (conjuncts : Ast.expr list) : Ast.expr list =
  let classes = Analysis.Eq_classes.of_conjuncts conjuncts in
  (* Collect the members of each class. *)
  let members : ((string * string) * (string * string) list) list =
    let all = ref [] in
    List.iter
      (fun c ->
        Ast.iter_expr
          (function
            | Ast.Col (Some q, col) ->
              let key = (lc q, lc col) in
              if not (List.mem key !all) then all := key :: !all
            | _ -> ())
          c)
      conjuncts;
    List.map
      (fun key ->
        let root = Analysis.Eq_classes.find classes key in
        ( key,
          List.filter
            (fun k -> k <> key && Analysis.Eq_classes.find classes k = root)
            !all ))
      !all
  in
  let subst (qc : string * string) (qc' : string * string) e =
    Ast.map_expr
      (function
        | Ast.Col (Some q, col) when (lc q, lc col) = qc ->
          Ast.Col (Some (fst qc'), snd qc')
        | e -> e)
      e
  in
  let nontrivial = function
    | Ast.Binop (Ast.Eq, Ast.Col (Some q1, c1), Ast.Col (Some q2, c2)) ->
      (lc q1, lc c1) <> (lc q2, lc c2)
    | _ -> true
  in
  let derived =
    List.concat_map
      (fun c ->
        match c with
        | _ when Ast.expr_has_agg c -> []
        | _ ->
          let cols = ref [] in
          Ast.iter_expr
            (function
              | Ast.Col (Some q, col) ->
                let key = (lc q, lc col) in
                if not (List.mem key !cols) then cols := key :: !cols
              | _ -> ())
            c;
          List.concat_map
            (fun key ->
              match List.assoc_opt key members with
              | Some peers ->
                List.filter nontrivial (List.map (fun peer -> subst key peer c) peers)
              | None -> [])
            !cols)
      conjuncts
  in
  (* Dedupe structurally. *)
  List.fold_left
    (fun acc c -> if List.mem c acc then acc else acc @ [ c ])
    conjuncts derived

(* πS for a qualified select. [available] holds lowercased log relation
   names in S; [is_log] classifies relation names. *)
let of_select ~(is_log : string -> bool) ~(available : string list)
    (s : Ast.select) : Ast.select =
  let removed_aliases =
    List.filter_map
      (fun (alias, rel) ->
        if is_log rel && not (List.mem rel available) then Some alias else None)
      (Analysis.table_occurrences s)
  in
  if removed_aliases = [] then s
  else begin
    let keeps_expr e = not (Analysis.expr_refs_any_alias e removed_aliases) in
    let from =
      List.filter
        (fun fi -> not (List.mem (lc (Ast.from_item_alias fi)) removed_aliases))
        s.from
    in
    {
      s with
      from;
      where =
        Ast.conjoin (List.filter keeps_expr (saturate (Ast.conjuncts_opt s.where)));
      group_by = List.filter keeps_expr s.group_by;
      having =
        (match s.having with
        | Some h when keeps_expr h -> Some h
        | _ -> None);
    }
  end

let of_query ~is_log ~available (q : Ast.query) : Ast.query =
  let rec go = function
    | Ast.Select s -> Ast.Select (of_select ~is_log ~available s)
    | Ast.Union { all; left; right } ->
      Ast.Union { all; left = go left; right = go right }
  in
  go q

(* The HAVING-stripped SPJ core of a query, used to prune non-monotone
   (but grouped) policies during interleaved evaluation: the core is
   monotone, and when it is empty there are no groups for HAVING to
   accept. *)
let strip_having (q : Ast.query) : Ast.query =
  let rec go = function
    | Ast.Select s -> Ast.Select { s with Ast.having = None }
    | Ast.Union { all; left; right } ->
      Ast.Union { all; left = go left; right = go right }
  in
  go q

(* A FROM alias for the clock relation that no item of [s] uses. *)
let fresh_clock_alias (s : Ast.select) =
  let taken = List.map (fun fi -> lc (Ast.from_item_alias fi)) s.Ast.from in
  let rec pick k =
    let a = if k = 0 then "dl_clock" else Printf.sprintf "dl_clock%d" k in
    if List.mem a taken then pick (k + 1) else a
  in
  pick 0

(* §4.3's tick-pinned probe. Every increment row is stamped with the
   clock's tick and every committed row is older, so pinning each
   remaining log slot's [ts] to the clock's keeps exactly the bindings
   drawn from the increments. [s]'s clock alias is reused, or one is
   added. *)
let at_tick ~(is_log : string -> bool) ~(available : string list)
    (s : Ast.select) : Ast.select option =
  let s = of_select ~is_log ~available s in
  let occs = Analysis.table_occurrences s in
  let clock_rel = Usage_log.clock_relation in
  let clock, from =
    match List.find_opt (fun (_, rel) -> rel = clock_rel) occs with
    | Some (alias, _) -> (alias, s.from)
    | None ->
      let alias = fresh_clock_alias s in
      (alias, s.from @ [ Ast.From_table { name = clock_rel; alias = Some alias } ])
  in
  match from with
  | [ _clock ] -> None
  | _ ->
    let ts a = Ast.Col (Some a, Usage_log.time_column) in
    let pins =
      List.filter_map
        (fun (alias, rel) ->
          if is_log rel then Some (Ast.Binop (Ast.Eq, ts alias, ts clock)) else None)
        occs
    in
    Some { s with from; where = Ast.conjoin (Ast.conjuncts_opt s.where @ pins) }
