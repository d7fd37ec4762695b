(** Policy relevance index.

    With thousands of registered policies, most of them cannot possibly
    be affected by any one submission: a per-user policy pinned to
    [uid = 7] is untouched by user 9's queries. This module precomputes,
    per active policy, which log slots its top-level FROM binds and
    which equality filters gate each slot, so the engine can decide —
    from the tentative log increment alone, without evaluating the
    query — that a policy's verdict cannot have changed since the last
    accepted submission proved it empty, and skip it.

    Soundness rests on an exact-identity argument, not an approximation.
    A policy is {e eligible} when its query is a monotone top-level
    SELECT with no log relation inside a subquery, and it reads the
    clock only if TI-rewritten (see below). For an eligible
    policy, suppose (the engine checks all of this at skip time):

    - the accept proof ({!Commit.covers}) shows the query empty over
      the state the last commit recorded, with every referenced
      relation's version counter unchanged since (plain relations are
      bit-unchanged, log relations have only gained rows above the
      delta watermark or lost rows to compaction);
    - the enumerated filter sources ({!filter.allowed} built from
      [log.col = plain.col] equalities) are unchanged since the index
      was built; and
    - {b every} log slot is {e blocked}: no row of its relation's
      tentative delta ({!Relational.Table.fold_delta}) satisfies all of
      the slot's filters.

    The filters are a subset of the query's own single-slot equality
    conjuncts, so satisfying them is necessary for a row to bind the
    slot. Blocked slots therefore mean no delta row participates in any
    binding; the query's bindings over the current state all draw on
    rows below the watermarks, a subset of the proved state, and
    monotonicity collapses the result into the proved-empty one.
    The verdict is unchanged: satisfied.

    Requiring {e every} slot blocked is needed in general but overly
    conservative for the common template shape, a join of several log
    relations on their timestamp column ([u.ts = s.ts]): there, {e one}
    blocked slot suffices. Every submission appends all its increments
    at one fresh clock tick, so a row with a post-proof timestamp is a
    delta row; when the log slots are connected by timestamp equalities
    ({!info.ts_linked}), any binding containing one delta row has the
    delta timestamp in every log slot — making {e all} its log rows
    delta rows. A single slot whose filters no delta row satisfies then
    starves every new binding outright: the per-user policy joining
    [users] with [schema] is skipped for uid 9's submissions because
    uid 9 cannot bind the users slot, even though the schema slot's
    rows match. (A new binding cannot hide in the plain slots either:
    the proof pins the plain dependencies bit-unchanged.)

    A time-independent policy, once rewritten ({!info.ti_pinned}), needs
    no proof at all. The rewrite pins a log timestamp to the clock — and
    the TI qualification equates every log timestamp — so its verdict is
    exactly emptiness at the current tick: that is the §4.1.1 property
    (holds on the whole log iff it holds on the increment). Every
    current-tick row is a delta row (the tick is fresh), so blocked
    slots starve every current-tick binding outright and the verdict is
    satisfied — whatever the plain relations now contain, and however
    the clock moved. Without the waiver no TI policy could ever be
    skipped: the rewrite adds the clock as a dependency, and the clock's
    version bumps on every submission's [set_clock], so the proof would
    simply never cover it. For the same reason a policy that reads the
    clock {e without} being TI-rewritten is not eligible: no proof ever
    covers it, so checking it would be wasted work. *)

open Relational

(** One equality gate on a log slot: the slot's column [col] (a cell
    index, timestamp prefix included) must hold one of [allowed] for a
    row to survive the query's own WHERE conjuncts. [allowed] is a
    {!Relational.Value.Tbl}: membership is grouping identity, which
    admits every value SQL [=] could match (and a NULL cell when NULL is
    allowed, which only makes the gate more conservative). *)
type filter = { col : int; allowed : unit Value.Tbl.t }

type info = {
  eligible : bool;
  deps : string list;
      (** every relation the query references (canonical name), across
          subqueries too — what the accept proof must cover *)
  slots : (string * filter list) list;
      (** top-level FROM occurrences of log relations, with the equality
          filters extracted for each occurrence's alias *)
  guards : (string * int) list;
      (** tables whose column values were enumerated into a filter, with
          {!Relational.Table.ver_mut} at build time: enumeration is a
          snapshot, so any later mutation disables skipping *)
  ts_linked : bool;
      (** the log slots form one component under the query's
          timestamp-equality conjuncts ({!Policy.t.ts_joined}): one
          blocked slot suffices *)
  ti_pinned : bool;
      (** the query is TI-rewritten (pinned to the current clock tick):
          its verdict is emptiness at the current tick, so blocked slots
          decide it without any proof — see the header *)
}

type t = (string, info) Hashtbl.t

let lc = Analysis.lc

(* All canonical relations a query references, including union branches
   and FROM subqueries. *)
let deps_of (cat : Catalog.t) (q : Ast.query) : string list =
  Policy.selects_of q
  |> List.concat_map (fun s ->
         List.filter_map
           (fun (_, rel) -> Option.map Table.name (Catalog.find_opt cat rel))
           (Analysis.table_occurrences s))
  |> List.sort_uniq compare

(* Distinct values of [col] in [rel]; [None] when the
   table or column is missing. The caller records a version guard. *)
let enumerate (cat : Catalog.t) (rel : string) (col : string) :
    unit Value.Tbl.t option =
  match Catalog.find_opt cat rel with
  | None -> None
  | Some table -> (
    match Schema.find_index (Table.schema table) col with
    | None -> None
    | Some i ->
      let allowed = Value.Tbl.create 64 in
      Table.fold
        (fun () row -> Value.Tbl.replace allowed (Row.cells row).(i) ())
        () table;
      Some allowed)

let build (cat : Catalog.t) ~(is_log : string -> bool) ~(clock_rel : string)
    (ps : Policy.t list) : t =
  let clock = lc clock_rel in
  let t = Hashtbl.create (max 16 (List.length ps)) in
  List.iter
    (fun (p : Policy.t) ->
      let deps = deps_of cat p.Policy.query in
      let guards = ref [] in
      let eligible, slots =
        match p.Policy.query with
        | Ast.Union _ -> (false, [])
        | _ when not p.Policy.monotone -> (false, [])
        | _ when Analysis.subquery_uses_log ~is_log p.Policy.query ->
          (false, [])
        | _
          when (not p.Policy.ti_rewritten)
               && List.exists (fun d -> lc d = clock) deps ->
          (false, [])
        | Ast.Select s ->
          let occs = Analysis.table_occurrences s in
          let conjuncts = Ast.conjuncts_opt s.Ast.where in
          (* Resolve an alias to its plain (non-log, non-clock) table, for
             enumerable equality partners. *)
          let plain_table alias =
            match List.assoc_opt alias occs with
            | Some rel when (not (is_log rel)) && lc rel <> clock ->
              Catalog.find_opt cat rel
            | Some _ | None -> None
          in
          let filters_for alias rel =
            let table = Catalog.find_opt cat rel in
            let col_index c =
              Option.bind table (fun tb -> Schema.find_index (Table.schema tb) c)
            in
            let singleton v =
              let h = Value.Tbl.create 1 in
              Value.Tbl.replace h v ();
              h
            in
            (* [alias.c = a2.c2] with [a2] a plain table: [c] may take
               only the values [c2] enumerates. *)
            let plain_join (a, c) (a2, c2) =
              if lc a <> alias || lc a2 = alias then None
              else
                match plain_table (lc a2) with
                | None -> None
                | Some tb -> (
                  match (col_index c, enumerate cat (Table.name tb) c2) with
                  | Some col, Some allowed ->
                    guards := (Table.name tb, Table.ver_mut tb) :: !guards;
                    Some { col; allowed }
                  | _ -> None)
            in
            List.filter_map
              (fun conj ->
                match conj with
                | Ast.Binop (Ast.Eq, Ast.Col (Some a, c), Ast.Lit v)
                | Ast.Binop (Ast.Eq, Ast.Lit v, Ast.Col (Some a, c))
                  when lc a = alias ->
                  Option.map
                    (fun col -> { col; allowed = singleton v })
                    (col_index c)
                | Ast.Binop (Ast.Eq, Ast.Col (Some a, c), Ast.Col (Some a2, c2)) -> (
                  (* Either operand may be this slot's column. *)
                  match plain_join (a, c) (a2, c2) with
                  | Some f -> Some f
                  | None -> plain_join (a2, c2) (a, c))
                | _ -> None)
              conjuncts
          in
          let slots =
            List.filter_map
              (fun (alias, rel) ->
                if is_log rel then Some (rel, filters_for alias rel) else None)
              occs
          in
          (true, slots)
      in
      Hashtbl.replace t p.Policy.name
        {
          eligible;
          deps;
          slots;
          guards = List.sort_uniq compare !guards;
          ts_linked = p.Policy.ts_joined;
          ti_pinned = eligible && p.Policy.ti_rewritten;
        })
    ps;
  t

let info (t : t) name = Hashtbl.find_opt t name

(* A delta row binds the slot only if it passes every filter. *)
let row_passes (filters : filter list) (cells : Value.t array) : bool =
  List.for_all
    (fun f ->
      f.col < Array.length cells && Value.Tbl.mem f.allowed cells.(f.col))
    filters

let blocked ?(available : string list option) (cat : Catalog.t) (i : info) :
    bool =
  let final (rel, _) =
    match available with None -> true | Some a -> List.mem (lc rel) a
  in
  let slot_blocked (rel, filters) =
    match Catalog.find_opt cat rel with
    | None -> false
    | Some tb ->
      Table.fold_delta
        (fun acc row -> acc && not (row_passes filters (Row.cells row)))
        true tb
  in
  List.for_all
    (fun (rel, ver) ->
      match Catalog.find_opt cat rel with
      | Some tb -> Table.ver_mut tb = ver
      | None -> false)
    i.guards
  &&
  match i.slots with
  | [] -> true
  | slots ->
    (* A slot only counts once its delta is final ([final]): a blocked
       verdict over a half-appended increment would be unsound. *)
    if i.ts_linked then List.exists (fun s -> final s && slot_blocked s) slots
    else List.for_all (fun s -> final s && slot_blocked s) slots

let eligible_count (t : t) =
  Hashtbl.fold (fun _ i n -> if i.eligible then n + 1 else n) t 0

let size (t : t) = Hashtbl.length t
