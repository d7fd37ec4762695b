(** Plan rewrites.

    The binder emits a naive plan: every WHERE conjunct sits at the join
    step where its slots are first all available, scans read full rows,
    joins are nested loops. This module rewrites that plan:

    - {b constant folding} — subtrees whose children are all literal fold
      to their value; a subtree that would raise (e.g. [1/0]) is left
      unfolded so the error still surfaces per evaluated row;
    - {b predicate pushdown} — single-slot conjuncts move into the slot's
      scan, rebased to the slot-local layout;
    - {b equi-join-key extraction} — conjuncts of shape
      [prefix_expr = slot_expr] at a join step become hash keys;
    - {b access-path selection} — one probe rule ({!select_access})
      turns a scan's pushed-down comparisons into an index probe,
      whether their keys are constants or clock-pinned;
    - {b projection pruning} — multi-slot selects narrow each slot to the
      columns the rest of the plan references, remapping every
      final-layout field.

    Rewrites are semantics-preserving by construction; the differential
    test in [test/test_plan_diff.ml] checks optimized output (rows,
    lineage, source tids) against the un-optimized binder output. *)

let is_const = function Plan.Const _ -> true | _ -> false

(* Fold bottom-up. A node folds only when all direct children are already
   constants (sound because children fold first); evaluation happens via
   the compiled closure on empty environments, and any SQL error means
   the node keeps its symbolic form. *)
let rec fold (p : Plan.pexpr) : Plan.pexpr =
  match p with
  | Plan.Const _ | Plan.Field _ | Plan.Rep_field _ | Plan.Agg_ref _
  | Plan.Agg_outside | Plan.Exec _ ->
    (* [Exec] reads exec-time state (the clock), so it never folds —
       freezing it would pin the plan to one tick. *)
    p
  | Plan.Binop (op, a, b) ->
    let a = fold a and b = fold b in
    let p' = Plan.Binop (op, a, b) in
    if is_const a && is_const b then try_const p' else p'
  | Plan.Unop (op, a) ->
    let a = fold a in
    let p' = Plan.Unop (op, a) in
    if is_const a then try_const p' else p'
  | Plan.Fn (name, args) ->
    let args = List.map fold args in
    let p' = Plan.Fn (name, args) in
    if List.for_all is_const args then try_const p' else p'
  | Plan.Case (branches, default) ->
    let branches = List.map (fun (c, v) -> (fold c, fold v)) branches in
    let default = Option.map fold default in
    let p' = Plan.Case (branches, default) in
    if
      List.for_all (fun (c, v) -> is_const c && is_const v) branches
      && (match default with None -> true | Some d -> is_const d)
    then try_const p'
    else p'

and try_const (p : Plan.pexpr) : Plan.pexpr =
  try Plan.Const (Compile.compile_expr p [||] [||])
  with Errors.Sql_error _ -> p

(* Shift final-layout fields to a slot-local layout (for predicates that
   move inside a single slot's scan, or to the build side of a join). *)
let rec rebase (off : int) (p : Plan.pexpr) : Plan.pexpr =
  match p with
  | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> p
  | Plan.Field i -> Plan.Field (i - off)
  | Plan.Rep_field i -> Plan.Rep_field (i - off)
  | Plan.Binop (op, a, b) -> Plan.Binop (op, rebase off a, rebase off b)
  | Plan.Unop (op, a) -> Plan.Unop (op, rebase off a)
  | Plan.Fn (name, args) -> Plan.Fn (name, List.map (rebase off) args)
  | Plan.Case (branches, default) ->
    Plan.Case
      ( List.map (fun (c, v) -> (rebase off c, rebase off v)) branches,
        Option.map (rebase off) default )

(* Renumber final-layout fields through a pruning map. *)
let rec remap (tbl : int array) (p : Plan.pexpr) : Plan.pexpr =
  match p with
  | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> p
  | Plan.Field i -> Plan.Field tbl.(i)
  | Plan.Rep_field i -> Plan.Rep_field tbl.(i)
  | Plan.Binop (op, a, b) -> Plan.Binop (op, remap tbl a, remap tbl b)
  | Plan.Unop (op, a) -> Plan.Unop (op, remap tbl a)
  | Plan.Fn (name, args) -> Plan.Fn (name, List.map (remap tbl) args)
  | Plan.Case (branches, default) ->
    Plan.Case
      ( List.map (fun (c, v) -> (remap tbl c, remap tbl v)) branches,
        Option.map (remap tbl) default )

let mark_fields (used : bool array) (p : Plan.pexpr) : unit =
  let rec walk = function
    | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> ()
    | Plan.Field i | Plan.Rep_field i -> used.(i) <- true
    | Plan.Binop (_, a, b) ->
      walk a;
      walk b
    | Plan.Unop (_, a) -> walk a
    | Plan.Fn (_, args) -> List.iter walk args
    | Plan.Case (branches, default) ->
      List.iter
        (fun (c, v) ->
          walk c;
          walk v)
        branches;
      Option.iter walk default
  in
  walk p

let fold_finish (f : Plan.finish) : Plan.finish =
  {
    f with
    projs = List.map fold f.Plan.projs;
    group_by = List.map fold f.Plan.group_by;
    aggs =
      Array.map
        (fun (a : Plan.agg_spec) -> { a with Plan.arg = Option.map fold a.Plan.arg })
        f.Plan.aggs;
    having = Option.map fold f.Plan.having;
    order_by =
      List.map
        (fun (k, dir) ->
          ( (match k with
            | Plan.By_expr p -> Plan.By_expr (fold p)
            | (Plan.By_output _ | Plan.By_null) as k -> k),
            dir ))
        f.Plan.order_by;
    distinct =
      (match f.Plan.distinct with
      | Plan.D_on keys -> Plan.D_on (List.map fold keys)
      | d -> d);
  }

let map_finish fn (f : Plan.finish) : Plan.finish =
  {
    f with
    projs = List.map fn f.Plan.projs;
    group_by = List.map fn f.Plan.group_by;
    aggs =
      Array.map
        (fun (a : Plan.agg_spec) -> { a with Plan.arg = Option.map fn a.Plan.arg })
        f.Plan.aggs;
    having = Option.map fn f.Plan.having;
    order_by =
      List.map
        (fun (k, dir) ->
          ( (match k with
            | Plan.By_expr p -> Plan.By_expr (fn p)
            | (Plan.By_output _ | Plan.By_null) as k -> k),
            dir ))
        f.Plan.order_by;
    distinct =
      (match f.Plan.distinct with
      | Plan.D_on keys -> Plan.D_on (List.map fn keys)
      | d -> d);
  }

let iter_finish fn (f : Plan.finish) : unit =
  List.iter fn f.Plan.projs;
  List.iter fn f.Plan.group_by;
  Array.iter
    (fun (a : Plan.agg_spec) -> Option.iter fn a.Plan.arg)
    f.Plan.aggs;
  Option.iter fn f.Plan.having;
  List.iter
    (fun (k, _) -> match k with Plan.By_expr p -> fn p | _ -> ())
    f.Plan.order_by;
  match f.Plan.distinct with
  | Plan.D_on keys -> List.iter fn keys
  | _ -> ()

(* Dynamic probe keys: slot-free expressions carrying an [Exec] leaf,
   re-evaluated at probe time. Only the grammar below qualifies —
   [Exec] never raises by contract, numeric/NULL literals and [+]/[-]
   over them never raise either (NULL propagates, ints promote), so
   turning a filter into a probe cannot surface an error on an empty
   table that the never-evaluated filter would not have raised. *)
let rec never_raises (p : Plan.pexpr) : bool =
  match p with
  | Plan.Exec _ -> true
  | Plan.Const (Value.Int _ | Value.Float _ | Value.Null) -> true
  | Plan.Binop ((Ast.Add | Ast.Sub), a, b) -> never_raises a && never_raises b
  | _ -> false

let rec has_exec (p : Plan.pexpr) : bool =
  match p with
  | Plan.Exec _ -> true
  | Plan.Const _ | Plan.Field _ | Plan.Rep_field _ | Plan.Agg_ref _
  | Plan.Agg_outside ->
    false
  | Plan.Binop (_, a, b) -> has_exec a || has_exec b
  | Plan.Unop (_, a) -> has_exec a
  | Plan.Fn (_, args) -> List.exists has_exec args
  | Plan.Case (branches, default) ->
    List.exists (fun (c, v) -> has_exec c || has_exec v) branches
    || (match default with None -> false | Some d -> has_exec d)

let dyn_key (p : Plan.pexpr) : bool = has_exec p && never_raises p

(* A pushed-down conjunct read as [field op key] with the field on the
   left ([Field i] is table column [i] once slot-local): [key] is a
   non-NULL constant or a {!dyn_key}, and [dynamic] says which. A NULL
   constant never qualifies: the comparison is false for every row, and
   leaving the conjunct as a filter preserves that. *)
type candidate = { col : int; op : Ast.binop; key : Plan.pexpr; dynamic : bool }

let candidate (p : Plan.pexpr) : candidate option =
  let read col op key =
    match key with
    | Plan.Const v when not (Value.is_null v) ->
      Some { col; op; key; dynamic = false }
    | _ when dyn_key key -> Some { col; op; key; dynamic = true }
    | _ -> None
  in
  match p with
  | Plan.Binop (((Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) -> (
    match (a, b) with
    | Plan.Field i, key -> read i op key
    | key, Plan.Field i -> read i (Ast.flip_cmp op) key
    | _ -> None)
  | _ -> None

(* Access-path selection (the tries are listed in optimizer.mli). A
   dynamic equality goes first: the clock-elimination rewrite plants it
   to pin a column to the clock's tick, which on a log relation is one
   submission's increment, narrower than a constant equality such as a
   uid that holds across the whole history. Constant bounds fold to the
   tightest per side; dynamic bounds cannot be compared at plan time, so
   only the first per side probes. A dynamic key evaluating to NULL at
   probe time yields no rows, matching the filter it replaced. *)
let select_access (table : Table.t) (preds : Plan.pexpr list) :
    (Plan.access * Plan.pexpr list) option =
  let index_for col ~range =
    let ixs = Table.index_on table ~column:col in
    if range then List.find_opt (fun ix -> Index.kind ix = Index.Sorted) ixs
    else
      match List.find_opt (fun ix -> Index.kind ix = Index.Hash) ixs with
      | Some ix -> Some ix
      | None -> List.nth_opt ixs 0
  in
  let cands =
    List.filter_map Fun.id
      (List.mapi (fun i p -> Option.map (fun c -> (i, c)) (candidate p)) preds)
  in
  let without used = List.filteri (fun j _ -> not (List.mem j used)) preds in
  let equality ~dynamic =
    List.find_map
      (fun (i, c) ->
        if c.op <> Ast.Eq || c.dynamic <> dynamic then None
        else
          Option.map
            (fun ix ->
              (Plan.Index_eq { index = Index.name ix; key = c.key }, without [ i ]))
            (index_for c.col ~range:false))
      cands
  in
  let inclusive c = c.op = Ast.Ge || c.op = Ast.Le in
  (* On equal values an exclusive bound is tighter than an inclusive one. *)
  let tighter ~lower ((_, c0) as cur) ((_, c) as b) =
    match (c0.key, c.key) with
    | Plan.Const v0, Plan.Const v ->
      let d = Value.compare v v0 in
      let d = if lower then d else -d in
      if d > 0 || (d = 0 && inclusive c0 && not (inclusive c)) then b else cur
    | _ -> cur
  in
  let range ~dynamic =
    let bounds =
      List.filter (fun (_, c) -> c.op <> Ast.Eq && c.dynamic = dynamic) cands
    in
    let target (_, c) =
      Option.map (fun ix -> (c.col, ix)) (index_for c.col ~range:true)
    in
    match List.find_map target bounds with
    | None -> None
    | Some (col, ix) ->
      let bounds = List.filter (fun (_, c) -> c.col = col) bounds in
      let pick ~lower =
        match
          List.filter (fun (_, c) -> (c.op = Ast.Gt || c.op = Ast.Ge) = lower) bounds
        with
        | [] -> None
        | b :: rest ->
          Some (if dynamic then b else List.fold_left (tighter ~lower) b rest)
      in
      let lo = pick ~lower:true and hi = pick ~lower:false in
      let used =
        if dynamic then List.filter_map (Option.map fst) [ lo; hi ]
        else List.map fst bounds
      in
      let bound = Option.map (fun (_, c) -> (c.key, inclusive c)) in
      Some
        ( Plan.Index_range { index = Index.name ix; lo = bound lo; hi = bound hi },
          without used )
  in
  List.find_map
    (fun attempt -> attempt ())
    [
      (fun () -> equality ~dynamic:true);
      (fun () -> equality ~dynamic:false);
      (fun () -> range ~dynamic:false);
      (fun () -> range ~dynamic:true);
    ]

let rec optimize (cat : Catalog.t) (q : Plan.query) : Plan.query =
  match q with
  | Plan.Union { all; left; right } ->
    Plan.Union { all; left = optimize cat left; right = optimize cat right }
  | Plan.Select sp -> Plan.Select (optimize_select cat sp)

and optimize_select (cat : Catalog.t) (sp : Plan.select_plan) : Plan.select_plan =
  let slots =
    Array.map
      (fun (sl : Plan.slot) ->
        match sl.Plan.source with
        | Plan.Scan _ -> sl
        | Plan.Sub q -> { sl with Plan.source = Plan.Sub (optimize cat q) })
      sp.Plan.slots
  in
  let nslots = Array.length slots in
  let offsets = Plan.full_offsets slots in
  let widths = Array.map (fun (sl : Plan.slot) -> Array.length sl.Plan.cols) slots in
  let total = Array.fold_left ( + ) 0 widths in
  (* Fold every expression first: folding can simplify conjuncts before
     placement decisions. *)
  let const_preds = List.map fold sp.Plan.const_preds in
  let joins =
    Array.map
      (fun (j : Plan.jstep) ->
        { j with Plan.residual = List.map fold j.Plan.residual })
      sp.Plan.joins
  in
  let finish = fold_finish sp.Plan.finish in
  (* Pushdown + equi-key extraction per join step. Single-slot conjuncts
     always reference the step's own slot (naive placement put them at
     the step where their last slot appears), so they push into its scan.
     Of the rest, [prefix = this-slot] equalities become hash keys. *)
  let scan_preds = Array.make (max nslots 1) [] in
  let joins =
    Array.mapi
      (fun si (j : Plan.jstep) ->
        let keys, residual =
          List.fold_left
            (fun (keys, residual) p ->
              match Plan.slots_of_pexpr offsets widths p with
              | [ s ] when s = si ->
                scan_preds.(si) <-
                  scan_preds.(si) @ [ rebase offsets.(si) p ];
                (keys, residual)
              | _ -> (
                match p with
                | Plan.Binop (Ast.Eq, a, b) -> (
                  let sa = Plan.slots_of_pexpr offsets widths a in
                  let sb = Plan.slots_of_pexpr offsets widths b in
                  let in_prefix ss =
                    ss <> [] && List.for_all (fun s -> s < si) ss
                  in
                  let on_slot ss = ss = [ si ] in
                  if si > 0 && in_prefix sa && on_slot sb then
                    ((a, rebase offsets.(si) b) :: keys, residual)
                  else if si > 0 && in_prefix sb && on_slot sa then
                    ((b, rebase offsets.(si) a) :: keys, residual)
                  else (keys, p :: residual))
                | _ -> (keys, p :: residual)))
            ([], []) j.Plan.residual
        in
        { Plan.keys = List.rev keys; residual = List.rev residual })
      joins
  in
  let scan_preds =
    if nslots = 0 then sp.Plan.scan_preds else Array.sub scan_preds 0 nslots
  in
  (* Access-path selection: pushed-down conjuncts hitting an indexed
     column turn the heap scan into an index probe; the consumed conjuncts
     disappear from [scan_preds], the rest stay as filters over the
     probe's result. *)
  let slots =
    Array.mapi
      (fun si (sl : Plan.slot) ->
        match sl.Plan.source with
        | Plan.Scan (tname, Plan.Heap) when scan_preds.(si) <> [] -> (
          match Catalog.find_opt cat tname with
          | None -> sl
          | Some table -> (
            match select_access table scan_preds.(si) with
            | None -> sl
            | Some (access, remaining) ->
              scan_preds.(si) <- remaining;
              { sl with Plan.source = Plan.Scan (tname, access) }))
        | _ -> sl)
      slots
  in
  (* Projection pruning: only worthwhile across joins — single-slot scans
     share their cell arrays with the table, and projecting would copy
     every row for no width saving downstream. *)
  if nslots < 2 then
    { Plan.slots; const_preds; scan_preds; joins; finish }
  else begin
    let used = Array.make total false in
    Array.iter
      (fun (j : Plan.jstep) ->
        List.iter (fun (probe, _) -> mark_fields used probe) j.Plan.keys;
        List.iter (mark_fields used) j.Plan.residual)
      joins;
    iter_finish (mark_fields used) finish;
    let keep =
      Array.mapi
        (fun si w ->
          let kept = ref [] in
          for i = w - 1 downto 0 do
            if used.(offsets.(si) + i) then kept := i :: !kept
          done;
          Array.of_list !kept)
        widths
    in
    let slots =
      Array.map2 (fun (sl : Plan.slot) k -> { sl with Plan.keep = k }) slots keep
    in
    (* Old absolute index -> index in the pruned layout. *)
    let tbl = Array.make total (-1) in
    let pruned = Plan.pruned_offsets slots in
    Array.iteri
      (fun si k ->
        Array.iteri (fun j local -> tbl.(offsets.(si) + local) <- pruned.(si) + j) k)
      keep;
    let joins =
      Array.map
        (fun (j : Plan.jstep) ->
          {
            Plan.keys =
              List.map (fun (probe, build) -> (remap tbl probe, build)) j.Plan.keys;
            residual = List.map (remap tbl) j.Plan.residual;
          })
        joins
    in
    let finish = map_finish (remap tbl) finish in
    { Plan.slots; const_preds; scan_preds; joins; finish }
  end

(* Clock elimination ----------------------------------------------------------- *)

(* Raised when a select keeps its clock join (see {!eliminate_clock}). *)
exception Keep_clock

(* Substitute the clock slot's cells with execution-time reads and close
   the gap it leaves in the row layout. [co]/[cw] are the clock slot's
   offset and width; [read c] yields the clock's cell [c] at execution
   time. A [Rep_field] over the clock keeps the join: for the empty
   group it yields Null where the substitute would yield the live
   cell. *)
let rec subst_clock ~co ~cw ~read (p : Plan.pexpr) : Plan.pexpr =
  let s = subst_clock ~co ~cw ~read in
  match p with
  | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> p
  | Plan.Field i ->
    if i >= co && i < co + cw then Plan.Exec (read (i - co))
    else if i >= co + cw then Plan.Field (i - cw)
    else p
  | Plan.Rep_field i ->
    if i >= co && i < co + cw then raise Keep_clock
    else if i >= co + cw then Plan.Rep_field (i - cw)
    else p
  | Plan.Binop (op, a, b) -> Plan.Binop (op, s a, s b)
  | Plan.Unop (op, a) -> Plan.Unop (op, s a)
  | Plan.Fn (name, args) -> Plan.Fn (name, List.map s args)
  | Plan.Case (branches, default) ->
    Plan.Case
      (List.map (fun (c, v) -> (s c, s v)) branches, Option.map s default)

(* Dropping the clock slot is sound only while the clock holds exactly
   one row — the cross join is then a no-op. The engine's clock always
   does: only the engine writes it ({!Catalog.writable}).
   Dynamic pins are propagated across [Field = Field] equivalence
   classes so a window predicate written against one side of a join
   reaches every indexed column. A one-row cross join neither adds,
   drops nor reorders rows, so the eliminated plan's output is
   bit-identical to the as-written plan's — float fold order and
   MIN/MAX tie representatives included (the plan-differential suite
   checks rows in order, under both executors). LIMIT and DISTINCT ON
   keep the join: the rewritten plan's key choices may differ from the
   original's, and those two finishes are the only order-sensitive
   ones. *)
let eliminate_select (cat : Catalog.t) ~(clock : string)
    (sp : Plan.select_plan) : Plan.select_plan =
  let f = sp.Plan.finish in
  if f.Plan.limit <> None then raise Keep_clock;
  (match f.Plan.distinct with Plan.D_on _ -> raise Keep_clock | _ -> ());
  let slots = sp.Plan.slots in
  let n = Array.length slots in
  (* A clock-only select has nothing left to scan once rewritten. *)
  if n < 2 then raise Keep_clock;
  (* The rewrite runs on the binder's naive output: no extracted keys,
     no pushed-down scan predicates. *)
  Array.iter
    (fun (j : Plan.jstep) -> if j.Plan.keys <> [] then raise Keep_clock)
    sp.Plan.joins;
  Array.iter (fun ps -> if ps <> [] then raise Keep_clock) sp.Plan.scan_preds;
  (* Exactly one slot, a base-table scan, reads the clock; subquery
     slots keep it too. *)
  let tables =
    Array.map
      (fun (sl : Plan.slot) ->
        match sl.Plan.source with
        | Plan.Scan (name, _) -> (
          match Catalog.find_opt cat name with
          | Some tb -> tb
          | None -> raise Keep_clock)
        | Plan.Sub _ -> raise Keep_clock)
      slots
  in
  let ci, clock_tb =
    match
      List.filter
        (fun (_, tb) -> String.lowercase_ascii (Table.name tb) = clock)
        (List.mapi (fun i tb -> (i, tb)) (Array.to_list tables))
    with
    | [ c ] -> c
    | _ -> raise Keep_clock
  in
  let offsets = Plan.full_offsets slots in
  let widths =
    Array.map (fun (sl : Plan.slot) -> Array.length sl.Plan.cols) slots
  in
  let co = offsets.(ci) and cw = widths.(ci) in
  let read c () =
    match Table.to_seq clock_tb () with
    | Seq.Cons (row, _) -> Row.cell row c
    | Seq.Nil -> Value.Null
  in
  let subst = subst_clock ~co ~cw ~read in
  let conjuncts =
    sp.Plan.const_preds
    @ List.concat_map
        (fun (j : Plan.jstep) -> j.Plan.residual)
        (Array.to_list sp.Plan.joins)
  in
  let cs = List.map subst conjuncts in
  let finish' = map_finish subst f in
  let slots' =
    Array.of_list (List.filteri (fun j _ -> j <> ci) (Array.to_list slots))
  in
  let n' = Array.length slots' in
  let offsets' = Plan.full_offsets slots' in
  let widths' =
    Array.map (fun (sl : Plan.slot) -> Array.length sl.Plan.cols) slots'
  in
  let total' = Array.fold_left ( + ) 0 widths' in
  (* [Field = Field] equivalence classes over the shrunk layout. *)
  let parent = Array.init total' Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  List.iter
    (function
      | Plan.Binop (Ast.Eq, Plan.Field a, Plan.Field b) ->
        let ra = find a and rb = find b in
        if ra <> rb then parent.(ra) <- rb
      | _ -> ())
    cs;
  (* Dynamic pins per class. Dedup keys are (field, op) pairs — never
     expressions, keeping structural equality away from closures. The
     derived conjuncts are implied filters: if a row joins, its class
     partner satisfied the pin, so filtering early drops only rows that
     could never join (NULL fields included — the equality would have
     rejected them). *)
  let pins : (int, Ast.binop * Plan.pexpr) Hashtbl.t = Hashtbl.create 8 in
  let direct : (int * Ast.binop, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match candidate c with
      | Some { col; op; key; dynamic = true } ->
        Hashtbl.add pins (find col) (op, key);
        Hashtbl.replace direct (col, op) ()
      | _ -> ())
    cs;
  let derived = ref [] in
  for fld = 0 to total' - 1 do
    List.iter
      (fun (op, d) ->
        if not (Hashtbl.mem direct (fld, op)) then begin
          Hashtbl.replace direct (fld, op) ();
          derived := Plan.Binop (op, Plan.Field fld, d) :: !derived
        end)
      (Hashtbl.find_all pins (find fld))
  done;
  let const_preds, joins = Plan.place offsets' widths' (cs @ List.rev !derived) in
  {
    Plan.slots = slots';
    const_preds;
    scan_preds = Array.make n' [];
    joins;
    finish = finish';
  }

let eliminate_clock (cat : Catalog.t) ~(clock_rel : string) (q : Plan.query) :
    Plan.query option =
  let clock = String.lowercase_ascii clock_rel in
  let rec walk = function
    | Plan.Select sp -> (
      match eliminate_select cat ~clock sp with
      | sp' -> Some (Plan.Select sp')
      | exception Keep_clock -> None)
    | Plan.Union ({ left; right; _ } as u) -> (
      match (walk left, walk right) with
      | None, None -> None
      | l, r ->
        Some
          (Plan.Union
             {
               u with
               left = Option.value l ~default:left;
               right = Option.value r ~default:right;
             }))
  in
  walk q

(* Delta derivation --------------------------------------------------------- *)

(* Every select of a policy must be monotone select-project-join, or the
   whole policy is ineligible. Delta evaluation runs against a watermark
   and the engine's proof that the policy was empty at the last accepted
   submission, so a select joining the clock — whose one row
   is rewritten in place each submission, outside the append-only
   discipline — is ineligible: its full evaluation already runs the
   clock-eliminated plan ({!eliminate_clock}). So is an aggregated
   select: a HAVING over the whole log is not monotone, and it evaluates
   in full. For disjoint states S (proved empty) and Δ (appended rows),
   monotonicity gives

     Q(S ∪ Δ) = ⋃ over log slots i of Q with slot i restricted to Δ

   — any result row must bind at least one slot to a Δ tuple, and the
   per-slot variants cover every such binding, so the union equals the
   full result as a set. (Only multiplicities can differ, which is why
   DISTINCT ON — whose representative choice is order-sensitive — is
   excluded; the engine reads results as sets.) A UNION policy
   contributes every arm's variants. Each variant is optimized
   independently, so non-delta slots still get index probes. *)

type delta_plans = { deps : string list; variants : Plan.query list }

exception Ineligible

let classify_select (cat : Catalog.t) ~(is_log : string -> bool)
    ~(clock : string) (sp : Plan.select_plan) : string list * Plan.query list =
  let f = sp.Plan.finish in
  if
    f.Plan.aggregated
    || f.Plan.order_by <> []
    || f.Plan.limit <> None
    || f.Plan.projs = []
  then raise Ineligible;
  (match f.Plan.distinct with Plan.D_on _ -> raise Ineligible | _ -> ());
  (* Canonical table name per slot. Explicit resolution: a slot naming a
     table that vanished from the catalog between bind and derivation
     surfaces as ineligible, not as an [Option.get] crash; subquery
     slots are ineligible everywhere. *)
  let names =
    Array.map
      (fun (sl : Plan.slot) ->
        match sl.Plan.source with
        | Plan.Scan (name, _) -> (
          match Catalog.find_opt cat name with
          | Some tb -> Table.name tb
          | None -> raise Ineligible)
        | Plan.Sub _ -> raise Ineligible)
      sp.Plan.slots
  in
  if Array.exists (fun n -> String.lowercase_ascii n = clock) names then
    raise Ineligible;
  let variants = ref [] in
  Array.iteri
    (fun i n ->
      if is_log n then begin
        let slots =
          Array.mapi
            (fun j (sl : Plan.slot) ->
              match sl.Plan.source with
              | Plan.Scan (tname, _) when j = i ->
                { sl with Plan.source = Plan.Scan (tname, Plan.Delta) }
              | _ -> sl)
            sp.Plan.slots
        in
        variants :=
          optimize cat (Plan.Select { sp with Plan.slots = slots }) :: !variants
      end)
    names;
  (Array.to_list names, List.rev !variants)

let derive_delta (cat : Catalog.t) ~(is_log : string -> bool)
    ~(clock_rel : string) (q : Ast.query) : delta_plans option =
  match Plan.of_query cat q with
  | exception Errors.Sql_error _ -> None
  | plan -> (
    let clock = String.lowercase_ascii clock_rel in
    let rec walk = function
      | Plan.Select sp -> classify_select cat ~is_log ~clock sp
      | Plan.Union { left; right; _ } ->
        let dl, vl = walk left in
        let dr, vr = walk right in
        (dl @ dr, vl @ vr)
    in
    match walk plan with
    | exception Ineligible -> None
    | deps, variants -> Some { deps = List.sort_uniq compare deps; variants })

(* Batch-eligibility analysis ---------------------------------------------- *)

(* Expressions the batch operators evaluate positionally (against slot or
   prefix columns). Group-context nodes ([Rep_field], [Agg_ref]) never
   appear in the clauses the batch pipeline evaluates — WHERE rejects
   aggregates at bind — but a plan that somehow carries one routes to the
   row path rather than miscompiling. [Agg_outside] is batchable: it
   raises lazily on evaluation, identically in both pipelines. *)
let rec batchable_pexpr (p : Plan.pexpr) : bool =
  match p with
  | Plan.Const _ | Plan.Field _ | Plan.Agg_outside -> true
  (* [Exec] keys compile through the row compiler's scalar closure in
     both pipelines, so they batch fine. *)
  | Plan.Exec _ -> true
  | Plan.Rep_field _ | Plan.Agg_ref _ -> false
  | Plan.Binop (_, a, b) -> batchable_pexpr a && batchable_pexpr b
  | Plan.Unop (_, a) -> batchable_pexpr a
  | Plan.Fn (_, args) -> List.for_all batchable_pexpr args
  | Plan.Case (branches, default) ->
    List.for_all
      (fun (c, v) -> batchable_pexpr c && batchable_pexpr v)
      branches
    && (match default with None -> true | Some d -> batchable_pexpr d)

let batch_route ~(lineage : bool) ~(track_src : bool) (q : Plan.query) :
    Plan.route =
  let select_eligible (sp : Plan.select_plan) : bool =
    (* Lineage annotations thread through every operator and merge at
       DISTINCT/aggregation; such runs stay on the row path wholesale.
       Source-tid tracking is carried by per-slot tid columns in the
       batch pipeline, but only for flat selects: an aggregated select
       merges src lists per group, which the row path owns. *)
    (not lineage)
    && not (track_src && sp.Plan.finish.Plan.aggregated)
    && List.for_all batchable_pexpr sp.Plan.const_preds
    && Array.for_all (List.for_all batchable_pexpr) sp.Plan.scan_preds
    && Array.for_all
         (fun (j : Plan.jstep) ->
           List.for_all
             (fun (p, b) -> batchable_pexpr p && batchable_pexpr b)
             j.Plan.keys
           && List.for_all batchable_pexpr j.Plan.residual)
         sp.Plan.joins
    && (not sp.Plan.finish.Plan.aggregated
       || List.for_all batchable_pexpr sp.Plan.finish.Plan.group_by
          && Array.for_all
               (fun (a : Plan.agg_spec) ->
                 match a.Plan.arg with
                 | None -> true
                 | Some p -> batchable_pexpr p)
               sp.Plan.finish.Plan.aggs)
  in
  let rec route = function
    | Plan.Select sp ->
      if select_eligible sp then Plan.Route_batch else Plan.Route_row
    | Plan.Union { left; right; _ } ->
      Plan.Route_union { left = route left; right = route right }
  in
  route q

(* Kernel-shape analysis ---------------------------------------------------- *)

(* Shape classification for the typed batch kernels ({!Compile_batch}).
   Routing above is static per query; which kernel actually runs is
   decided per execution from the column layouts the batch binds against
   (a typed column can demote to Mixed between executions of a prepared
   plan, so the batch compiler re-inspects views every time and the
   Mixed/opaque shapes fall back to the boxed Value kernels). These
   helpers pull the field/constant skeleton out of a predicate or join
   key once, at compile time, so that per-execution dispatch is a view
   inspection rather than an expression walk. *)

type cmp_shape =
  | Cmp_field_const of Ast.binop * int * Value.t
      (** [field OP literal], constant side normalized to the right *)
  | Cmp_field_field of Ast.binop * int * int  (** [field OP field] *)
  | Cmp_opaque  (** anything else: evaluate through the scalar closure *)

let cmp_shape (p : Plan.pexpr) : cmp_shape =
  match p with
  | Plan.Binop
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        Plan.Field i,
        Plan.Const v ) ->
    Cmp_field_const (op, i, v)
  | Plan.Binop
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        Plan.Const v,
        Plan.Field i ) ->
    Cmp_field_const (Ast.flip_cmp op, i, v)
  | Plan.Binop
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        Plan.Field i,
        Plan.Field j ) ->
    Cmp_field_field (op, i, j)
  | _ -> Cmp_opaque

(* A join/group key that is a bare column reference, eligible for the
   unboxed int/dictionary-code hash kernels. *)
let key_field (p : Plan.pexpr) : int option =
  match p with Plan.Field i -> Some i | _ -> None
