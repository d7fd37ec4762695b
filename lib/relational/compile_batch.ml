(** Batch-at-a-time (vectorized) compiler over typed columns.

    A sibling of {!Compile} that lowers batch-routed subtrees
    ({!Optimizer.batch_route}) to columnar operators running directly on
    the typed column store ({!Column}): scans borrow a table's mirror
    views without copying or boxing, filter passes compare unboxed ints
    and floats and dictionary codes against a selection vector, hash
    joins and grouping key on raw ints / codes where the layouts allow
    (falling back to Value-keyed tables for Mixed columns and computed
    keys), and aggregation accumulates per group over row indices.
    Everything downstream of the pipeline — grouping representative
    semantics, projection, DISTINCT, ORDER BY, LIMIT, UNION merge — is
    the row compiler's own closures ({!Compile.compile_produce},
    {!Compile.compile_finish_tail}, {!Compile.union_rows}), so output
    shaping cannot diverge.

    Kernel choice is per {e execution}, not per compilation: a prepared
    plan outlives mutations, and a typed column can demote to Mixed
    between runs, so every binding re-inspects the views it was handed
    ({!Optimizer.cmp_shape} / {!Optimizer.key_field} precompute the
    expression skeletons, the binding picks the kernel).

    Observable behaviour is bit-identical to the row path by
    construction: scan order is heap/tid order; string-constant
    predicates translate the literal through the column dictionary once
    per batch (an absent code is an empty selection without touching the
    rows); the hash joins reproduce the reverse-insertion match order of
    [Hashtbl.add]/[find_all] in probe-major output order, and like the
    row path never match a NULL key (a join means SQL [=]);
    cross-dictionary joins remap probe codes into the build dictionary's
    code space (memoized per code); multi-column keys use {!Value.Key}
    exactly as the row path does; and scalar evaluation reuses
    {!Compile.compile_expr} closures over a per-execution scratch row,
    so error messages and laziness are the row path's own. Subtrees the
    router keeps on the row path (lineage runs, aggregated
    source-tracking, group-context expressions) fall back to
    {!Compile.compile} wholesale. *)

(* Per-batch statistics, exposed through engine stats / :stats / server
   STATS. Atomic: compiled plans execute concurrently on the engine's
   domain pool. *)
let batches_built = Atomic.make 0
let batch_rows = Atomic.make 0
let row_fallbacks = Atomic.make 0
let join_build_rows = Atomic.make 0

(* Rows-per-batch histogram: < 16, < 256, < 4096, < 65536, >= 65536. *)
let hist_bounds = [| 16; 256; 4096; 65536 |]
let hist = Array.init (Array.length hist_bounds + 1) (fun _ -> Atomic.make 0)

let note_batch n =
  Atomic.incr batches_built;
  ignore (Atomic.fetch_and_add batch_rows n);
  let rec bucket i =
    if i >= Array.length hist_bounds || n < hist_bounds.(i) then i
    else bucket (i + 1)
  in
  Atomic.incr hist.(bucket 0)

let hist_snapshot () = Array.map Atomic.get hist

(* Batches ---------------------------------------------------------------- *)

(* Which positions of the backing columns are live, in output order.
   [All n] avoids materializing the identity selection for fresh scans
   (the common case on large log relations). *)
type selv = All of int | Chosen of int array

(* A source-tid column for [track_src] runs: tids parallel to the
   backing columns, tagged with the FROM-slot index they annotate. *)
type src_col = { slot : int; tids : int array }

(* A column batch. [cols] are typed views over backing arrays — possibly
   borrowed zero-copy from a table's columnar mirror, so only positions
   reached through [sel] are meaningful. [srcs] is in ascending slot
   order. *)
type batch = { cols : Column.view array; sel : selv; srcs : src_col list }

let sel_length = function All n -> n | Chosen a -> Array.length a

let sel_iter f = function
  | All n ->
    for i = 0 to n - 1 do
      f i
    done
  | Chosen a -> Array.iter f a

(* Shared boxed booleans so the boxing accessors never allocate for
   BOOL cells. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* Positional boxed read, specialized once per view (the typed kernels
   below bypass this; it feeds the scalar-closure fallback and row
   materialization). *)
let getter (v : Column.view) : int -> Value.t =
  match v with
  | Column.V_int (a, nulls) ->
    if Bitvec.count nulls = 0 then fun ri -> Value.Int a.(ri)
    else fun ri -> if Bitvec.get nulls ri then Value.Null else Value.Int a.(ri)
  | Column.V_float (a, nulls) ->
    if Bitvec.count nulls = 0 then fun ri -> Value.Float a.(ri)
    else fun ri -> if Bitvec.get nulls ri then Value.Null else Value.Float a.(ri)
  | Column.V_bool a -> (
    fun ri -> match a.(ri) with 0 -> vfalse | 1 -> vtrue | _ -> Value.Null)
  | Column.V_str (codes, d) ->
    fun ri ->
      let c = codes.(ri) in
      if c < 0 then Value.Null else Value.Str (Column.dict_string d c)
  | Column.V_mixed a -> fun ri -> a.(ri)

(* Expressions ------------------------------------------------------------ *)

(* A positional evaluator: bind to a batch's columns once per execution,
   then evaluate at row positions. *)
type bexpr = Column.view array -> int -> Value.t

let rec add_fields acc (p : Plan.pexpr) =
  match p with
  | Plan.Field i | Plan.Rep_field i -> if List.mem i acc then acc else i :: acc
  | Plan.Const _ | Plan.Agg_ref _ | Plan.Agg_outside | Plan.Exec _ -> acc
  | Plan.Binop (_, a, b) -> add_fields (add_fields acc a) b
  | Plan.Unop (_, a) -> add_fields acc a
  | Plan.Fn (_, args) -> List.fold_left add_fields acc args
  | Plan.Case (branches, default) ->
    let acc =
      List.fold_left
        (fun acc (c, v) -> add_fields (add_fields acc c) v)
        acc branches
    in
    (match default with None -> acc | Some d -> add_fields acc d)

(* Bare fields and constants evaluate straight off the views. Anything
   richer reuses the row compiler's scalar closure over a scratch row
   refilled with just the fields the expression reads — semantics
   (dispatch, laziness, error messages) are therefore shared code, at
   the cost of a few array stores per row. The scratch row is allocated
   at column-binding time, i.e. per execution, because compiled plans
   run concurrently across domains. *)
let rec compile_bexpr (p : Plan.pexpr) : bexpr =
  match p with
  | Plan.Field i -> fun cols -> getter cols.(i)
  | Plan.Const v -> fun _ _ -> v
  | Plan.Binop
      ( ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op),
        ((Plan.Field _ | Plan.Const _) as a),
        ((Plan.Field _ | Plan.Const _) as b) ) ->
    (* Comparisons that must yield a boxed result (projections, CASE
       conditions) dispatch through the row path's own [Eval.compare_op]
       — same semantics, no scratch-row copy. Filter positions use the
       unboxed predicate compiler below instead. *)
    let ba = compile_bexpr a and bb = compile_bexpr b in
    fun cols ->
      let ea = ba cols and eb = bb cols in
      fun ri -> Eval.compare_op op (ea ri) (eb ri)
  | _ ->
    let ce = Compile.compile_expr p in
    let used = Array.of_list (add_fields [] p) in
    fun cols ->
      let scratch = Array.make (Array.length cols) Value.Null in
      let srcs = Array.map (fun i -> getter cols.(i)) used in
      fun ri ->
        for k = 0 to Array.length used - 1 do
          scratch.(used.(k)) <- (Array.unsafe_get srcs k) ri
        done;
        ce scratch [||]

(* Predicates ------------------------------------------------------------- *)

(* A predicate bound to a batch: either decided for every row at binding
   time (a string constant absent from the dictionary, a cross-type
   comparison) or an unboxed per-row test. *)
type pred = P_const of bool | P_fun of (int -> bool)

(* A predicate compiler: bind to a batch's views, get a [pred]. *)
type bpred = Column.view array -> pred

(* Short-circuit composition mirroring the row path's AND/OR laziness:
   the left operand is always evaluated (it may raise); the right only
   when the left doesn't decide. *)
let pred_and pa pb =
  match pa, pb with
  | P_const false, _ -> P_const false
  | P_const true, p -> p
  | P_fun f, P_const b -> P_fun (fun ri -> f ri && b)
  | P_fun f, P_fun g -> P_fun (fun ri -> f ri && g ri)

let pred_or pa pb =
  match pa, pb with
  | P_const true, _ -> P_const true
  | P_const false, p -> p
  | P_fun f, P_const b -> P_fun (fun ri -> f ri || b)
  | P_fun f, P_fun g -> P_fun (fun ri -> f ri || g ri)

let pred_not = function
  | P_const b -> P_const (not b)
  | P_fun f -> P_fun (fun ri -> not (f ri))

let op_test (op : Ast.binop) : int -> bool =
  match op with
  | Ast.Eq -> fun c -> c = 0
  | Ast.Neq -> fun c -> c <> 0
  | Ast.Lt -> fun c -> c < 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Gt -> fun c -> c > 0
  | Ast.Ge -> fun c -> c >= 0
  | _ -> assert false

(* Total-order float compare matching [Float.compare] (NaN below every
   number and equal to itself; [-0. = 0.]), on unboxed operands. *)
let fcmp (x : float) (y : float) : int =
  if x < y then -1
  else if x > y then 1
  else if x = y then 0
  else if Float.is_nan x then if Float.is_nan y then 0 else -1
  else 1

let wrap_null (nulls : Bitvec.t) (f : int -> bool) : pred =
  if Bitvec.count nulls = 0 then P_fun f
  else P_fun (fun ri -> (not (Bitvec.get nulls ri)) && f ri)

(* field OP int-constant over an unboxed int column. *)
let int_cmp_const (op : Ast.binop) (a : int array) (k : int) : int -> bool =
  match op with
  | Ast.Eq -> fun ri -> a.(ri) = k
  | Ast.Neq -> fun ri -> a.(ri) <> k
  | Ast.Lt -> fun ri -> a.(ri) < k
  | Ast.Le -> fun ri -> a.(ri) <= k
  | Ast.Gt -> fun ri -> a.(ri) > k
  | Ast.Ge -> fun ri -> a.(ri) >= k
  | _ -> assert false

(* BOOL columns store 0 / 1 / 2 (NULL); [Bool.compare] is int compare on
   0/1, and 2 must fail every comparison. Guards are only needed where 2
   wouldn't fail the int test by itself. *)
let bool_cmp_const (op : Ast.binop) (a : int array) (b : bool) : int -> bool =
  let k = if b then 1 else 0 in
  match op with
  | Ast.Eq -> fun ri -> a.(ri) = k
  | Ast.Neq ->
    fun ri ->
      let x = a.(ri) in
      x <> 2 && x <> k
  | Ast.Lt -> fun ri -> a.(ri) < k
  | Ast.Le -> fun ri -> a.(ri) <= k
  | Ast.Gt ->
    fun ri ->
      let x = a.(ri) in
      x <> 2 && x > k
  | Ast.Ge ->
    fun ri ->
      let x = a.(ri) in
      x <> 2 && x >= k
  | _ -> assert false

(* field OP string-constant over dictionary codes: equality translates
   the literal into the dictionary once per binding — absent means no
   row can match, an empty selection without touching the rows. The
   ordering operators precompute one verdict per interned string (codes
   are dense), so the per-row test is a table lookup. NULL is the -1
   code, below every real code, so it fails every test for free except
   NEQ's explicit guard. *)
let str_cmp_const (op : Ast.binop) (codes : int array) (d : Column.dict)
    (s : string) : pred =
  match op with
  | Ast.Eq -> (
    match Column.dict_find d s with
    | None -> P_const false
    | Some c -> P_fun (fun ri -> codes.(ri) = c))
  | Ast.Neq -> (
    match Column.dict_find d s with
    | None -> P_fun (fun ri -> codes.(ri) >= 0)
    | Some c ->
      P_fun
        (fun ri ->
          let x = codes.(ri) in
          x >= 0 && x <> c))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let t = op_test op in
    let ok =
      Array.init (Column.dict_size d) (fun c ->
          t (String.compare (Column.dict_string d c) s))
    in
    P_fun
      (fun ri ->
        let x = codes.(ri) in
        x >= 0 && Array.unsafe_get ok x)
  | _ -> assert false

(* Non-null test per layout, for comparisons whose outcome is constant
   on every non-null row (cross-type ranks). *)
let nonnull_pred (v : Column.view) : pred =
  match v with
  | Column.V_int (_, nulls) | Column.V_float (_, nulls) ->
    if Bitvec.count nulls = 0 then P_const true
    else P_fun (fun ri -> not (Bitvec.get nulls ri))
  | Column.V_bool a -> P_fun (fun ri -> a.(ri) <> 2)
  | Column.V_str (codes, _) -> P_fun (fun ri -> codes.(ri) >= 0)
  | Column.V_mixed a -> P_fun (fun ri -> not (Value.is_null a.(ri)))

(* [Value.compare]'s type ranks (NULL handled before this point). *)
let rank_of_view = function
  | Column.V_bool _ -> 1
  | Column.V_int _ | Column.V_float _ -> 2
  | Column.V_str _ -> 3
  | Column.V_mixed _ -> assert false

let rank_of_const = function
  | Value.Bool _ -> 1
  | Value.Int _ | Value.Float _ -> 2
  | Value.Str _ -> 3
  | Value.Null -> assert false

(* field OP constant, semantics of
   [Value.to_bool (Eval.compare_op op cell const)]: false when either
   side is NULL, [Value.compare] otherwise. *)
let bind_cmp_const (op : Ast.binop) (v : Column.view) (k : Value.t) : pred =
  match v, k with
  | _, Value.Null -> P_const false
  | Column.V_int (a, nulls), Value.Int ki ->
    wrap_null nulls (int_cmp_const op a ki)
  | Column.V_int (a, nulls), Value.Float kf ->
    let t = op_test op in
    wrap_null nulls (fun ri -> t (Value.compare_int_float a.(ri) kf))
  | Column.V_float (a, nulls), Value.Int ki ->
    let t = op_test op in
    wrap_null nulls (fun ri -> t (- Value.compare_int_float ki a.(ri)))
  | Column.V_float (a, nulls), Value.Float kf ->
    let t = op_test op in
    wrap_null nulls (fun ri -> t (fcmp a.(ri) kf))
  | Column.V_bool a, Value.Bool b -> P_fun (bool_cmp_const op a b)
  | Column.V_str (codes, d), Value.Str s -> str_cmp_const op codes d s
  | Column.V_mixed a, k ->
    (* Boxed fallback: the row path's own comparison dispatch, so the
       fallback cannot drift semantically from [Eval.compare_op]. *)
    P_fun (fun ri -> Value.to_bool (Eval.compare_op op a.(ri) k))
  | (Column.V_int _ | Column.V_float _ | Column.V_bool _ | Column.V_str _), k
    ->
    (* Cross-type comparison: [Value.compare] is rank order, constant
       across the column, so the pass degenerates to a non-null test or
       an empty selection. *)
    if op_test op (Int.compare (rank_of_view v) (rank_of_const k)) then
      nonnull_pred v
    else P_const false

(* field OP field. The typed pairings compare unboxed; same-dictionary
   string equality is code equality; everything else (including
   cross-type pairings, which still have per-row NULL structure) goes
   through the boxed getters. *)
let bind_cmp_ff (op : Ast.binop) (va : Column.view) (vb : Column.view) : pred =
  match va, vb with
  | Column.V_int (a, _), Column.V_int (b, _) ->
    let base =
      match op with
      | Ast.Eq -> fun ri -> a.(ri) = b.(ri)
      | Ast.Neq -> fun ri -> a.(ri) <> b.(ri)
      | Ast.Lt -> fun ri -> a.(ri) < b.(ri)
      | Ast.Le -> fun ri -> a.(ri) <= b.(ri)
      | Ast.Gt -> fun ri -> a.(ri) > b.(ri)
      | Ast.Ge -> fun ri -> a.(ri) >= b.(ri)
      | _ -> assert false
    in
    pred_and (pred_and (nonnull_pred va) (nonnull_pred vb)) (P_fun base)
  | Column.V_int (a, _), Column.V_float (b, _) ->
    let t = op_test op in
    pred_and
      (pred_and (nonnull_pred va) (nonnull_pred vb))
      (P_fun (fun ri -> t (Value.compare_int_float a.(ri) b.(ri))))
  | Column.V_float (a, _), Column.V_int (b, _) ->
    let t = op_test op in
    pred_and
      (pred_and (nonnull_pred va) (nonnull_pred vb))
      (P_fun (fun ri -> t (- Value.compare_int_float b.(ri) a.(ri))))
  | Column.V_float (a, _), Column.V_float (b, _) ->
    let t = op_test op in
    pred_and
      (pred_and (nonnull_pred va) (nonnull_pred vb))
      (P_fun (fun ri -> t (fcmp a.(ri) b.(ri))))
  | Column.V_bool a, Column.V_bool b ->
    let t = op_test op in
    P_fun
      (fun ri ->
        let x = a.(ri) and y = b.(ri) in
        x <> 2 && y <> 2 && t (x - y))
  | Column.V_str (ca, da), Column.V_str (cb, db) ->
    if da == db && op = Ast.Eq then
      (* Same dictionary: interning makes code equality string
         equality (NULL's -1 fails against any real code and the
         other side's NULL is caught by [x >= 0]). *)
      P_fun
        (fun ri ->
          let x = ca.(ri) in
          x >= 0 && x = cb.(ri))
    else
      let t = op_test op in
      P_fun
        (fun ri ->
          let x = ca.(ri) and y = cb.(ri) in
          x >= 0 && y >= 0
          && t
               (String.compare (Column.dict_string da x)
                  (Column.dict_string db y)))
  | _ ->
    (* Mixed (and rank-constant cross-type) pairings: boxed getters
       through the row path's comparison dispatch. *)
    let ga = getter va and gb = getter vb in
    P_fun (fun ri -> Value.to_bool (Eval.compare_op op (ga ri) (gb ri)))

(* Predicate compiler: the comparison skeleton is classified once at
   compile time ({!Optimizer.cmp_shape}); binding inspects the views and
   picks the unboxed kernel, with Mixed and opaque shapes falling back
   to the scalar closure (whose laziness and error behaviour is the row
   path's own). *)
let rec compile_bpred (p : Plan.pexpr) : bpred =
  match Optimizer.cmp_shape p with
  | Optimizer.Cmp_field_const (op, i, v) ->
    fun cols -> bind_cmp_const op cols.(i) v
  | Optimizer.Cmp_field_field (op, i, j) ->
    fun cols -> bind_cmp_ff op cols.(i) cols.(j)
  | Optimizer.Cmp_opaque -> (
    match p with
    | Plan.Const v ->
      let b = Value.to_bool v in
      fun _ -> P_const b
    | Plan.Binop (Ast.And, a, b) ->
      let pa = compile_bpred a and pb = compile_bpred b in
      fun cols -> pred_and (pa cols) (pb cols)
    | Plan.Binop (Ast.Or, a, b) ->
      let pa = compile_bpred a and pb = compile_bpred b in
      fun cols -> pred_or (pa cols) (pb cols)
    | Plan.Unop (Ast.Not, a) ->
      let pa = compile_bpred a in
      fun cols -> pred_not (pa cols)
    | Plan.Field i -> (
      fun cols ->
        match cols.(i) with
        | Column.V_bool a -> P_fun (fun ri -> a.(ri) = 1)
        | v ->
          let g = getter v in
          P_fun (fun ri -> Value.to_bool (g ri)))
    | _ ->
      let bx = compile_bexpr p in
      fun cols ->
        let ev = bx cols in
        P_fun (fun ri -> Value.to_bool (ev ri)))

(* Filters ---------------------------------------------------------------- *)

(* One selection-refinement pass for one bound predicate. A
   binding-time verdict skips the row loop entirely — the "code absent
   from the dictionary" fast path lands here as [P_const false]. *)
let filter_pred (b : batch) (p : pred) : batch =
  match p with
  | P_const true -> b
  | P_const false -> { b with sel = Chosen [||] }
  | P_fun f ->
    let n = sel_length b.sel in
    let out = Array.make n 0 in
    let j = ref 0 in
    sel_iter
      (fun ri ->
        if f ri then begin
          out.(!j) <- ri;
          incr j
        end)
      b.sel;
    { b with sel = Chosen (if !j = n then out else Array.sub out 0 !j) }

(* Pushed-down predicates: one pass per conjunct, the row path's
   [scan_preds] evaluation order. *)
let filter_conjuncts (b : batch) (preds : bpred list) : batch =
  List.fold_left (fun b bp -> filter_pred b (bp b.cols)) b preds

(* Join residuals: a single pass evaluating all conjuncts per row with
   short-circuit, the row path's [List.for_all] order (conjuncts are
   walked in order per row, so an erroring conjunct fires for exactly
   the rows the row path would have reached it on). *)
let filter_residual (b : batch) (preds : bpred list) : batch =
  match preds with
  | [] -> b
  | _ ->
    let ps = List.map (fun bp -> bp b.cols) preds in
    let rec row_ok ps ri =
      match ps with
      | [] -> true
      | P_const c :: rest -> c && row_ok rest ri
      | P_fun f :: rest -> f ri && row_ok rest ri
    in
    let n = sel_length b.sel in
    let out = Array.make n 0 in
    let j = ref 0 in
    sel_iter
      (fun ri ->
        if row_ok ps ri then begin
          out.(!j) <- ri;
          incr j
        end)
      b.sel;
    { b with sel = Chosen (if !j = n then out else Array.sub out 0 !j) }

(* Scans ------------------------------------------------------------------ *)

(* Transpose the rows of a table without a columnar mirror into boxed
   Mixed views; there is no typed mirror to borrow. *)
let batch_of_rows ~track ~slot ~width (rows : Row.t list) : batch =
  let n = List.length rows in
  let cols = Array.init width (fun _ -> Array.make n Value.Null) in
  let tids = if track then Array.make n 0 else [||] in
  List.iteri
    (fun i row ->
      let cells = Row.cells row in
      for c = 0 to width - 1 do
        cols.(c).(i) <- cells.(c)
      done;
      if track then tids.(i) <- Row.tid row)
    rows;
  {
    cols = Array.map (fun a -> Column.V_mixed a) cols;
    sel = All n;
    srcs = (if track then [ { slot; tids } ] else []);
  }

(* The mirror's zero-copy views under a selection vector. *)
let mirror_batch store ~track ~slot sel : batch =
  {
    cols = Column.views store;
    sel;
    srcs = (if track then [ { slot; tids = Column.tids store } ] else []);
  }

(* The first position at or after [p] whose tid is [>= tid], in the
   ascending tid vector [mt] of length [n]: a galloping search, so a
   probe that lands [d] positions ahead costs O(log d), not O(d). *)
let seek mt n p tid =
  if p >= n || mt.(p) >= tid then p
  else begin
    (* invariant: mt.(lo) < tid, and tid <= mt.(hi) or hi = n *)
    let lo = ref p and step = ref 1 in
    while !lo + !step < n && mt.(!lo + !step) < tid do
      lo := !lo + !step;
      step := 2 * !step
    done;
    let hi = ref (min n (!lo + !step)) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if mt.(mid) < tid then lo := mid else hi := mid
    done;
    !hi
  end

(* Index probe results as a batch, without materializing rows: the
   probe's tids (ascending, same order contract as [Table.index_lookup])
   become a selection vector over the mirror's zero-copy views, each
   found by a {!seek} forward from the previous one — a probe of [k] tids
   costs O(k log n), not a walk of the mirror. A tid absent from the
   mirror is skipped, matching the row path's stale-tid filtering. *)
let batch_of_sorted_tids store ~track ~slot (tids : int array) : batch =
  let mt = Column.tids store in
  let n = Column.length store in
  let buf = Array.make (Array.length tids) 0 in
  let k = ref 0 and p = ref 0 in
  Array.iter
    (fun tid ->
      p := seek mt n !p tid;
      if !p < n && mt.(!p) = tid then begin
        buf.(!k) <- !p;
        incr k
      end)
    tids;
  mirror_batch store ~track ~slot
    (Chosen (if !k = Array.length buf then buf else Array.sub buf 0 !k))

(* One scan closure per access path. A table with a columnar mirror is
   scanned zero-copy; one without runs the row path's
   {!Compile.access_scan} and transposes its rows once. Either way an
   index probe counts once against {!Compile.index_probes}, and a NULL
   key or bound matches nothing. Whether the mirror exists is read per
   execution. *)
let batch_access (table : Table.t) (tname : string) ~track ~slot
    (access : Plan.access) : unit -> batch =
  let width = Schema.arity (Table.schema table) in
  let rows = Compile.access_scan table tname Fun.id access in
  let find_index index =
    match Table.find_index table index with
    | Some ix -> ix
    | None -> Errors.catalog_error "no index %s on table %s" index tname
  in
  let mirrored : Column.t -> batch =
    match access with
    | Plan.Heap ->
      fun store -> mirror_batch store ~track ~slot (All (Column.length store))
    | Plan.Delta ->
      (* The watermark is read per execution, like the row path: one
         compiled plan keeps scanning the current delta suffix as the
         engine advances [Table.delta_base]. *)
      fun store ->
        let n = Column.length store in
        let lo = Column.delta_start store ~base:(Table.delta_base table) in
        mirror_batch store ~track ~slot
          (if lo = 0 then All n else Chosen (Array.init (n - lo) (fun k -> lo + k)))
    | Plan.Index_eq { index; key } ->
      let ix = find_index index in
      let ckey = Compile.compile_expr key in
      fun store ->
        Atomic.incr Compile.index_probes;
        let v = ckey [||] [||] in
        let tids =
          if Value.is_null v then [||] else Table.index_lookup_tids table ix v
        in
        batch_of_sorted_tids store ~track ~slot tids
    | Plan.Index_range { index; lo; hi } ->
      let kcol = Index.column (find_index index) in
      let cbound = Option.map (fun (p, incl) -> (Compile.compile_expr p, incl)) in
      let clo = cbound lo and chi = cbound hi in
      fun store ->
        Atomic.incr Compile.index_probes;
        let eval = Option.map (fun (c, incl) -> (c [||] [||], incl)) in
        let lo = eval clo and hi = eval chi in
        let null_bound =
          match lo, hi with
          | Some (v, _), _ when Value.is_null v -> true
          | _, Some (v, _) when Value.is_null v -> true
          | _ -> false
        in
        (* The row path re-sorts probe results into tid order, so a
           range probe is observably a bound-filtered scan in heap
           order — over the mirror that is one selection pass on the
           key column ([Index.range]'s bound semantics, NULL-keyed rows
           excluded), skipping the index walk, row fetch and re-sort.
           The bounds bind through the same typed comparators as
           filter passes, so the scan compares unboxed cells (or
           dictionary-translated codes) rather than boxed values.
           Selective ranges trade an O(matched) walk for O(rows) cheap
           compares; the engine's range probes are watermark-shaped and
           typically match most of the log. *)
        let kview = Column.view store kcol in
        let n = Column.length store in
        let buf = Array.make n 0 in
        let k = ref 0 in
        if not null_bound then begin
          let above =
            match lo with
            | None -> P_const true
            | Some (b, incl) ->
              bind_cmp_const (if incl then Ast.Ge else Ast.Gt) kview b
          in
          let below =
            match hi with
            | None -> P_const true
            | Some (b, incl) ->
              bind_cmp_const (if incl then Ast.Le else Ast.Lt) kview b
          in
          match pred_and (pred_and (nonnull_pred kview) above) below with
          | P_const false -> ()
          | P_const true ->
            for p = 0 to n - 1 do
              buf.(p) <- p
            done;
            k := n
          | P_fun f ->
            for p = 0 to n - 1 do
              if f p then begin
                buf.(!k) <- p;
                incr k
              end
            done
        end;
        mirror_batch store ~track ~slot
          (Chosen (if !k = n then buf else Array.sub buf 0 !k))
  in
  fun () ->
    match Table.columnar table with
    | Some store -> mirrored store
    | None -> batch_of_rows ~track ~slot ~width (rows ())

(* Joins ------------------------------------------------------------------ *)

module VTbl = Value.Tbl

(* Multi-column keys: value arrays through {!Value.Key}, the same tables
   the row path keys its joins and groups on. *)
module KTbl = Value.Key.Tbl

(* Int-keyed tables for the unboxed join / group kernels. The hash is a
   single multiply (Fibonacci hashing) instead of [Hashtbl.hash]'s
   polymorphic runtime call — the probe loop touches it once per row. *)
module ITbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 12
end)

(* Typed gathers: join outputs copy the matched positions into fresh
   arrays of the same layout, so the output batch stays unboxed and the
   dictionary handle travels with the codes. *)
let gather_ints (a : int array) (idx : int array) : int array =
  let n = Array.length idx in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set out k (Array.unsafe_get a (Array.unsafe_get idx k))
  done;
  out

let gather_floats (a : float array) (idx : int array) : float array =
  let n = Array.length idx in
  if n = 0 then [||]
  else begin
    let out = Array.make n 0.0 in
    for k = 0 to n - 1 do
      Array.unsafe_set out k (Array.unsafe_get a (Array.unsafe_get idx k))
    done;
    out
  end

let gather_bitvec (nulls : Bitvec.t) (idx : int array) : Bitvec.t =
  if Bitvec.count nulls = 0 then Bitvec.empty
  else begin
    let out = Bitvec.create () in
    Array.iter (fun i -> Bitvec.push out (Bitvec.get nulls i)) idx;
    out
  end

let gather_view (v : Column.view) (idx : int array) : Column.view =
  match v with
  | Column.V_int (a, nulls) ->
    Column.V_int (gather_ints a idx, gather_bitvec nulls idx)
  | Column.V_float (a, nulls) ->
    Column.V_float (gather_floats a idx, gather_bitvec nulls idx)
  | Column.V_bool a -> Column.V_bool (gather_ints a idx)
  | Column.V_str (codes, d) -> Column.V_str (gather_ints codes idx, d)
  | Column.V_mixed a -> Column.V_mixed (Array.map (fun i -> a.(i)) idx)

let gather_cols (cols : Column.view array) (idx : int array) =
  Array.map (fun v -> gather_view v idx) cols

let gather_srcs (srcs : src_col list) (idx : int array) =
  List.map (fun sc -> { sc with tids = gather_ints sc.tids idx }) srcs

(* A join key: the compile-time skeleton (bare-field indices when the
   key is a column reference) plus the generic evaluators. *)
type jkey = {
  pf : int option;  (** probe-side field, when the key is a bare column *)
  bf : int option;  (** build-side field likewise *)
  cp : bexpr;
  cb : bexpr;
}

let never (_ : int) = false

(* Unboxed single-key join plan over a view pairing: per-side
   (is_null, int key) accessors in a shared key space, or [None] when
   the pairing needs the boxed Value table ([Value.equal]'s cross-type
   Int/Float matching, Mixed columns, computed keys). NULL keys (the INT
   null bitmap, BOOL's 2, TEXT's -1) are neither built nor probed.
   Cross-dictionary string joins translate probe codes into the build
   dictionary's space, memoized per code; a string absent from the build
   dictionary maps to -2, which no build key can equal. *)
let typed_keys (vp : Column.view) (vb : Column.view) :
    ((int -> bool) * (int -> int) * (int -> bool) * (int -> int)) option =
  match vp, vb with
  | Column.V_int (pa, pn), Column.V_int (ba, bn) ->
    let pnull =
      if Bitvec.count pn = 0 then never else fun q -> Bitvec.get pn q
    in
    let bnull =
      if Bitvec.count bn = 0 then never else fun p -> Bitvec.get bn p
    in
    Some (pnull, (fun q -> pa.(q)), bnull, fun p -> ba.(p))
  | Column.V_bool pa, Column.V_bool ba ->
    Some
      ( (fun q -> pa.(q) = 2),
        (fun q -> pa.(q)),
        (fun p -> ba.(p) = 2),
        fun p -> ba.(p) )
  | Column.V_str (pc, pd), Column.V_str (bc, bd) ->
    let pnull q = pc.(q) < 0 and bnull p = bc.(p) < 0 in
    if pd == bd then Some (pnull, (fun q -> pc.(q)), bnull, fun p -> bc.(p))
    else begin
      let memo = Array.make (max 1 (Column.dict_size pd)) min_int in
      let remap x =
        if x < 0 then -1
        else begin
          let m = Array.unsafe_get memo x in
          if m <> min_int then m
          else begin
            let m =
              match Column.dict_find bd (Column.dict_string pd x) with
              | Some c -> c
              | None -> -2
            in
            memo.(x) <- m;
            m
          end
        end
      in
      Some (pnull, (fun q -> remap pc.(q)), bnull, fun p -> bc.(p))
    end
  | _ -> None

(* A join's build-side hash table, in the key representation the
   execution picked: raw ints / dictionary codes, boxed values, or value
   tuples. Each key's chain holds build positions, prepended in build
   order. *)
type jtable =
  | J_int of int list ref ITbl.t
  | J_value of int list ref VTbl.t
  | J_tuple of int list ref KTbl.t

(* Where a join gets its build table: [tables kind build] returns the
   table of representation [kind], running [build] only when no cached
   one exists. *)
type tables = string -> (unit -> jtable) -> jtable

let unshared_tables : tables = fun _ build -> build ()

(* A shared slot's cached build side: its filtered batch, carrying the
   slot's source tids, and the tables joins built over it, by build key
   and representation. The list only grows, under the cache's lock;
   readers take a snapshot without it. *)
type build_side = { batch : batch; built : (string * jtable) list Atomic.t }

let cached_tables (cache : build_side Shared_cache.t) (e : build_side)
    (jkey : string) : tables =
 fun kind build ->
  let key = jkey ^ kind in
  match List.assoc_opt key (Atomic.get e.built) with
  | Some t -> t
  | None ->
    Shared_cache.locked cache (fun () ->
        match List.assoc_opt key (Atomic.get e.built) with
        | Some t -> t
        | None ->
          let t = build () in
          Atomic.set e.built ((key, t) :: Atomic.get e.built);
          t)

(* Hash join: build on the new slot (full width), probe with the prefix,
   emit (probe, build) position pairs. Per-key chains are built by
   prepending in build order, reproducing [Hashtbl.add] + [find_all]'s
   reverse-insertion match order; probing in prefix order makes the
   output probe-major, exactly the row path's [List.rev !out]. The key
   representation is picked per execution: raw ints / dictionary codes
   when the views allow, the Value table otherwise, {!Value.Key} for
   multi-column keys. The build table comes from [tables], so a cached
   build side is hashed once per table version. *)
let join_hash ~(keys : jkey list) ~(tables : tables) (prefix : batch)
    (build : batch) ~(keep : int array option) : batch =
  let probe_idx = Vec.create ~dummy:0 () in
  let build_idx = Vec.create ~dummy:0 () in
  let emit q cell =
    List.iter
      (fun p ->
        Vec.push probe_idx q;
        Vec.push build_idx p)
      !cell
  in
  let size = max 16 (sel_length build.sel) in
  let tables kind f =
    tables kind (fun () ->
        ignore (Atomic.fetch_and_add join_build_rows (sel_length build.sel));
        f ())
  in
  (match keys with
   | [ k ] -> (
     let typed =
       match k.pf, k.bf with
       | Some pi, Some bi -> typed_keys prefix.cols.(pi) build.cols.(bi)
       | _ -> None
     in
     match typed with
     | Some (pnull, pkey, bnull, bkey) -> (
       let build () =
         let tbl = ITbl.create size in
         sel_iter
           (fun p ->
             if not (bnull p) then
               let k = bkey p in
               match ITbl.find_opt tbl k with
               | Some cell -> cell := p :: !cell
               | None -> ITbl.add tbl k (ref [ p ]))
           build.sel;
         J_int tbl
       in
       match tables "i" build with
       | J_int tbl ->
         (* find_opt, not find: probe misses are the common case (the
            violation-free join is empty), and a raise per miss costs
            more than the 2-word [Some] per hit. *)
         sel_iter
           (fun q ->
             if not (pnull q) then
               match ITbl.find_opt tbl (pkey q) with
               | Some cell -> emit q cell
               | None -> ())
           prefix.sel
       | J_value _ | J_tuple _ -> assert false)
     | None -> (
       (* Single-column boxed key: SQL [=] is [Value.equal] on non-NULL
          keys (integral floats = ints), so NULL keys are never built and
          a NULL probe finds nothing. *)
       let build () =
         let evb = k.cb build.cols in
         let tbl = VTbl.create size in
         sel_iter
           (fun p ->
             let k = evb p in
             if not (Value.is_null k) then
               match VTbl.find_opt tbl k with
               | Some cell -> cell := p :: !cell
               | None -> VTbl.add tbl k (ref [ p ]))
           build.sel;
         J_value tbl
       in
       match tables "v" build with
       | J_value tbl ->
         let evp = k.cp prefix.cols in
         sel_iter
           (fun q ->
             match VTbl.find_opt tbl (evp q) with
             | Some cell -> emit q cell
             | None -> ())
           prefix.sel
       | J_int _ | J_tuple _ -> assert false))
   | _ -> (
     (* Multi-column key: value tuples through {!Value.Key}, as the row
        path joins — a key with a NULL component is never built, so a
        probe holding NULL finds nothing. *)
     let build () =
       let evbs = List.map (fun k -> k.cb build.cols) keys in
       let tbl = KTbl.create size in
       sel_iter
         (fun p ->
           let kv = Array.of_list (List.map (fun ev -> ev p) evbs) in
           if not (Value.Key.has_null kv) then
             match KTbl.find_opt tbl kv with
             | Some cell -> cell := p :: !cell
             | None -> KTbl.add tbl kv (ref [ p ]))
         build.sel;
       J_tuple tbl
     in
     match tables "k" build with
     | J_tuple tbl ->
       let evps = List.map (fun k -> k.cp prefix.cols) keys in
       sel_iter
         (fun q ->
           let kv = Array.of_list (List.map (fun ev -> ev q) evps) in
           match KTbl.find_opt tbl kv with
           | Some cell -> emit q cell
           | None -> ())
         prefix.sel
     | J_int _ | J_value _ -> assert false));
  let pidx = Vec.to_array probe_idx and bidx = Vec.to_array build_idx in
  let m = Array.length pidx in
  Compile.note_rows m;
  note_batch m;
  let bcols =
    match keep with
    | None -> build.cols
    | Some keep -> Array.map (fun j -> build.cols.(j)) keep
  in
  {
    cols = Array.append (gather_cols prefix.cols pidx) (gather_cols bcols bidx);
    sel = All m;
    srcs = gather_srcs prefix.srcs pidx @ gather_srcs build.srcs bidx;
  }

(* Nested-loop cross product, probe-major like the row path. *)
let join_nested (prefix : batch) (build : batch) ~(keep : int array option) :
    batch =
  let probe_idx = Vec.create ~dummy:0 () in
  let build_idx = Vec.create ~dummy:0 () in
  sel_iter
    (fun q ->
      sel_iter
        (fun p ->
          Vec.push probe_idx q;
          Vec.push build_idx p)
        build.sel)
    prefix.sel;
  let pidx = Vec.to_array probe_idx and bidx = Vec.to_array build_idx in
  let m = Array.length pidx in
  Compile.note_rows m;
  note_batch m;
  let bcols =
    match keep with
    | None -> build.cols
    | Some keep -> Array.map (fun j -> build.cols.(j)) keep
  in
  {
    cols = Array.append (gather_cols prefix.cols pidx) (gather_cols bcols bidx);
    sel = All m;
    srcs = gather_srcs prefix.srcs pidx @ gather_srcs build.srcs bidx;
  }

(* Finish ----------------------------------------------------------------- *)

let row_at (b : batch) (pos : int) : Value.t array =
  Array.map (fun v -> Column.view_value v pos) b.cols

let src_at (b : batch) (pos : int) : (int * int) list =
  List.map (fun sc -> (sc.slot, sc.tids.(pos))) b.srcs

(* Materialize the batch's live rows as annotated rows, in selection
   order. Lineage is off by routing (lineage runs stay on the row
   path). *)
let arows_of_batch (b : batch) : Compile.arow list =
  let out = ref [] in
  sel_iter
    (fun pos ->
      out :=
        { Compile.vals = row_at b pos; lin = Lineage.off; src = src_at b pos }
        :: !out)
    b.sel;
  List.rev !out

(* Unboxed single-column group key over a view: (is_null, int key), with
   BOOL's NULL (2) and TEXT's (-1) in-band, so the NULL group is one
   group; [None] falls back to the Value-keyed table (floats, whose
   Int-crossing equality the int space cannot express, and Mixed). *)
let typed_group_key (v : Column.view) :
    ((int -> bool) * (int -> int)) option =
  match v with
  | Column.V_int (a, nulls) ->
    let knull =
      if Bitvec.count nulls = 0 then never else fun i -> Bitvec.get nulls i
    in
    Some (knull, fun i -> a.(i))
  | Column.V_bool a -> Some (never, fun i -> a.(i))
  | Column.V_str (codes, _) -> Some (never, fun i -> codes.(i))
  | Column.V_float _ | Column.V_mixed _ -> None

(* Unboxed aggregate accumulation over a NULL-free int column: the same
   folds [Aggregate.compute] performs, minus the per-row boxing. SUM
   starts at the first element (so integer wrap-around is bit-identical
   to [sum_step]), MIN/MAX keep the int order [Value.compare] gives
   ints, AVG divides the int sum exactly as the row path does. *)
let int_agg (agg : Ast.agg) (a : int array) (members : int list) : Value.t =
  match agg, members with
  | Ast.Count_star, _ | Ast.Count, _ -> Value.Int (List.length members)
  | _, [] -> Value.Null
  | Ast.Sum, p :: ps ->
    Value.Int (List.fold_left (fun acc q -> acc + a.(q)) a.(p) ps)
  | Ast.Avg, p :: ps ->
    let n = List.length members in
    let s = List.fold_left (fun acc q -> acc + a.(q)) a.(p) ps in
    Value.Float (float_of_int s /. float_of_int n)
  | Ast.Min, p :: ps ->
    Value.Int
      (List.fold_left (fun m q -> if a.(q) < m then a.(q) else m) a.(p) ps)
  | Ast.Max, p :: ps ->
    Value.Int
      (List.fold_left (fun m q -> if a.(q) > m then a.(q) else m) a.(p) ps)

(* Group + aggregate + HAVING over the final batch, producing the same
   (representative, aggregates) pairs as [Compile.compile_produce]:
   first-encounter group order, members in row order — and for the
   ungrouped aggregate the row path's reversed order, so fold-sensitive
   aggregates and the last-row representative match exactly. Single
   bare-column keys group on raw ints / dictionary codes when the
   layout allows; aggregates over NULL-free int columns fold unboxed,
   everything else runs [Aggregate.compute] over row indices, which is
   the row path's own accumulation code. *)
let produce_batch (f : Plan.finish) : batch -> (Compile.arow * Value.t array) list
    =
  let gkeys = List.map compile_bexpr f.Plan.group_by in
  let gfields = List.map Optimizer.key_field f.Plan.group_by in
  let grouped = f.Plan.group_by <> [] in
  let aggcs =
    Array.map
      (fun (a : Plan.agg_spec) ->
        ( a.Plan.agg,
          a.Plan.distinct_agg,
          (match a.Plan.arg with
          | None -> None
          | Some p -> Optimizer.key_field p),
          match a.Plan.arg with
          | None -> None
          | Some p -> Some (compile_bexpr p) ))
      f.Plan.aggs
  in
  let having = Option.map Compile.compile_expr f.Plan.having in
  fun (b : batch) ->
    let group_list : int list list =
      if not grouped then begin
        let acc = ref [] in
        sel_iter (fun pos -> acc := pos :: !acc) b.sel;
        [ !acc ]
      end
      else begin
        match gkeys, gfields with
        | [ _ ], [ Some fi ] when typed_group_key b.cols.(fi) <> None ->
          (* Single bare-column key on an int-keyable layout: group on
             the raw ints / codes. The NULL group (chained separately
             for INT columns, in-band for BOOL/TEXT) appears at its
             first-encounter position like every other group. *)
          let knull, kkey =
            match typed_group_key b.cols.(fi) with
            | Some kk -> kk
            | None -> assert false
          in
          let groups : int list ref ITbl.t = ITbl.create 64 in
          let null_cell = ref None in
          let order = ref [] in
          sel_iter
            (fun pos ->
              if knull pos then (
                match !null_cell with
                | Some cell -> cell := pos :: !cell
                | None ->
                  let cell = ref [ pos ] in
                  null_cell := Some cell;
                  order := cell :: !order)
              else
                let k = kkey pos in
                match ITbl.find groups k with
                | cell -> cell := pos :: !cell
                | exception Not_found ->
                  let cell = ref [ pos ] in
                  ITbl.add groups k cell;
                  order := cell :: !order)
            b.sel;
          List.rev_map (fun cell -> List.rev !cell) !order
        | [ gk ], _ ->
          (* Single computed / float / Mixed key: group on the {!Value}
             directly, under the grouping identity [Value.equal] the row
             path's {!Value.Key} tables use elementwise. *)
          let ev = gk b.cols in
          let groups : int list ref VTbl.t = VTbl.create 64 in
          let order = ref [] in
          sel_iter
            (fun pos ->
              let k = ev pos in
              match VTbl.find_opt groups k with
              | Some cell -> cell := pos :: !cell
              | None ->
                let cell = ref [ pos ] in
                VTbl.add groups k cell;
                order := cell :: !order)
            b.sel;
          List.rev_map (fun cell -> List.rev !cell) !order
        | _ ->
          let evs = List.map (fun bx -> bx b.cols) gkeys in
          let groups : int list ref KTbl.t = KTbl.create 64 in
          let order = ref [] in
          sel_iter
            (fun pos ->
              let key = Array.of_list (List.map (fun ev -> ev pos) evs) in
              match KTbl.find_opt groups key with
              | Some cell -> cell := pos :: !cell
              | None ->
                let cell = ref [ pos ] in
                KTbl.add groups key cell;
                order := cell :: !order)
            b.sel;
          List.rev_map (fun cell -> List.rev !cell) !order
      end
    in
    List.filter_map
      (fun members ->
        let aggs =
          Array.map
            (fun (agg, distinct, argf, argc) ->
              match agg with
              | Ast.Count_star -> Value.Int (List.length members)
              | _ -> (
                let typed_col =
                  if distinct then None
                  else
                    match argf with
                    | Some i -> (
                      match b.cols.(i) with
                      | Column.V_int (a, nulls) when Bitvec.count nulls = 0 ->
                        Some a
                      | _ -> None)
                    | None -> None
                in
                match typed_col with
                | Some a -> int_agg agg a members
                | None ->
                  let eval_arg =
                    match argc with
                    | None -> fun (_ : int) -> Value.Int 1
                    | Some bx ->
                      let ev = bx b.cols in
                      fun pos -> ev pos
                  in
                  Aggregate.compute agg ~distinct ~eval_arg members))
            aggcs
        in
        let merged =
          match members with
          | pos :: _ ->
            (* src is [] here: aggregated + track_src routes to rows. *)
            { Compile.vals = row_at b pos; lin = Lineage.off; src = [] }
          | [] -> { Compile.vals = [||]; lin = Lineage.empty; src = [] }
        in
        let keep =
          match having with
          | None -> true
          | Some h -> Value.to_bool (h merged.Compile.vals aggs)
        in
        if keep then Some (merged, aggs) else None)
      group_list

(* Pipeline --------------------------------------------------------------- *)

(* Whether a scan slot may materialize through the shared cache. [Delta]
   reads the watermark at execution time (and is tiny); an [Exec] leaf
   reads the clock, which the cache's (generation, [ver_mut]) validation
   does not cover — and a closure cannot be digested into a tag anyway.
   Source tids do not matter: a cached batch always carries them, and
   each plan relabels or drops them. *)
let shareable (access : Plan.access) (preds : Plan.pexpr list) : bool =
  let no_exec = function None -> true | Some (p, _) -> not (Optimizer.has_exec p) in
  let access_ok =
    match access with
    | Plan.Heap -> true
    | Plan.Delta -> false
    | Plan.Index_eq { key; _ } -> not (Optimizer.has_exec key)
    | Plan.Index_range { lo; hi; _ } -> no_exec lo && no_exec hi
  in
  access_ok && not (List.exists Optimizer.has_exec preds)

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let rec compile_route (cat : Catalog.t) (shared : build_side Shared_cache.t option)
    (opts : Compile.opts) (route : Plan.route) (q : Plan.query) : Compile.t =
  match route, q with
  | Plan.Route_batch, Plan.Select sp -> compile_select_batch cat shared opts sp
  | Plan.Route_union { left = rl; right = rr }, Plan.Union { all; left; right }
    ->
    let l = compile_route cat shared opts rl left in
    let r = compile_route cat shared opts rr right in
    {
      Compile.cols = l.Compile.cols;
      exec = (fun () -> Compile.union_rows ~all (l.Compile.exec ()) (r.Compile.exec ()));
    }
  | (Plan.Route_row | Plan.Route_batch | Plan.Route_union _), _ ->
    (* Routed to rows (or a route/shape mismatch, impossible when the
       route came from [Optimizer.batch_route] on this query). *)
    Atomic.incr row_fallbacks;
    Compile.compile cat opts q

and compile_select_batch (cat : Catalog.t) (shared : build_side Shared_cache.t option)
    (opts : Compile.opts) (sp : Plan.select_plan) : Compile.t =
  let track = opts.Compile.track_src in
  let nslots = Array.length sp.Plan.slots in
  (* A shared slot's cached batch already carries its pushed-down
     conjuncts, so the slot's own filter pass is emptied. *)
  let scan_preds = Array.copy sp.Plan.scan_preds in
  (* Each slot's scan returns its batch and where a join building on it
     gets its hash table. *)
  let scan : (unit -> batch * tables) array =
    Array.mapi
      (fun idx (slot : Plan.slot) ->
        (* A batch is counted when it is materialized; a cache hit
           reads rows already counted. *)
        let materialized raw () =
          let b = raw () in
          note_batch (sel_length b.sel);
          b
        in
        match slot.Plan.source with
        | Plan.Scan (name, access) -> (
          let table = Catalog.find cat name in
          let preds = scan_preds.(idx) in
          match shared with
          | Some cache when shareable access preds ->
            scan_preds.(idx) <- [];
            (* Structural identity of the prefix: slots of any plan
               reading the same table by the same access path under the
               same conjuncts collide on purpose. The batch is full-width
               (pruning applies at join time), so [keep] does not
               participate; it carries source tids for slot 0, which a
               tracking plan relabels to its own slot. *)
            let tag = digest (name, access, preds) in
            let raw = batch_access table (Table.name table) ~track:true ~slot:0 access in
            let cpreds = List.map compile_bpred preds in
            let materialize =
              materialized (fun () -> filter_conjuncts (raw ()) cpreds)
            in
            (* A hash join building on this slot caches its table in the
               entry under its build-side key expressions, unless one
               reads the clock. *)
            let jkey =
              match List.map snd sp.Plan.joins.(idx).Plan.keys with
              | [] -> None
              | bkeys when List.exists Optimizer.has_exec bkeys -> None
              | bkeys -> Some (digest bkeys)
            in
            (* Generation / table version are read per execution: any
               mutation since materialization forces a fresh scan. *)
            fun () ->
              let e =
                Shared_cache.find_or_compute cache
                  ~gen:(Catalog.generation cat)
                  ~ver:(Table.ver_mut table) ~tag
                  (fun () -> { batch = materialize (); built = Atomic.make [] })
              in
              let srcs =
                if track then List.map (fun sc -> { sc with slot = idx }) e.batch.srcs
                else []
              in
              ( { e.batch with srcs },
                match jkey with
                | Some jk -> cached_tables cache e jk
                | None -> unshared_tables )
          | _ ->
            let raw =
              materialized (batch_access table (Table.name table) ~track ~slot:idx access)
            in
            fun () -> (raw (), unshared_tables))
        | Plan.Sub q ->
          (* Subqueries compile unshared on the row path (they may be
             routed there themselves) and adapt at the slot boundary;
             source tids do not flow out of subqueries, as in the row
             path. *)
          let c =
            Compile.compile cat { opts with Compile.track_src = false } q
          in
          let width = Array.length c.Compile.cols in
          let raw =
            materialized (fun () ->
                let rows = c.Compile.exec () in
                let n = List.length rows in
                let cols = Array.init width (fun _ -> Array.make n Value.Null) in
                List.iteri
                  (fun i (r : Compile.arow) ->
                    for cidx = 0 to width - 1 do
                      cols.(cidx).(i) <- r.Compile.vals.(cidx)
                    done)
                  rows;
                {
                  cols = Array.map (fun a -> Column.V_mixed a) cols;
                  sel = All n;
                  srcs = [];
                })
          in
          fun () -> (raw (), unshared_tables))
      sp.Plan.slots
  in
  let scan_preds = Array.map (List.map compile_bpred) scan_preds in
  let project =
    Array.map
      (fun (slot : Plan.slot) ->
        if Array.length slot.Plan.keep = Array.length slot.Plan.cols then None
        else Some slot.Plan.keep)
      sp.Plan.slots
  in
  let steps =
    Array.map
      (fun (j : Plan.jstep) ->
        ( List.map
            (fun (p, b) ->
              {
                pf = Optimizer.key_field p;
                bf = Optimizer.key_field b;
                cp = compile_bexpr p;
                cb = compile_bexpr b;
              })
            j.Plan.keys,
          List.map compile_bpred j.Plan.residual ))
      sp.Plan.joins
  in
  let const_preds = List.map Compile.compile_expr sp.Plan.const_preds in
  let produce_degenerate = Compile.compile_produce sp.Plan.finish in
  let produce =
    if sp.Plan.finish.Plan.aggregated then produce_batch sp.Plan.finish
    else fun b -> List.map (fun r -> (r, [||])) (arows_of_batch b)
  in
  let fin_tail = Compile.compile_finish_tail sp.Plan.finish in
  let cols = Array.of_list sp.Plan.finish.Plan.columns in
  let exec () =
    if not (List.for_all (fun c -> Value.to_bool (c [||] [||])) const_preds)
    then fin_tail (produce_degenerate [])
    else if nslots = 0 then
      fin_tail
        (produce_degenerate
           [ { Compile.vals = [||]; lin = Lineage.empty; src = [] } ])
    else begin
      let joined = ref { cols = [||]; sel = All 0; srcs = [] } in
      for si = 0 to nslots - 1 do
        let scanned, tables = scan.(si) () in
        let b = ref (filter_conjuncts scanned scan_preds.(si)) in
        let keys, residual = steps.(si) in
        if si = 0 then begin
          (match project.(0) with
           | None -> ()
           | Some keep ->
             b := { !b with cols = Array.map (fun j -> !b.cols.(j)) keep });
          joined := filter_residual !b residual
        end
        else begin
          let out =
            if keys <> [] then join_hash ~keys ~tables !joined !b ~keep:project.(si)
            else join_nested !joined !b ~keep:project.(si)
          in
          joined := filter_residual out residual
        end
      done;
      fin_tail (produce !joined)
    end
  in
  { Compile.cols; exec }

(* Entry point: route per subtree, lower batch subtrees, fall back to the
   row compiler elsewhere. *)
let compile (cat : Catalog.t) ?shared (opts : Compile.opts) (q : Plan.query) :
    Compile.t =
  let route =
    Optimizer.batch_route ~lineage:opts.Compile.lineage
      ~track_src:opts.Compile.track_src q
  in
  compile_route cat shared opts route q
