(** Logical plan IR.

    The binder turns a parsed {!Ast.query} into a fully bound plan: every
    column reference is resolved once, to an index into an explicit row
    layout, and every clause (projection, predicates, grouping, ordering)
    becomes a {!pexpr} tree over that layout. Binding errors — unknown or
    ambiguous names, aggregates in WHERE, UNION arity mismatches — are
    raised here, so neither the optimizer nor the compiled operators ever
    perform name resolution again.

    The binder is deliberately naive: WHERE conjuncts are attached to the
    join step at which their slots are all available, no predicate is
    pushed into a scan, no hash keys are extracted and no column is
    pruned. {!Optimizer.optimize} performs those rewrites; compiling the
    binder's output directly yields the un-optimized reference executor
    used by the differential tests. *)

(** Bound scalar expression. [Field] indexes the concatenated row of the
    enclosing SELECT's FROM slots (the "final layout"); inside scan
    predicates and hash-join build keys indices are slot-local instead
    (the operator evaluates them against a single slot's row).
    [Rep_field] is a field of a group's representative row — [Null] when
    the group is empty (aggregate query over no rows). [Agg_ref] indexes
    the per-group array of computed aggregates. [Agg_outside] is an
    aggregate call in a non-aggregate position; it raises when (and only
    when) evaluated, preserving the lazy error behaviour of the
    AST-walking executor. *)
type pexpr =
  | Const of Value.t
  | Field of int
  | Rep_field of int
  | Agg_ref of int
  | Agg_outside
  | Exec of (unit -> Value.t)
      (** read a value at execution time — the clock-elimination rewrite
          substitutes the clock relation's single cell with one of these,
          so a clock-eliminated plan stays valid as the clock advances.
          The closure must never raise and reads no row fields. [Exec]
          never constant-folds, and a scan slot carrying one never
          materializes through the shared-scan cache ({!Compile_batch}),
          whose validation covers table versions, not the clock. *)
  | Binop of Ast.binop * pexpr * pexpr
  | Unop of Ast.unop * pexpr
  | Fn of string * pexpr list
  | Case of (pexpr * pexpr) list * pexpr option

(** How a base-table scan reaches its rows. [Heap] walks the whole table;
    the index paths probe a declared {!Index} and are selected by the
    optimizer from pushed-down predicates. Key and bound expressions are
    slot-free ([Const]-only after constant folding) and evaluate once per
    execution; a NULL key or bound yields no rows (SQL comparison
    semantics). *)
type access =
  | Heap
  | Delta
      (** walk only the rows at or above the table's delta watermark
          ({!Table.delta_base}), read at execution time so one compiled
          plan stays valid as the watermark advances *)
  | Index_eq of { index : string; key : pexpr }
  | Index_range of {
      index : string;
      lo : (pexpr * bool) option;  (** bound, inclusive? *)
      hi : (pexpr * bool) option;
    }

type source =
  | Scan of string * access  (** base table, by catalog name *)
  | Sub of query

and slot = {
  alias : string;  (** lowercased effective alias *)
  cols : string array;  (** full column set the slot exposes *)
  source : source;
  keep : int array;
      (** slot-local column indices surviving projection pruning; the
          binder emits the identity, the optimizer may shrink it *)
}

(** One join step: when slot [i] joins the prefix [0..i-1], [keys] are
    (probe, build) equi-key pairs — probe over the pruned prefix layout,
    build over the slot's local full-width row — and [residual] are the
    remaining conjuncts applicable once the slot is joined, over the
    pruned layout. Step 0 never has keys; its residual filters the first
    slot's rows. *)
and jstep = { keys : (pexpr * pexpr) list; residual : pexpr list }

and agg_spec = { agg : Ast.agg; distinct_agg : bool; arg : pexpr option }

and okey =
  | By_output of int  (** ORDER BY referencing an output column by name *)
  | By_expr of pexpr
  | By_null
      (** key that failed to bind in an aggregate query; the AST walker
          evaluated it lazily and mapped any failure to NULL *)

and dspec = D_all | D_distinct | D_on of pexpr list

and finish = {
  columns : string list;
  projs : pexpr list;  (** one per output column *)
  aggregated : bool;
  group_by : pexpr list;
  aggs : agg_spec array;  (** indexed by [Agg_ref] *)
  having : pexpr option;
  order_by : (okey * Ast.order_dir) list;
  distinct : dspec;
  limit : int option;
}

and select_plan = {
  slots : slot array;
  const_preds : pexpr list;  (** slot-free conjuncts gating the query *)
  scan_preds : pexpr list array;
      (** per-slot pushed-down predicates, slot-local layout; empty until
          the optimizer runs *)
  joins : jstep array;  (** one per slot *)
  finish : finish;
}

and query = Select of select_plan | Union of { all : bool; left : query; right : query }

(** Physical routing of a plan between the row-at-a-time compiler
    ({!Compile}) and the batch-at-a-time compiler ({!Compile_batch}),
    decided per subtree by {!Optimizer.batch_route}. The tree mirrors the
    query's UNION structure; each [Select] node is routed whole (its
    scans, filters, joins and aggregate accumulation all move together —
    subquery slots inside a batched select still compile through the row
    path and enter through the row→batch adapter). *)
type route =
  | Route_row
  | Route_batch
  | Route_union of { left : route; right : route }

let rec columns = function
  | Select sp -> sp.finish.columns
  | Union { left; _ } -> columns left

(* Binding ---------------------------------------------------------------- *)

(* The scope of one SELECT: its FROM slots laid out side by side. *)
type scope = {
  aliases : string array;  (** lowercased *)
  slot_cols : string array array;
  offsets : int array;
}

let identity n = Array.init n (fun i -> i)

let table_scope name cols =
  {
    aliases = [| String.lowercase_ascii name |];
    slot_cols = [| Array.of_list cols |];
    offsets = [| 0 |];
  }

let empty_scope = { aliases = [||]; slot_cols = [||]; offsets = [||] }

let col_index cols lname =
  let rec go i =
    if i >= Array.length cols then None
    else if String.lowercase_ascii cols.(i) = lname then Some i
    else go (i + 1)
  in
  go 0

(* The (slot, slot-local column) an unqualified name resolves to. *)
let resolve_unqualified scope name =
  let lname = String.lowercase_ascii name in
  let hits = ref [] in
  Array.iteri
    (fun si cols ->
      match col_index cols lname with
      | Some ci -> hits := (si, ci) :: !hits
      | None -> ())
    scope.slot_cols;
  match !hits with
  | [ hit ] -> hit
  | [] -> Errors.bind_error "unknown column %S" name
  | _ -> Errors.bind_error "ambiguous column %S" name

let alias_of scope name = scope.aliases.(fst (resolve_unqualified scope name))

(* Resolve a column reference to an absolute index in the final layout,
   with the exact error messages of the AST-walking executor. *)
let resolve scope q name =
  match q with
  | Some q -> (
    let lq = String.lowercase_ascii q in
    let rec find i =
      if i >= Array.length scope.aliases then
        Errors.bind_error "unknown table or alias %S" q
      else if scope.aliases.(i) = lq then i
      else find (i + 1)
    in
    let si = find 0 in
    match col_index scope.slot_cols.(si) (String.lowercase_ascii name) with
    | Some ci -> scope.offsets.(si) + ci
    | None -> Errors.bind_error "no column %S in %S" name q)
  | None ->
    let si, ci = resolve_unqualified scope name in
    scope.offsets.(si) + ci

(* Lower an expression in the base (per-row) context. *)
let rec lower scope (e : Ast.expr) : pexpr =
  match e with
  | Ast.Lit v -> Const v
  | Ast.Col (q, name) -> Field (resolve scope q name)
  | Ast.Binop (op, a, b) -> Binop (op, lower scope a, lower scope b)
  | Ast.Unop (op, a) -> Unop (op, lower scope a)
  | Ast.Agg_call _ -> Agg_outside
  | Ast.Fn_call (name, args) -> Fn (name, List.map (lower scope) args)
  | Ast.Case (branches, default) ->
    Case
      ( List.map (fun (c, v) -> (lower scope c, lower scope v)) branches,
        Option.map (lower scope) default )

(* Lower in the group context: aggregate calls become references into the
   per-group computed array, plain columns read the group's representative
   row (NULL for the empty group). Membership is tested at every node,
   mirroring the evaluator's per-node aggregate lookup. *)
let rec lower_group scope (agg_calls : Ast.expr list) (e : Ast.expr) : pexpr =
  let rec index_of i = function
    | [] -> None
    | c :: _ when c = e -> Some i
    | _ :: rest -> index_of (i + 1) rest
  in
  match index_of 0 agg_calls with
  | Some i -> Agg_ref i
  | None -> (
    match e with
    | Ast.Lit v -> Const v
    | Ast.Col (q, name) -> Rep_field (resolve scope q name)
    | Ast.Binop (op, a, b) ->
      Binop (op, lower_group scope agg_calls a, lower_group scope agg_calls b)
    | Ast.Unop (op, a) -> Unop (op, lower_group scope agg_calls a)
    | Ast.Agg_call _ -> Agg_outside
    | Ast.Fn_call (name, args) ->
      Fn (name, List.map (lower_group scope agg_calls) args)
    | Ast.Case (branches, default) ->
      Case
        ( List.map
            (fun (c, v) ->
              (lower_group scope agg_calls c, lower_group scope agg_calls v))
            branches,
          Option.map (lower_group scope agg_calls) default ))

(* Slots referenced by a bound expression (via its absolute fields). *)
let slots_of_pexpr (offsets : int array) (widths : int array) (p : pexpr) :
    int list =
  let slot_of idx =
    let rec go si =
      if idx < offsets.(si) + widths.(si) then si else go (si + 1)
    in
    go 0
  in
  let acc = ref [] in
  let rec walk = function
    | Const _ | Agg_ref _ | Agg_outside | Exec _ -> ()
    | Field i | Rep_field i ->
      let si = slot_of i in
      if not (List.mem si !acc) then acc := si :: !acc
    | Binop (_, a, b) ->
      walk a;
      walk b
    | Unop (_, a) -> walk a
    | Fn (_, args) -> List.iter walk args
    | Case (branches, default) ->
      List.iter
        (fun (c, v) ->
          walk c;
          walk v)
        branches;
      Option.iter walk default
  in
  walk p;
  List.sort_uniq compare !acc

(* Layout helpers shared with the optimizer and compiler. *)
let full_offsets (slots : slot array) : int array =
  let n = Array.length slots in
  let offsets = Array.make n 0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) + Array.length slots.(i - 1).cols
  done;
  offsets

let pruned_offsets (slots : slot array) : int array =
  let n = Array.length slots in
  let offsets = Array.make n 0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) + Array.length slots.(i - 1).keep
  done;
  offsets

(* Naive placement: each conjunct joins the step at which its last slot
   becomes available, and slot-free ones gate the query. The optimizer
   refines this into pushdowns and hash keys. *)
let place (offsets : int array) (widths : int array) (conjuncts : pexpr list) :
    pexpr list * jstep array =
  let nslots = Array.length offsets in
  let residuals = Array.make (max nslots 1) [] in
  let consts = ref [] in
  List.iter
    (fun p ->
      match slots_of_pexpr offsets widths p with
      | [] -> consts := p :: !consts
      | ss ->
        let step = List.fold_left max 0 ss in
        residuals.(step) <- p :: residuals.(step))
    conjuncts;
  ( List.rev !consts,
    Array.init nslots (fun i -> { keys = []; residual = List.rev residuals.(i) }) )

let scope_of_slots (slots : slot array) : scope =
  {
    aliases = Array.map (fun sl -> sl.alias) slots;
    slot_cols = Array.map (fun sl -> sl.cols) slots;
    offsets = full_offsets slots;
  }

let rec of_query (cat : Catalog.t) (q : Ast.query) : query =
  match q with
  | Ast.Select s -> Select (of_select cat s)
  | Ast.Union { all; left; right } ->
    let l = of_query cat left in
    let r = of_query cat right in
    let la = List.length (columns l) and ra = List.length (columns r) in
    if la <> ra then
      Errors.bind_error "UNION operands have different arities (%d vs %d)" la ra;
    Union { all; left = l; right = r }

and bind_from (cat : Catalog.t) (from : Ast.from_item list) : slot array =
  Array.of_list
    (List.map
       (fun (fi : Ast.from_item) ->
         match fi with
         | Ast.From_table { name; alias } ->
           let table = Catalog.find cat name in
           let cols = Array.of_list (Schema.column_names (Table.schema table)) in
           {
             alias = String.lowercase_ascii (Option.value alias ~default:name);
             cols;
             source = Scan (name, Heap);
             keep = identity (Array.length cols);
           }
         | Ast.From_subquery { query; alias } ->
           let sub = of_query cat query in
           let cols = Array.of_list (columns sub) in
           {
             alias = String.lowercase_ascii alias;
             cols;
             source = Sub sub;
             keep = identity (Array.length cols);
           })
       from)

and of_select (cat : Catalog.t) (s : Ast.select) : select_plan =
  (* 1. Resolve FROM items into slots (missing tables error here, before
     any other binding, as the executor materialized inputs first). *)
  let slots = bind_from cat s.from in
  let nslots = Array.length slots in
  let widths = Array.map (fun sl -> Array.length sl.cols) slots in
  let scope = scope_of_slots slots in
  let offsets = scope.offsets in
  (* 2. WHERE conjuncts: reject aggregates first, then bind. *)
  let conjuncts = Ast.conjuncts_opt s.where in
  List.iter
    (fun c ->
      if Ast.expr_has_agg c then
        Errors.bind_error "aggregates are not allowed in WHERE")
    conjuncts;
  let const_preds, joins =
    place offsets widths (List.map (lower scope) conjuncts)
  in
  (* 3. SELECT list. *)
  let item_exprs =
    List.filter_map
      (function
        | Ast.Sel_expr (e, _) -> Some e | Ast.Star | Ast.Table_star _ -> None)
      s.items
  in
  let has_agg =
    s.group_by <> [] || s.having <> None || List.exists Ast.expr_has_agg item_exprs
  in
  let agg_calls =
    List.sort_uniq compare
      (List.concat_map Aggregate.calls_in_expr
         (item_exprs @ Option.to_list s.having @ List.map fst s.order_by))
  in
  let lower_item e =
    if has_agg then lower_group scope agg_calls e else lower scope e
  in
  let star_columns () =
    let out = ref [] in
    Array.iteri
      (fun si sl ->
        Array.iteri (fun i c -> out := (offsets.(si) + i, c) :: !out) sl.cols)
      slots;
    List.rev !out
  in
  let table_star_columns t =
    let lt = String.lowercase_ascii t in
    let found = ref None in
    Array.iteri (fun si sl -> if !found = None && sl.alias = lt then found := Some si) slots;
    match !found with
    | None -> Errors.bind_error "unknown table or alias %S in select list" t
    | Some si ->
      Array.to_list (Array.mapi (fun i c -> (offsets.(si) + i, c)) slots.(si).cols)
  in
  let named_projs =
    List.concat_map
      (function
        | Ast.Star ->
          List.map (fun (idx, name) -> (name, Field idx)) (star_columns ())
        | Ast.Table_star t ->
          List.map (fun (idx, name) -> (name, Field idx)) (table_star_columns t)
        | Ast.Sel_expr (e, alias) ->
          let name =
            match alias, e with
            | Some a, _ -> a
            | None, Ast.Col (_, c) -> c
            | None, Ast.Agg_call (agg, _, _) ->
              String.lowercase_ascii (Sql_print.agg_str agg)
            | None, _ -> "?column?"
          in
          [ (name, lower_item e) ])
      s.items
  in
  (* 4. Aggregate specifications (argument bound in the base context). *)
  let aggs =
    Array.of_list
      (List.map
         (function
           | Ast.Agg_call (agg, distinct_agg, arg) ->
             { agg; distinct_agg; arg = Option.map (lower scope) arg }
           | _ -> assert false)
         agg_calls)
  in
  (* 5. ORDER BY keys: an unqualified name matching an output column uses
     that column; otherwise the key binds as a SELECT item does (in the
     group context of an aggregate query, so an aggregate key reads its
     computed value), and in an aggregate query a key that fails to bind
     degrades to NULL — exactly the lazy behaviour of the AST walker. *)
  let order_by =
    List.map
      (fun (e, dir) ->
        let key =
          let by_output name =
            let lname = String.lowercase_ascii name in
            let rec go i = function
              | [] -> None
              | (n, _) :: _ when String.lowercase_ascii n = lname -> Some i
              | _ :: rest -> go (i + 1) rest
            in
            go 0 named_projs
          in
          match e with
          | Ast.Col (None, name) when by_output name <> None ->
            By_output (Option.get (by_output name))
          | _ -> (
            try By_expr (lower_item e)
            with Errors.Sql_error _ when has_agg -> By_null)
        in
        (key, dir))
      s.order_by
  in
  let distinct =
    match s.distinct with
    | Ast.All -> D_all
    | Ast.Distinct -> D_distinct
    | Ast.Distinct_on keys -> D_on (List.map (lower scope) keys)
  in
  let finish =
    {
      columns = List.map fst named_projs;
      projs = List.map snd named_projs;
      aggregated = has_agg;
      group_by = List.map (lower scope) s.group_by;
      aggs;
      having = Option.map (lower_group scope agg_calls) s.having;
      order_by;
      distinct;
      limit = s.limit;
    }
  in
  {
    slots;
    const_preds;
    scan_preds = Array.make nslots [];
    joins;
    finish;
  }

let from_scope cat from = scope_of_slots (bind_from cat from)
