(** Physical compiler: closure-compiled expressions and materializing
    operators over a bound {!Plan.query}.

    Compilation resolves everything that can be resolved once — table
    handles, field offsets, aggregate slots, scalar dispatch — and leaves
    only per-row work in the returned closures. The emitted operators are
    the same materializing scan / filter / hash-join / nested-loop /
    aggregate / distinct / sort / union pipeline the AST-walking executor
    used, and they replicate its observable behaviour exactly: output
    order (including the hash join's reverse-insertion probe order),
    lineage and source-tid threading, error messages, laziness of AND/OR/
    CASE/COALESCE, and the empty-group representative semantics.

    A compiled plan captures {!Table.t} handles; it stays valid until the
    catalog changes shape (see {!Catalog.generation}), which is what the
    engine's prepared-plan cache keys on. *)

type opts = { lineage : bool; track_src : bool }

let default_opts = { lineage = false; track_src = false }

(* Annotated row: values plus the two provenance channels. *)
type arow = {
  vals : Value.t array;
  lin : Lineage.t;
  src : (int * int) list;  (** (FROM-slot index, tid) pairs *)
}

(* Statistics hooks: rows examined by joins and index probes executed,
   for tests and benchmarks. Atomic, because compiled plans execute
   concurrently on the engine's domain pool. *)
let rows_examined = Atomic.make 0

let index_probes = Atomic.make 0

let note_rows n = ignore (Atomic.fetch_and_add rows_examined n)

(* Expressions ----------------------------------------------------------- *)

(** A compiled scalar: row values (in the layout the expression was bound
    against) and the enclosing group's computed aggregates. *)
type cexpr = Value.t array -> Value.t array -> Value.t

let rec compile_expr (p : Plan.pexpr) : cexpr =
  match p with
  | Plan.Const v -> fun _ _ -> v
  | Plan.Field i -> fun vals _ -> vals.(i)
  | Plan.Rep_field i ->
    fun vals _ -> if Array.length vals = 0 then Value.Null else vals.(i)
  | Plan.Agg_ref i -> fun _ aggs -> aggs.(i)
  | Plan.Agg_outside ->
    fun _ _ ->
      Errors.bind_error "aggregate used outside of an aggregate query context"
  | Plan.Exec f -> fun _ _ -> f ()
  | Plan.Unop (Ast.Not, a) ->
    let ca = compile_expr a in
    fun vals aggs -> Value.Bool (not (Value.to_bool (ca vals aggs)))
  | Plan.Unop (Ast.Neg, a) -> (
    let ca = compile_expr a in
    fun vals aggs ->
      match ca vals aggs with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> Errors.type_error "cannot negate %s" (Value.to_string v))
  | Plan.Binop (Ast.And, a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs ->
      Value.Bool (Value.to_bool (ca vals aggs) && Value.to_bool (cb vals aggs))
  | Plan.Binop (Ast.Or, a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs ->
      Value.Bool (Value.to_bool (ca vals aggs) || Value.to_bool (cb vals aggs))
  | Plan.Binop (Ast.Concat, a, b) -> (
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs ->
      match ca vals aggs, cb vals aggs with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | va, vb -> Value.Str (Value.to_string va ^ Value.to_string vb))
  | Plan.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs -> Eval.compare_op op (ca vals aggs) (cb vals aggs)
  | Plan.Binop (Ast.Add, a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs -> Eval.arith "+" ( + ) ( +. ) (ca vals aggs) (cb vals aggs)
  | Plan.Binop (Ast.Sub, a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs -> Eval.arith "-" ( - ) ( -. ) (ca vals aggs) (cb vals aggs)
  | Plan.Binop (Ast.Mul, a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs -> Eval.arith "*" ( * ) ( *. ) (ca vals aggs) (cb vals aggs)
  | Plan.Binop (Ast.Div, a, b) -> (
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs ->
      let va = ca vals aggs in
      match cb vals aggs with
      | Value.Int 0 | Value.Float 0. -> Errors.runtime_error "division by zero"
      | vb -> Eval.arith "/" ( / ) ( /. ) va vb)
  | Plan.Binop (Ast.Mod, a, b) -> (
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs ->
      match ca vals aggs, cb vals aggs with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Int _, Value.Int 0 -> Errors.runtime_error "modulo by zero"
      | Value.Int x, Value.Int y -> Value.Int (x mod y)
      | va, vb ->
        Errors.type_error "%% expects integers, got %s and %s"
          (Value.to_string va) (Value.to_string vb))
  | Plan.Binop (Ast.Like, a, b) -> (
    let ca = compile_expr a and cb = compile_expr b in
    fun vals aggs ->
      match ca vals aggs, cb vals aggs with
      | Value.Null, _ | _, Value.Null -> Value.Bool false
      | v, Value.Str pattern ->
        Value.Bool (Eval.like_match (Value.to_string v) pattern)
      | _, v ->
        Errors.type_error "LIKE pattern must be a string, got %s"
          (Value.to_string v))
  | Plan.Fn (name, args) -> compile_fn name args
  | Plan.Case (branches, default) ->
    let cbranches =
      List.map (fun (c, v) -> (compile_expr c, compile_expr v)) branches
    in
    let cdefault = Option.map compile_expr default in
    fun vals aggs ->
      let rec pick = function
        | [] -> (
          match cdefault with Some d -> d vals aggs | None -> Value.Null)
        | (cond, v) :: rest ->
          if Value.to_bool (cond vals aggs) then v vals aggs else pick rest
      in
      pick cbranches

(* Scalar builtins. Arity and unknown-name errors stay lazy (raised when
   the closure runs, not at compile time), so an unevaluated branch never
   fails. *)
and compile_fn name args : cexpr =
  let cargs = List.map compile_expr args in
  match name, cargs with
  | "coalesce", cargs ->
    fun vals aggs ->
      let rec first = function
        | [] -> Value.Null
        | c :: rest -> (
          match c vals aggs with Value.Null -> first rest | v -> v)
      in
      first cargs
  | "abs", [ c ] -> (
    fun vals aggs ->
      match c vals aggs with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (abs i)
      | Value.Float f -> Value.Float (Float.abs f)
      | v -> Errors.type_error "ABS expects a number, got %s" (Value.to_string v))
  | "length", [ c ] -> (
    fun vals aggs ->
      match c vals aggs with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Int (String.length s)
      | v ->
        Errors.type_error "LENGTH expects a string, got %s" (Value.to_string v))
  | "lower", [ c ] -> (
    fun vals aggs ->
      match c vals aggs with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Str (String.lowercase_ascii s)
      | v ->
        Errors.type_error "LOWER expects a string, got %s" (Value.to_string v))
  | "upper", [ c ] -> (
    fun vals aggs ->
      match c vals aggs with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Str (String.uppercase_ascii s)
      | v ->
        Errors.type_error "UPPER expects a string, got %s" (Value.to_string v))
  | "round", [ c ] -> (
    fun vals aggs ->
      match c vals aggs with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int i
      | Value.Float f -> Value.Int (int_of_float (Float.round f))
      | v ->
        Errors.type_error "ROUND expects a number, got %s" (Value.to_string v))
  | ("abs" | "length" | "lower" | "upper" | "round"), cargs ->
    let n = List.length cargs in
    fun _ _ ->
      Errors.bind_error "%s expects 1 argument, got %d"
        (String.uppercase_ascii name) n
  | name, _ -> fun _ _ -> Errors.bind_error "unknown function %S" name

(* Operators -------------------------------------------------------------- *)

(* Grouping / DISTINCT / UNION / hash-join tables key on value arrays
   directly ({!Value.Key}: elementwise grouping identity). *)
module KTbl = Value.Key.Tbl

type t = { cols : string array; exec : unit -> arow list }

let concat_rows (a : arow) (b : arow) =
  {
    vals = Array.append a.vals b.vals;
    lin = Lineage.union a.lin b.lin;
    src = a.src @ b.src;
  }

let compile_agg (a : Plan.agg_spec) : arow list -> Value.t =
  let eval_arg =
    match a.Plan.arg with
    | None -> fun (_ : arow) -> Value.Int 1
    | Some p ->
      let c = compile_expr p in
      fun (r : arow) -> c r.vals [||]
  in
  fun grows ->
    Aggregate.compute a.Plan.agg ~distinct:a.Plan.distinct_agg ~eval_arg grows

(* Group + aggregate + HAVING: one (representative row, computed
   aggregates) pair per output candidate; non-aggregate queries pass
   rows through. First half of the AST walker's [finish_select]. The
   batch compiler ({!Compile_batch}) produces the same pairs by columnar
   accumulation and feeds them to {!compile_finish_tail}, so the two
   pipelines share the output-shaping semantics below by construction. *)
let compile_produce (f : Plan.finish) : arow list -> (arow * Value.t array) list
    =
  let group_keys = List.map compile_expr f.Plan.group_by in
  let grouped = f.Plan.group_by <> [] in
  let aggfns = Array.map compile_agg f.Plan.aggs in
  let having = Option.map compile_expr f.Plan.having in
  fun rows ->
    if not f.Plan.aggregated then List.map (fun r -> (r, [||])) rows
    else begin
        let group_list =
          if not grouped then [ List.rev rows ]
          else begin
            let groups : arow list ref KTbl.t = KTbl.create 64 in
            let order = ref [] in
            List.iter
              (fun r ->
                let key =
                  Array.of_list (List.map (fun c -> c r.vals [||]) group_keys)
                in
                match KTbl.find_opt groups key with
                | Some cell -> cell := r :: !cell
                | None ->
                  let cell = ref [ r ] in
                  KTbl.add groups key cell;
                  order := cell :: !order)
              rows;
            List.rev_map (fun cell -> List.rev !cell) !order
          end
        in
        List.filter_map
          (fun grows ->
            let aggs = Array.map (fun fn -> fn grows) aggfns in
            let rep =
              match grows with
              | r :: _ -> r
              | [] -> { vals = [||]; lin = Lineage.empty; src = [] }
            in
            (* An output tuple's provenance is the union of its
               contributing inputs. *)
            let merged =
              {
                vals = rep.vals;
                lin = Lineage.union_all (List.map (fun r -> r.lin) grows);
                src = List.concat_map (fun r -> r.src) grows;
              }
            in
            let keep =
              match having with
              | None -> true
              | Some h -> Value.to_bool (h merged.vals aggs)
            in
            if keep then Some (merged, aggs) else None)
          group_list
      end

(* Projection, DISTINCT, ORDER BY, LIMIT over (representative, aggs)
   pairs — second half of the AST walker's [finish_select], shared
   verbatim with the batch compiler so output shaping cannot diverge
   between the row and vectorized pipelines. *)
let compile_finish_tail (f : Plan.finish) :
    (arow * Value.t array) list -> arow list =
  let projs = List.map compile_expr f.Plan.projs in
  let okeys =
    List.map
      (fun ((k : Plan.okey), dir) ->
        let ck =
          match k with
          | Plan.By_output i -> `Out i
          | Plan.By_expr p -> `Expr (compile_expr p)
          | Plan.By_null -> `Nul
        in
        (ck, dir))
      f.Plan.order_by
  in
  let dkeys =
    match f.Plan.distinct with Plan.D_on keys -> List.map compile_expr keys | _ -> []
  in
  fun produced ->
    (* Projections, then order keys, per produced row. *)
    let outputs =
      List.map
        (fun ((r : arow), aggs) ->
          let vals = Array.of_list (List.map (fun c -> c r.vals aggs) projs) in
          let oks =
            List.map
              (fun (ck, dir) ->
                let v =
                  match ck with
                  | `Out i -> vals.(i)
                  | `Expr c ->
                    if f.Plan.aggregated then (
                      try c r.vals aggs with _ -> Value.Null)
                    else c r.vals aggs
                  | `Nul -> Value.Null
                in
                (v, dir))
              okeys
          in
          ({ r with vals }, oks))
        produced
    in
    (* DISTINCT / DISTINCT ON *)
    let outputs =
      match f.Plan.distinct with
      | Plan.D_all -> outputs
      | Plan.D_distinct ->
        (* Duplicates are merged, not dropped: the surviving tuple's
           lineage (and source tids) absorbs those of every duplicate.
           The projected row itself is the key. *)
        let seen : (arow ref * (Value.t * Ast.order_dir) list) KTbl.t =
          KTbl.create 64
        in
        let order = ref [] in
        List.iter
          (fun ((r : arow), ok) ->
            match KTbl.find_opt seen r.vals with
            | Some (kept, _) ->
              kept :=
                {
                  !kept with
                  lin = Lineage.union !kept.lin r.lin;
                  src = !kept.src @ r.src;
                }
            | None ->
              let cell = ref r in
              KTbl.add seen r.vals (cell, ok);
              order := (cell, ok) :: !order)
          outputs;
        List.rev_map (fun (cell, ok) -> (!cell, ok)) !order
      | Plan.D_on _ ->
        (* Keys are evaluated in the input-row context of each produced
           row (witness queries are flat, non-aggregated selects). *)
        let seen : unit KTbl.t = KTbl.create 64 in
        List.filter_map
          (fun ((r, ok), (input : arow)) ->
            let kv =
              Array.of_list (List.map (fun c -> c input.vals [||]) dkeys)
            in
            if KTbl.mem seen kv then None
            else begin
              KTbl.add seen kv ();
              Some (r, ok)
            end)
          (List.map2 (fun out (input, _) -> (out, input)) outputs produced)
    in
    (* ORDER BY, LIMIT *)
    let outputs =
      if okeys = [] then outputs
      else
        List.stable_sort
          (fun (_, ka) (_, kb) ->
            let rec cmp a b =
              match a, b with
              | [], [] -> 0
              | (va, d) :: ra, (vb, _) :: rb ->
                let c = Value.compare va vb in
                let c = match d with Ast.Asc -> c | Ast.Desc -> -c in
                if c <> 0 then c else cmp ra rb
              | _ -> 0
            in
            cmp ka kb)
          outputs
    in
    let outputs =
      match f.Plan.limit with
      | None -> outputs
      | Some n ->
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | x :: xs -> x :: take (k - 1) xs
        in
        take n outputs
    in
    List.map fst outputs

(* Group, project, distinct, order, limit — a direct port of the AST
   walker's [finish_select], over precompiled closures. *)
let compile_finish (f : Plan.finish) : arow list -> arow list =
  let produce = compile_produce f in
  let tail = compile_finish_tail f in
  fun rows -> tail (produce rows)

(* UNION merge. [ALL] concatenates; otherwise duplicates are merged by
   value in first-encounter order, absorbing lineages/source-tids as for
   DISTINCT. Shared with the batch compiler's UNION arm. *)
let union_rows ~(all : bool) (lrows : arow list) (rrows : arow list) :
    arow list =
  if all then lrows @ rrows
  else begin
    let seen : arow ref KTbl.t = KTbl.create 64 in
    let order = ref [] in
    List.iter
      (fun row ->
        let key = row.vals in
        match KTbl.find_opt seen key with
        | Some kept ->
          kept :=
            {
              !kept with
              lin = Lineage.union !kept.lin row.lin;
              src = !kept.src @ row.src;
            }
        | None ->
          let cell = ref row in
          KTbl.add seen key cell;
          order := cell :: !order)
      (lrows @ rrows);
    List.rev_map (fun c -> !c) !order
  end

(* One scan closure per access path. Key/bound expressions compile once,
   here; probes and bound evaluation happen per execution. *)
let access_scan (table : Table.t) (tname : string) (annotate : Row.t -> 'a)
    (access : Plan.access) : unit -> 'a list =
  match access with
  | Plan.Heap ->
    fun () ->
      let rows = Table.fold (fun acc row -> annotate row :: acc) [] table in
      List.rev rows
  | Plan.Delta ->
    (* The watermark is read per execution, not captured: the same
       compiled plan keeps scanning the current delta as the engine
       advances [Table.delta_base]. *)
    fun () ->
      let rows =
        Table.fold_delta (fun acc row -> annotate row :: acc) [] table
      in
      List.rev rows
  | Plan.Index_eq { index; key } ->
    let ix =
      match Table.find_index table index with
      | Some ix -> ix
      | None -> Errors.catalog_error "no index %s on table %s" index tname
    in
    let ckey = compile_expr key in
    fun () ->
      Atomic.incr index_probes;
      let v = ckey [||] [||] in
      (* [col = NULL] matches nothing. *)
      if Value.is_null v then []
      else List.map annotate (Table.index_lookup table ix v)
  | Plan.Index_range { index; lo; hi } ->
    let ix =
      match Table.find_index table index with
      | Some ix -> ix
      | None -> Errors.catalog_error "no index %s on table %s" index tname
    in
    let cbound = Option.map (fun (p, incl) -> (compile_expr p, incl)) in
    let clo = cbound lo and chi = cbound hi in
    fun () ->
      Atomic.incr index_probes;
      let eval = Option.map (fun (c, incl) -> (c [||] [||], incl)) in
      let lo = eval clo and hi = eval chi in
      (* A NULL bound makes the comparison false for every row. *)
      let null_bound =
        match lo, hi with
        | Some (v, _), _ when Value.is_null v -> true
        | _, Some (v, _) when Value.is_null v -> true
        | _ -> false
      in
      if null_bound then []
      else List.map annotate (Table.index_range table ix ?lo ?hi ())

let rec compile (cat : Catalog.t) (opts : opts) (q : Plan.query) : t =
  match q with
  | Plan.Select sp -> compile_select cat opts sp
  | Plan.Union { all; left; right } ->
    let l = compile cat opts left in
    let r = compile cat opts right in
    let exec () = union_rows ~all (l.exec ()) (r.exec ()) in
    { cols = l.cols; exec }

and compile_select (cat : Catalog.t) (opts : opts) (sp : Plan.select_plan) : t =
  let nslots = Array.length sp.Plan.slots in
  (* Scan closures capture table handles and provenance configuration.
     All access paths annotate identically: index probes return rows in
     tid order, which is heap scan order, so lineage and source tids are
     bit-for-bit those of the heap path. *)
  let annotate_for idx tname =
    fun row ->
      let lin =
        if opts.lineage then Lineage.singleton tname (Row.tid row)
        else Lineage.off
      in
      let src = if opts.track_src then [ (idx, Row.tid row) ] else [] in
      { vals = Row.cells row; lin; src }
  in
  let scan =
    Array.mapi
      (fun idx (slot : Plan.slot) ->
        match slot.Plan.source with
        | Plan.Scan (name, access) ->
          let table = Catalog.find cat name in
          let tname = Table.name table in
          access_scan table tname (annotate_for idx tname) access
        | Plan.Sub q ->
          (* Lineage flows through subqueries; source tids do not
             (witness queries are always built over flat FROM lists). *)
          (compile cat { opts with track_src = false } q).exec)
      sp.Plan.slots
  in
  let scan_preds = Array.map (List.map compile_expr) sp.Plan.scan_preds in
  (* Projection through [keep]; identity keeps are free (and scans then
     share cell arrays with the table, as the AST walker did). *)
  let project =
    Array.map
      (fun (slot : Plan.slot) ->
        if Array.length slot.Plan.keep = Array.length slot.Plan.cols then None
        else Some slot.Plan.keep)
      sp.Plan.slots
  in
  let project_row si =
    match project.(si) with
    | None -> fun (r : arow) -> r
    | Some keep -> fun (r : arow) -> { r with vals = Array.map (fun j -> r.vals.(j)) keep }
  in
  let steps =
    Array.map
      (fun (j : Plan.jstep) ->
        ( List.map (fun (p, b) -> (compile_expr p, compile_expr b)) j.Plan.keys,
          List.map compile_expr j.Plan.residual ))
      sp.Plan.joins
  in
  let const_preds = List.map compile_expr sp.Plan.const_preds in
  let fin = compile_finish sp.Plan.finish in
  let cols = Array.of_list sp.Plan.finish.Plan.columns in
  let exec () =
    (* Constant conjuncts gate the whole query (short-circuit, so a later
       erroring conjunct is never reached once one is false). *)
    if
      not
        (List.for_all (fun c -> Value.to_bool (c [||] [||])) const_preds)
    then fin []
    else if nslots = 0 then
      (* An empty FROM contributes one empty row so that [SELECT 1]
         yields a single tuple. *)
      fin [ { vals = [||]; lin = Lineage.empty; src = [] } ]
    else begin
      let joined = ref [] in
      for si = 0 to nslots - 1 do
        let rows = ref (scan.(si) ()) in
        (* Pushed-down predicates, one filtering pass per conjunct (the
           AST walker's evaluation order). *)
        List.iter
          (fun c ->
            rows :=
              List.filter (fun (r : arow) -> Value.to_bool (c r.vals [||])) !rows)
          scan_preds.(si);
        let keys, residual = steps.(si) in
        let proj = project_row si in
        if si = 0 then begin
          let rows0 = match project.(0) with None -> !rows | Some _ -> List.map proj !rows in
          joined :=
            (if residual = [] then rows0
             else
               List.filter
                 (fun (r : arow) ->
                   List.for_all (fun c -> Value.to_bool (c r.vals [||])) residual)
                 rows0)
        end
        else begin
          let out = ref [] in
          (if keys <> [] then begin
             (* Hash join: build on the new slot, probe with the prefix.
                [KTbl.add] + [find_all] reproduce the walker's
                reverse-insertion match order, keyed on the value tuples
                themselves. The join replaces [a = b] conjuncts, so it
                matches SQL [=]: a key with a NULL component is never
                built, and a probe key holding NULL then finds nothing. *)
             let build = KTbl.create (max 16 (List.length !rows)) in
             List.iter
               (fun (r : arow) ->
                 let kv =
                   Array.of_list
                     (List.map (fun (_, cb) -> cb r.vals [||]) keys)
                 in
                 if not (Value.Key.has_null kv) then KTbl.add build kv (proj r))
               !rows;
             List.iter
               (fun (l : arow) ->
                 let kv =
                   Array.of_list
                     (List.map (fun (cp, _) -> cp l.vals [||]) keys)
                 in
                 List.iter
                   (fun r -> out := concat_rows l r :: !out)
                   (KTbl.find_all build kv))
               !joined
           end
           else begin
             (* Nested-loop cross product. *)
             let rrows =
               match project.(si) with
               | None -> !rows
               | Some _ -> List.map proj !rows
             in
             List.iter
               (fun l -> List.iter (fun r -> out := concat_rows l r :: !out) rrows)
               !joined
           end);
          note_rows (List.length !out);
          let rows' = List.rev !out in
          joined :=
            (if residual = [] then rows'
             else
               List.filter
                 (fun (r : arow) ->
                   List.for_all (fun c -> Value.to_bool (c r.vals [||])) residual)
                 rows')
        end
      done;
      fin !joined
    end
  in
  { cols; exec }
