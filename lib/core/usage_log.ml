(** The usage log [L] of §3.2.

    The log is a set of relations [R1..Rm], each with a leading [ts]
    column, plus the single-row [clock] relation. For each log relation
    the system holds a {e log-generating function} [fi(q, D)] that
    computes the set of feature tuples a query [q] contributes; the
    engine prepends the current timestamp and appends them tentatively
    (Eq. 1).

    The three standard relations of the prototype (Example 3.3) are
    provided here — [users], [schema], [provenance] — and arbitrary
    additional relations can be registered with {!custom}, which is the
    §6 extensibility hook (e.g. a device or system-load log). *)

open Relational

(** Everything a log-generating function may look at. [extra] carries
    application-specific context (connection string, device, load, ...)
    for custom generators; [lineage_run] keeps {!provenance}'s run for
    the engine, which answers the admitted query from it. *)
type query_ctx = {
  uid : int;
  time : int;
  query : Ast.query;
  db : Database.t;
  extra : (string * Value.t) list;
  mutable lineage_run : Executor.result option;
}

type generator = {
  relation : string;  (** log relation name *)
  columns : (string * Ty.t) list;  (** schema {e excluding} the leading ts *)
  rank : int;
      (** interleaved-evaluation order (§4.2.1): cheaper generators first *)
  generate : query_ctx -> Value.t array list;
      (** the feature set [Si = fi(q, D)], without the ts column; a set *)
}

let clock_relation = "clock"
let time_column = "ts"

let full_schema (g : generator) = (time_column, Ty.Int) :: g.columns

(* Register a log relation (with its ts column) in the catalog. *)
let install_relation (db : Database.t) (g : generator) =
  let schema = Schema.make (full_schema g) in
  ignore (Catalog.create_table ~kind:Catalog.Log (Database.catalog db) ~name:g.relation ~schema)

let install_clock (db : Database.t) =
  let schema = Schema.make [ ("ts", Ty.Int) ] in
  let t =
    Catalog.create_table ~kind:Catalog.System (Database.catalog db)
      ~name:clock_relation ~schema
  in
  ignore (Table.insert t [| Value.Int 0 |])

let set_clock (db : Database.t) (t : int) =
  let table = Database.table db clock_relation in
  ignore (Table.update_where table (fun _ -> true) (fun _ -> [| Value.Int t |]))

let current_time (db : Database.t) : int =
  let table = Database.table db clock_relation in
  (* Called on every evaluation/commit; read the single row in place
     instead of materializing a list. *)
  if Table.row_count table <> 1 then
    Errors.runtime_error "clock relation must contain exactly one row";
  match Seq.uncons (Table.to_seq table) with
  | Some (row, _) -> (
    match Row.cell row 0 with Value.Int t -> t | _ -> 0)
  | None -> Errors.runtime_error "clock relation must contain exactly one row"

(* users(ts, uid) --------------------------------------------------------- *)

let users : generator =
  {
    relation = "users";
    columns = [ ("uid", Ty.Int) ];
    rank = 0;
    generate = (fun ctx -> [ [| Value.Int ctx.uid |] ]);
  }

(* schema(ts, ocid, irid, icid, agg) --------------------------------------- *)

(* A derivation: (input relation, input column option, used under
   aggregate). *)
type deriv = string * string option * bool

(* Which output column derives from which input relation/column, and
   whether an aggregate was involved, read off the binder's plan so the
   log names exactly the columns the executor reads (catalog names, an
   ORDER BY key as the column it sorts by). Beyond the paper's Example
   3.3 we additionally record, as auxiliary derivations with a NULL
   ocid, columns referenced only in WHERE/GROUP BY/HAVING/ORDER BY/
   DISTINCT ON and relations merely listed in FROM, so that
   join-restriction policies (P1, P2 of Table 1) see every relation a
   query touches. *)
let rec derivations (cat : Catalog.t) (q : Plan.query) :
    (string * deriv list) list * deriv list =
  match q with
  | Plan.Union { left; right; _ } ->
    let lo, la = derivations cat left and ro, ra = derivations cat right in
    (List.map2 (fun (name, dl) (_, dr) -> (name, dl @ dr)) lo ro, la @ ra)
  | Plan.Select { slots; const_preds; joins; finish = f; _ } ->
    let sources =
      List.map
        (fun (sl : Plan.slot) ->
          match sl.Plan.source with
          | Plan.Scan (name, _) -> `Base (Table.name (Catalog.find cat name), sl.Plan.cols)
          | Plan.Sub sub -> `Sub (derivations cat sub))
        (Array.to_list slots)
    in
    (* The binder's layout: every slot's columns side by side. *)
    let fields =
      Array.of_list
        (List.concat_map
           (function
             | `Base (irid, cols) ->
               List.map (fun c -> [ (irid, Some c, false) ]) (Array.to_list cols)
             | `Sub (outs, _) -> List.map snd outs)
           sources)
    in
    let rec derivs ~under_agg (p : Plan.pexpr) : deriv list =
      match p with
      | Plan.Const _ | Plan.Agg_outside | Plan.Exec _ -> []
      | Plan.Field i | Plan.Rep_field i ->
        List.map (fun (r, c, agg) -> (r, c, agg || under_agg)) fields.(i)
      | Plan.Agg_ref k ->
        Option.fold ~none:[] ~some:(derivs ~under_agg:true) f.Plan.aggs.(k).Plan.arg
      | Plan.Binop (_, a, b) -> derivs ~under_agg a @ derivs ~under_agg b
      | Plan.Unop (_, a) -> derivs ~under_agg a
      | Plan.Fn (_, args) -> List.concat_map (derivs ~under_agg) args
      | Plan.Case (branches, default) ->
        List.concat_map (fun (c, v) -> derivs ~under_agg c @ derivs ~under_agg v) branches
        @ Option.fold ~none:[] ~some:(derivs ~under_agg) default
    in
    let direct = derivs ~under_agg:false in
    let outs = List.combine f.Plan.columns (List.map direct f.Plan.projs) in
    let aux =
      List.concat_map direct
        (const_preds
        @ List.concat_map (fun (j : Plan.jstep) -> j.Plan.residual) (Array.to_list joins)
        @ f.Plan.group_by @ Option.to_list f.Plan.having)
      @ List.concat_map
          (fun (k, _) ->
            match k with
            | Plan.By_output i -> snd (List.nth outs i)
            | Plan.By_expr p -> direct p
            | Plan.By_null -> [])
          f.Plan.order_by
      @ (match f.Plan.distinct with
        | Plan.D_on keys -> List.concat_map direct keys
        | Plan.D_all | Plan.D_distinct -> [])
    in
    (* Relations in FROM with no reference at all, then the subqueries'
       own auxiliary derivations. *)
    let referenced r =
      List.exists (fun (r', _, _) -> r' = r) aux
      || List.exists (fun (_, ds) -> List.exists (fun (r', _, _) -> r' = r) ds) outs
    in
    let from_aux =
      List.filter_map
        (function
          | `Base (irid, _) when not (referenced irid) -> Some (irid, None, false)
          | `Base _ | `Sub _ -> None)
        sources
    in
    let sub_aux = List.concat_map (function `Sub (_, a) -> a | `Base _ -> []) sources in
    (outs, aux @ from_aux @ sub_aux)

let schema_rows (db : Database.t) (q : Ast.query) : Value.t array list =
  let cat = Database.catalog db in
  let outs, aux = derivations cat (Plan.of_query cat q) in
  let str = function Some c -> Value.Str c | None -> Value.Null in
  let mk ocid (irid, icid, agg) = [| str ocid; Value.Str irid; str icid; Value.Bool agg |] in
  let rows =
    List.concat_map (fun (ocid, ds) -> List.map (mk (Some ocid)) ds) outs
    @ List.map (mk None) aux
  in
  (* The log is a set: dedupe. *)
  Value.Key.dedup Fun.id rows

let schema_gen : generator =
  {
    relation = "schema";
    columns =
      [ ("ocid", Ty.Text); ("irid", Ty.Text); ("icid", Ty.Text); ("agg", Ty.Bool) ];
    rank = 1;
    generate = (fun ctx -> schema_rows ctx.db ctx.query);
  }

(* provenance(ts, otid, irid, itid) ---------------------------------------- *)

let lineage_run (db : Database.t) (q : Ast.query) : Executor.result =
  Database.query_ast ~opts:{ Executor.lineage = true; track_src = false } db q

(* One [(otid, irid, itid)] row per element of each output row's
   lineage, [otid] numbering the rows in output order. *)
let rows_of_lineage (result : Executor.result) : Value.t array list =
  let rows = ref [] in
  List.iteri
    (fun otid (row : Executor.row_out) ->
      List.iter
        (fun (irid, itid) ->
          rows := [| Value.Int otid; Value.Str irid; Value.Int itid |] :: !rows)
        row.Executor.lineage)
    result.Executor.out_rows;
  List.rev !rows

let provenance_rows db q = rows_of_lineage (lineage_run db q)

(* The run's rows are recorded in the context, lineage stripped so it
   is garbage before policy evaluation: the engine answers an admitted
   query that reads no log relation and no clock from them instead of
   running the query a second time. *)
let provenance : generator =
  {
    relation = "provenance";
    columns = [ ("otid", Ty.Int); ("irid", Ty.Text); ("itid", Ty.Int) ];
    rank = 2;
    generate =
      (fun ctx ->
        let run = lineage_run ctx.db ctx.query in
        ctx.lineage_run <-
          Some
            {
              run with
              Executor.out_rows =
                List.map
                  (fun (o : Executor.row_out) -> { o with Executor.lineage = [] })
                  run.Executor.out_rows;
            };
        rows_of_lineage run);
  }

let standard = [ users; schema_gen; provenance ]

(* §6 extensibility: define a new log relation from arbitrary code. *)
let custom ~relation ~columns ~rank ~generate : generator =
  {
    relation;
    columns;
    rank;
    generate = (fun ctx -> Value.Key.dedup Fun.id (generate ctx));
  }
