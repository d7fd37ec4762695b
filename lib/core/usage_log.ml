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
    for custom generators. *)
type query_ctx = {
  uid : int;
  time : int;
  query : Ast.query;
  db : Database.t;
  extra : (string * Value.t) list;
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

(* Static analysis of a query: which output column derives from which
   input relation/column, and whether an aggregate was involved. Beyond
   the paper's Example 3.3 we additionally record, with a NULL ocid,
   columns referenced only in WHERE/GROUP BY/HAVING and relations merely
   listed in FROM, so that join-restriction policies (P1, P2 of Table 1)
   see every relation a query touches. *)
module Schema_analysis = struct
  (* A derivation: (input relation, input column option, used under
     aggregate). *)
  type deriv = string * string option * bool

  (* Analysis of a query: output column names, each with its derivations,
     plus auxiliary derivations (non-projected references). *)
  type t = { out_cols : (string * deriv list) list; aux : deriv list }

  let rec analyze (cat : Catalog.t) (q : Ast.query) : t =
    match q with
    | Ast.Union { left; right; _ } ->
      let l = analyze cat left and r = analyze cat right in
      let out_cols =
        List.map2
          (fun (name, dl) (_, dr) -> (name, dl @ dr))
          l.out_cols r.out_cols
      in
      { out_cols; aux = l.aux @ r.aux }
    | Ast.Select s ->
      (* Resolve each FROM item to either a base table or a nested
         analysis. *)
      let sources =
        List.map
          (fun fi ->
            let alias = String.lowercase_ascii (Ast.from_item_alias fi) in
            match fi with
            | Ast.From_table { name; _ } ->
              let table = Catalog.find cat name in
              let cols = Schema.column_names (Table.schema table) in
              (alias, `Base (Table.name table, cols))
            | Ast.From_subquery { query; _ } -> (alias, `Sub (analyze cat query)))
          s.from
      in
      let cols_of = function
        | `Base (_, cols) -> cols
        | `Sub a -> List.map fst a.out_cols
      in
      (* Resolve a column reference to its source derivations. *)
      let resolve_ref ~under_agg q name : deriv list =
        let lname = String.lowercase_ascii name in
        let matching =
          List.filter
            (fun (alias, src) ->
              (match q with
              | Some q -> String.lowercase_ascii q = alias
              | None -> true)
              && List.exists
                   (fun c -> String.lowercase_ascii c = lname)
                   (cols_of src))
            sources
        in
        match matching with
        | [] -> []  (* unresolvable: tolerated in static analysis *)
        | (_, src) :: _ -> (
          match src with
          | `Base (tname, _) -> [ (tname, Some name, under_agg) ]
          | `Sub a -> (
            match
              List.find_opt
                (fun (c, _) -> String.lowercase_ascii c = lname)
                a.out_cols
            with
            | Some (_, derivs) ->
              List.map (fun (r, c, agg) -> (r, c, agg || under_agg)) derivs
            | None -> []))
      in
      let rec derivs_of_expr ~under_agg (e : Ast.expr) : deriv list =
        match e with
        | Ast.Lit _ -> []
        | Ast.Col (q, name) -> resolve_ref ~under_agg q name
        | Ast.Binop (_, a, b) ->
          derivs_of_expr ~under_agg a @ derivs_of_expr ~under_agg b
        | Ast.Unop (_, a) -> derivs_of_expr ~under_agg a
        | Ast.Agg_call (_, _, arg) -> (
          match arg with
          | None -> []
          | Some a -> derivs_of_expr ~under_agg:true a)
        | Ast.Fn_call (_, args) ->
          List.concat_map (derivs_of_expr ~under_agg) args
        | Ast.Case (branches, default) ->
          List.concat_map
            (fun (c, v) ->
              derivs_of_expr ~under_agg c @ derivs_of_expr ~under_agg v)
            branches
          @ (match default with
            | Some d -> derivs_of_expr ~under_agg d
            | None -> [])
      in
      (* Expand the select list into named output columns. *)
      let expand_star src_filter =
        List.concat_map
          (fun (alias, src) ->
            if src_filter alias then
              List.map
                (fun c -> (c, resolve_ref ~under_agg:false (Some alias) c))
                (cols_of src)
            else [])
          sources
      in
      let out_cols =
        List.concat_map
          (function
            | Ast.Star -> expand_star (fun _ -> true)
            | Ast.Table_star t ->
              expand_star (fun a -> a = String.lowercase_ascii t)
            | Ast.Sel_expr (e, alias) ->
              let name =
                match alias, e with
                | Some a, _ -> a
                | None, Ast.Col (_, c) -> c
                | None, Ast.Agg_call (agg, _, _) ->
                  String.lowercase_ascii (Sql_print.agg_str agg)
                | None, _ -> "?column?"
              in
              [ (name, derivs_of_expr ~under_agg:false e) ])
          s.items
      in
      (* Non-projected references. *)
      let aux_exprs =
        Option.to_list s.where @ s.group_by @ Option.to_list s.having
        @ List.map fst s.order_by
      in
      let aux = List.concat_map (derivs_of_expr ~under_agg:false) aux_exprs in
      (* Relations in FROM with no reference at all. *)
      let referenced r =
        List.exists (fun (r', _, _) -> r' = r) aux
        || List.exists (fun (_, ds) -> List.exists (fun (r', _, _) -> r' = r) ds) out_cols
      in
      let from_aux =
        List.filter_map
          (fun (_, src) ->
            match src with
            | `Base (tname, _) when not (referenced tname) -> Some (tname, None, false)
            | `Base _ | `Sub _ -> None)
          sources
      in
      let sub_aux =
        List.concat_map
          (fun (_, src) -> match src with `Sub a -> a.aux | `Base _ -> [])
          sources
      in
      { out_cols; aux = aux @ from_aux @ sub_aux }
end

let schema_rows (db : Database.t) (q : Ast.query) : Value.t array list =
  let a = Schema_analysis.analyze (Database.catalog db) q in
  let mk ocid (irid, icid, agg) =
    [|
      (match ocid with Some c -> Value.Str c | None -> Value.Null);
      Value.Str irid;
      (match icid with Some c -> Value.Str c | None -> Value.Null);
      Value.Bool agg;
    |]
  in
  let rows =
    List.concat_map
      (fun (ocid, derivs) -> List.map (mk (Some ocid)) derivs)
      a.Schema_analysis.out_cols
    @ List.map (mk None) a.Schema_analysis.aux
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

let provenance_rows (db : Database.t) (q : Ast.query) : Value.t array list =
  let result =
    Database.query_ast ~opts:{ Executor.lineage = true; track_src = false } db q
  in
  let rows = ref [] in
  List.iteri
    (fun otid (row : Executor.row_out) ->
      List.iter
        (fun (irid, itid) ->
          rows := [| Value.Int otid; Value.Str irid; Value.Int itid |] :: !rows)
        row.Executor.lineage)
    result.Executor.out_rows;
  List.rev !rows

let provenance : generator =
  {
    relation = "provenance";
    columns = [ ("otid", Ty.Int); ("irid", Ty.Text); ("itid", Ty.Int) ];
    rank = 2;
    generate = (fun ctx -> provenance_rows ctx.db ctx.query);
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
