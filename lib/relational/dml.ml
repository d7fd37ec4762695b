(** Data-manipulation statements: INSERT, DELETE, UPDATE, CREATE/DROP. *)

type outcome =
  | Rows of Executor.result  (** result of a query *)
  | Affected of int  (** row count of a DML statement *)
  | Created of string
  | Dropped of string

(* DML expressions bind like a SELECT's WHERE — through {!Plan.lower},
   so name errors surface before any row is touched — and run through
   the one evaluator, {!Compile.compile_expr}. *)
let compile_in scope e = Compile.compile_expr (Plan.lower scope e)

(* Reorder/pad INSERT values according to an explicit column list. *)
let arrange_cells table columns exprs =
  let schema = Table.schema table in
  let values =
    List.map (fun e -> compile_in Plan.empty_scope e [||] [||]) exprs
  in
  match columns with
  | None ->
    if List.length values <> Schema.arity schema then
      Errors.runtime_error "INSERT into %s: expected %d values, got %d"
        (Table.name table) (Schema.arity schema) (List.length values);
    Array.of_list values
  | Some cols ->
    if List.length cols <> List.length values then
      Errors.runtime_error "INSERT into %s: %d columns but %d values"
        (Table.name table) (List.length cols) (List.length values);
    let cells = Array.make (Schema.arity schema) Value.Null in
    List.iter2
      (fun col v ->
        match Schema.find_index schema col with
        | Some i -> cells.(i) <- v
        | None ->
          Errors.bind_error "no column %S in table %s" col (Table.name table))
      cols values;
    cells

(* A DELETE / UPDATE row scope: the table's columns under its name. *)
let row_scope table =
  Plan.table_scope (Table.name table) (Schema.column_names (Table.schema table))

let row_pred table = function
  | None -> fun _ -> true
  | Some w ->
    let c = compile_in (row_scope table) w in
    fun row -> Value.to_bool (c (Row.cells row) [||])

(* A base table an INSERT, DELETE or UPDATE may write ({!Catalog.writable}). *)
let target cat table =
  match Catalog.writable cat table with
  | Some t -> t
  | None -> Errors.catalog_error "no such table: %s" table

let exec (cat : Catalog.t) (stmt : Ast.stmt) : outcome =
  match stmt with
  | Ast.Query q -> Rows (Executor.run cat q)
  | Ast.Create_table { table; columns } ->
    let schema = Schema.make columns in
    ignore (Catalog.create_table cat ~name:table ~schema);
    Created table
  | Ast.Drop_table { table; if_exists } ->
    (match Catalog.writable cat table with
    | Some _ -> Catalog.drop cat table
    | None -> if not if_exists then Errors.catalog_error "no such table: %s" table);
    Dropped table
  | Ast.Create_index { index; table; column; sorted } ->
    let kind = if sorted then Index.Sorted else Index.Hash in
    ignore (Catalog.create_index cat ~name:index ~table ~column ~kind);
    Created index
  | Ast.Drop_index { index; if_exists } ->
    Catalog.drop_index ~if_exists cat index;
    Dropped index
  | Ast.Insert { table; columns; rows } ->
    let t = target cat table in
    List.iter (fun exprs -> ignore (Table.insert t (arrange_cells t columns exprs))) rows;
    Affected (List.length rows)
  | Ast.Delete { table; where } ->
    let t = target cat table in
    Affected (Table.delete_where t (row_pred t where))
  | Ast.Update { table; sets; where } ->
    let t = target cat table in
    let schema = Table.schema t in
    let pred = row_pred t where in
    let sets =
      List.map
        (fun (col, e) ->
          match Schema.find_index schema col with
          | Some i -> (i, compile_in (row_scope t) e)
          | None -> Errors.bind_error "no column %S in %s" col table)
        sets
    in
    let n =
      Table.update_where t pred (fun cells ->
          let out = Array.copy cells in
          List.iter (fun (i, c) -> out.(i) <- c cells [||]) sets;
          out)
    in
    Affected n
