(** The catalog: a named collection of tables.

    One catalog instance is "the database" of the paper's Eq. (1): it
    holds both ordinary database relations and — when driven by the
    DataLawyer engine — the usage-log relations. Log relations are tagged
    so that policy analysis can distinguish the log [L] from the database
    [D] (the distinction matters for witness computation and interleaved
    evaluation). *)

type table_kind =
  | Base  (** ordinary database relation *)
  | Log   (** usage-log relation, populated by a log-generating function *)
  | System  (** system relation, e.g. [clock] *)

type entry = { table : Table.t; kind : table_kind }

type t = {
  tables : (string, entry) Hashtbl.t;
  (* index name (lowercased) -> owning table key; index names are global
     so DROP INDEX needs no table qualifier. *)
  index_owner : (string, string) Hashtbl.t;
  mutable generation : int;
}

let create () =
  { tables = Hashtbl.create 16; index_owner = Hashtbl.create 16; generation = 0 }

let generation t = t.generation

let touch t = t.generation <- t.generation + 1

let key name = String.lowercase_ascii name

let mem t name = Hashtbl.mem t.tables (key name)

let add ?(kind = Base) t table =
  let k = key (Table.name table) in
  if Hashtbl.mem t.tables k then
    Errors.catalog_error "table %s already exists" (Table.name table);
  Hashtbl.replace t.tables k { table; kind };
  touch t

let create_table ?(kind = Base) t ~name ~schema =
  let table = Table.create ~name ~schema in
  add ~kind t table;
  table

let drop t name =
  let k = key name in
  (match Hashtbl.find_opt t.tables k with
  | None -> Errors.catalog_error "no such table: %s" name
  | Some e ->
    List.iter
      (fun ix -> Hashtbl.remove t.index_owner (key (Index.name ix)))
      (Table.indexes e.table));
  Hashtbl.remove t.tables k;
  touch t

let find_opt t name =
  Option.map (fun e -> e.table) (Hashtbl.find_opt t.tables (key name))

let find t name =
  match find_opt t name with
  | Some table -> table
  | None -> Errors.catalog_error "no such table: %s" name

let kind_of t name =
  match Hashtbl.find_opt t.tables (key name) with
  | Some e -> Some e.kind
  | None -> None

let is_log t name = kind_of t name = Some Log

(* The one check of every SQL write path: DML, DROP TABLE and the CSV
   import write base relations only. The engine alone writes the usage
   log and the clock, through {!Table}. *)
let writable t name =
  match Hashtbl.find_opt t.tables (key name) with
  | None -> None
  | Some { table; kind = Base } -> Some table
  | Some { table; kind } ->
    Errors.catalog_error "%s is a %s relation: only the DataLawyer engine writes it"
      (Table.name table) (if kind = Log then "usage-log" else "system")

let table_names t =
  Hashtbl.fold (fun _ e acc -> Table.name e.table :: acc) t.tables []
  |> List.sort String.compare

let log_table_names t =
  Hashtbl.fold
    (fun _ e acc -> if e.kind = Log then Table.name e.table :: acc else acc)
    t.tables []
  |> List.sort String.compare

(* Indexes ----------------------------------------------------------------- *)

let mem_index t iname = Hashtbl.mem t.index_owner (key iname)

let create_index t ~name ~table ~column ~kind =
  if mem_index t name then Errors.catalog_error "index %s already exists" name;
  let tbl = find t table in
  let ix = Table.create_index tbl ~name ~column ~kind in
  Hashtbl.replace t.index_owner (key name) (key table);
  (* Compiled plans may now have a better access path (or, for a rebuilt
     plan, capture the index handle) — invalidate the prepared cache. *)
  touch t;
  ix

let drop_index ?(if_exists = false) t iname =
  match Hashtbl.find_opt t.index_owner (key iname) with
  | None ->
    if not if_exists then Errors.catalog_error "no such index: %s" iname
  | Some tkey ->
    (match Hashtbl.find_opt t.tables tkey with
    | Some e -> Table.drop_index e.table iname
    | None -> ());
    Hashtbl.remove t.index_owner (key iname);
    touch t
