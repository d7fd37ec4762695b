(** The catalog: a named collection of tables.

    One catalog instance is "the database" of the paper's Eq. (1): it
    holds ordinary database relations and, when driven by the DataLawyer
    engine, the usage-log relations. Log relations are tagged so policy
    analysis can distinguish the log [L] from the database [D]. *)

type table_kind =
  | Base  (** ordinary database relation *)
  | Log  (** usage-log relation, populated by a log-generating function *)
  | System  (** system relation, e.g. [clock] *)

type t

val create : unit -> t

(** Monotone shape counter: bumped on every {!add}/{!drop} (and by
    {!touch}). Compiled plans capture table handles, so anything caching
    them must key on this; the engine also bumps it explicitly on
    configuration changes. *)
val generation : t -> int

(** Bump {!generation} without structural change — invalidates any plans
    cached against this catalog. *)
val touch : t -> unit

(** Case-insensitive membership test. *)
val mem : t -> string -> bool

(** Register an existing table.
    @raise Errors.Sql_error if the name is taken. *)
val add : ?kind:table_kind -> t -> Table.t -> unit

(** Create and register a table. *)
val create_table : ?kind:table_kind -> t -> name:string -> schema:Schema.t -> Table.t

(** @raise Errors.Sql_error if absent. *)
val drop : t -> string -> unit

val find_opt : t -> string -> Table.t option

(** @raise Errors.Sql_error if absent. *)
val find : t -> string -> Table.t

val kind_of : t -> string -> table_kind option

(** Is the named relation a usage-log relation? *)
val is_log : t -> string -> bool

(** The table SQL may write under this name: [None] if absent.
    @raise Errors.Sql_error naming the relation if it is a [Log] or
      [System] relation, which only the engine writes. *)
val writable : t -> string -> Table.t option

(** All table names, sorted. *)
val table_names : t -> string list

(** Names of [Log]-kind tables, sorted. *)
val log_table_names : t -> string list

(** {1 Index manager}

    Index names are global (no table qualifier on [DROP INDEX]). Creating
    or dropping an index bumps {!generation}, so prepared plans compiled
    against the old access paths are invalidated. *)

(** Case-insensitive: is there an index with this name anywhere? *)
val mem_index : t -> string -> bool

(** Create an index on [table].[column] and build it from current rows.
    @raise Errors.Sql_error if the name is taken, the table is absent or
    the column unknown. *)
val create_index :
  t -> name:string -> table:string -> column:string -> kind:Index.kind -> Index.t

(** Drop an index by name. @raise Errors.Sql_error if absent, unless
    [if_exists]. *)
val drop_index : ?if_exists:bool -> t -> string -> unit
