(** The usage log [L] of §3.2.

    The log is a set of relations, each with a leading [ts] column, plus
    the single-row [clock] relation. For each log relation the system
    holds a {e log-generating function} [fi(q, D)] computing the feature
    tuples a query contributes; the engine prepends the current timestamp
    and appends them tentatively (Eq. 1).

    The three standard relations of the paper's prototype (Example 3.3)
    are provided — [users(ts, uid)], [schema(ts, ocid, irid, icid, agg)],
    [provenance(ts, otid, irid, itid)] — and arbitrary additional
    relations can be registered with {!custom} (§6 extensibility). *)

open Relational

(** Everything a log-generating function may inspect. [extra] carries
    application-specific context (device, system load, ...) for custom
    generators. A context lives for one submission. *)
type query_ctx = {
  uid : int;
  time : int;
  query : Ast.query;
  db : Database.t;
  extra : (string * Value.t) list;
  mutable lineage_run : Executor.result option;
      (** the submission's memo of {!provenance}'s run: [None] until the
          generator runs, then the rows of its lineage-tracking run of
          [query] over the database as it stood, lineage stripped. The
          engine answers an admitted query that reads no log relation
          and no clock from it instead of running the query again (base
          tables do not change inside an admission, and the row and
          vectorized executors agree row for row). Create contexts with
          [None]. *)
}

type generator = {
  relation : string;  (** log relation name *)
  columns : (string * Ty.t) list;  (** schema {e excluding} the leading ts *)
  rank : int;
      (** interleaved-evaluation order (§4.2.1): cheaper generators first *)
  generate : query_ctx -> Value.t array list;
      (** the feature set [Si = fi(q, D)], without the ts column; a set —
          no two rows equal under {!Value.Key} — since the engine appends
          it to the log as is *)
}

(** Name of the single-row clock relation (["clock"]). *)
val clock_relation : string

(** Name of the timestamp column every log relation leads with (["ts"]).
    Submissions append all their increments at one clock tick, so two
    log rows with equal timestamps come from the same submission — the
    fact the relevance index's timestamp-join analysis rests on. *)
val time_column : string

(** Create the generator's (empty) log relation in the catalog. *)
val install_relation : Database.t -> generator -> unit

(** Create the clock relation, initialized to time 0. *)
val install_clock : Database.t -> unit

(** Set the clock's single row: the clock's only writer (SQL may not
    write it, {!Relational.Catalog.writable}). *)
val set_clock : Database.t -> int -> unit

(** Read the clock.
    @raise Errors.Sql_error if the clock does not hold exactly one row. *)
val current_time : Database.t -> int

(** [users(ts, uid)] — who issued each query. Rank 0 (cheapest). *)
val users : generator

(** [schema(ts, ocid, irid, icid, agg)] — static analysis of each query,
    read off its bound plan ({!Relational.Plan.of_query}): which output
    column derives from which input relation/column (the catalog's
    names, however the query spells them) and whether an aggregate was
    involved. Beyond the paper's Example 3.3, columns referenced only in
    WHERE/GROUP BY/HAVING/ORDER BY and relations merely listed in FROM
    are also recorded (with NULL [ocid], and NULL [icid] for a relation)
    so that join-restriction policies see every relation a query
    touches; an ORDER BY key is recorded as the column it sorts by.
    Rank 1. *)
val schema_gen : generator

(** [provenance(ts, otid, irid, itid)] — full lineage of the query's
    output, computed by executing the query with lineage tracking (the
    Perm-style [f_Provenance]); [otid] numbers the output rows in order,
    and each row's lineage lists its input tuples in (relation, tid)
    order, once each. Rank 2 (most expensive). The run is recorded in
    the context's [lineage_run], so when this generator runs the
    admitted query costs one execution, not two. *)
val provenance : generator

(** The raw analysis behind {!schema_gen}.
    @raise Errors.Sql_error if the query fails to bind. *)
val schema_rows : Database.t -> Ast.query -> Value.t array list

(** The raw computation behind {!provenance}. *)
val provenance_rows : Database.t -> Ast.query -> Value.t array list

(** [users; schema_gen; provenance]. *)
val standard : generator list

(** Define a new log relation from arbitrary code (§6); duplicate rows
    [generate] returns are dropped. *)
val custom :
  relation:string ->
  columns:(string * Ty.t) list ->
  rank:int ->
  generate:(query_ctx -> Value.t array list) ->
  generator
