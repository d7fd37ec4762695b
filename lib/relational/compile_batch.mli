(** Batch-at-a-time (vectorized) compiler.

    Lowers batch-routed subtrees ({!Optimizer.batch_route}) to columnar
    operators — zero-copy scans over a table's columnar mirror,
    selection-vector predicate passes, Value-keyed hash joins, columnar
    aggregate accumulation — while reusing the row compiler's finish
    closures, so verdicts, output order, messages and source tids are
    bit-identical to {!Compile.compile}. Subtrees the router keeps on
    the row path (lineage, aggregated source-tracking, group-context
    expressions in batch clauses) fall back to the row compiler
    wholesale. Shared scans are decided here, per scan slot, while a
    plan compiles (see {!compile}). *)

(** A column batch: backing column arrays plus a selection vector.
    Exposed abstractly so callers can hold the batch-typed
    {!Shared_cache} behind shared scans. *)
type batch

(** Compile a bound plan against the catalog. With [shared], a
    batch-routed base-table scan slot materializes its scan plus
    pushed-down conjuncts through the cache, keyed by a digest of
    (table, access path, conjuncts) and valid per (catalog generation,
    {!Table.ver_mut}) — unless the access path is [Delta], the
    plan tracks source tids, or a {!Plan.Exec} leaf (the clock) sits in
    its key or conjuncts. Row-routed subtrees and subqueries never share.
    @raise Errors.Sql_error if a scanned table has been dropped. *)
val compile :
  Catalog.t -> ?shared:batch Shared_cache.t -> Compile.opts -> Plan.query -> Compile.t

(** {1 Batch statistics}

    Cumulative counters for engine stats, [:stats] and the server's
    [STATS] verb. Atomic. *)

(** Batches materialized at runtime (scans and join outputs). *)
val batches_built : int Atomic.t

(** Total rows across those batches (live selection sizes). *)
val batch_rows : int Atomic.t

(** Subtree compilations that fell back to the row path while the
    vectorized executor was requested. *)
val row_fallbacks : int Atomic.t

(** Rows-per-batch histogram buckets: [< 16], [< 256], [< 4096],
    [< 65536], [>= 65536]. *)
val hist_snapshot : unit -> int array
