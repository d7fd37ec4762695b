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

(** A cached build side: a shared scan slot's filtered column batch,
    with its source tids, plus the hash tables joins built over it.
    Exposed abstractly so callers can hold the {!Shared_cache} behind
    shared scans. *)
type build_side

(** Compile a bound plan against the catalog. With [shared], a
    batch-routed base-table scan slot materializes its scan plus
    pushed-down conjuncts through the cache, keyed by a digest of
    (table, access path, conjuncts) and valid per (catalog generation,
    {!Table.ver_mut}) — unless the access path is [Delta] or a
    {!Plan.Exec} leaf (the clock) sits in its key or conjuncts. So a
    scan over an unchanged base relation is materialized once per table
    version, across executions and plans. Tracked runs share too: the
    cached batch carries source tids, relabelled to the reading slot. A
    hash join building on a shared slot keeps its table in the same
    entry, keyed by a digest of its build-side key expressions (unless
    one reads the clock), so the base relation is hashed once per table
    version as well; match order is unchanged. Row-routed subtrees and
    subqueries never share.
    @raise Errors.Sql_error if a scanned table has been dropped. *)
val compile :
  Catalog.t -> ?shared:build_side Shared_cache.t -> Compile.opts -> Plan.query -> Compile.t

(** {1 Batch statistics}

    Cumulative counters for engine stats, [:stats] and the server's
    [STATS] verb. Atomic. *)

(** Batches materialized at runtime (scans and join outputs). A shared
    slot counts its batch when it is materialized, not on a cache hit. *)
val batches_built : int Atomic.t

(** Total rows across those batches (live selection sizes). *)
val batch_rows : int Atomic.t

(** Subtree compilations that fell back to the row path while the
    vectorized executor was requested. *)
val row_fallbacks : int Atomic.t

(** Build-side rows hashed by joins. A join building on a shared slot
    hashes its rows once per table version, not once per execution. *)
val join_build_rows : int Atomic.t

(** Rows-per-batch histogram buckets: [< 16], [< 256], [< 4096],
    [< 65536], [>= 65536]. *)
val hist_snapshot : unit -> int array
