(** Heap tables with maintained secondary indexes.

    Rows live in insertion order in a growable vector; every row gets a
    monotonically increasing tuple id. Tables support appends (with type
    checking against the schema), predicate/tid-set deletion (DML and log
    compaction) and savepoints.

    {b Invariant: rows are sorted by tid.} Tuple ids are handed out by a
    monotone counter and rows are only ever appended, so the heap vector
    is tid-ascending at all times. {!find_by_tid} (binary search) and the
    index access paths (which fetch tid-sorted probe results to reproduce
    heap scan order) both rely on this. Any future bulk path that
    constructs rows directly must preserve it; {!insert} asserts
    monotonicity when {!debug_checks} is set.

    A savepoint captures the current row count; since mutation between a
    savepoint and its resolution is append-only in the DataLawyer engine
    (tentative log increments), rollback is a truncation. Deletions and
    updates are rejected while a savepoint is outstanding.

    Columns may carry declared secondary indexes ({!Index}): hash for
    equality, sorted for ranges. Every mutation path — [insert],
    [bulk_load], [delete_where], [retain_tids], [drop_tids],
    [update_where], [rollback_to], [clear] — keeps them exactly
    consistent with the heap. *)

type t

(** When set, {!insert} asserts the tid-monotonicity invariant on every
    append, and mutations of a {!freeze}-marked table fail. Enabled by
    the test suite; off by default. *)
val debug_checks : bool ref

(** Mark the table as frozen: while set (and {!debug_checks} is on),
    every mutating operation — [insert], [bulk_load], [delete_where],
    [retain_tids], [drop_tids], [update_where], [rollback_to], [clear] —
    raises. The engine freezes tables for the span of a parallel
    evaluation batch, turning a would-be cross-domain data race into a
    deterministic failure under the test suite. *)
val freeze : t -> unit

(** Clear the {!freeze} mark. *)
val thaw : t -> unit

val create : name:string -> schema:Schema.t -> t
val name : t -> string
val schema : t -> Schema.t
val row_count : t -> int

(** Insert a row and return its tuple id.
    @raise Errors.Sql_error on arity or cell-type mismatch. *)
val insert : t -> Value.t array -> int

val iter : (Row.t -> unit) -> t -> unit
val fold : ('acc -> Row.t -> 'acc) -> 'acc -> t -> 'acc
val rows : t -> Row.t list

(** The last row (the highest tid), if any. *)
val last : t -> Row.t option

(** Rows in insertion order, produced lazily (snapshot serialization
    iterates large log relations without materializing a list). *)
val to_seq : t -> Row.t Seq.t

(** Append many rows (recovery bulk load); each row is type-checked like
    {!insert} and all indexes are maintained.
    @raise Errors.Sql_error inside a savepoint. *)
val bulk_load : t -> Value.t array list -> unit

(** Binary search by tuple id (rows are sorted by tid — see the module
    invariant above). *)
val find_by_tid : t -> int -> Row.t option

(** {1 Secondary indexes} *)

(** Declared indexes, in creation order. *)
val indexes : t -> Index.t list

(** Find an index by (case-insensitive) name. *)
val find_index : t -> string -> Index.t option

(** Indexes declared on the given column position. *)
val index_on : t -> column:int -> Index.t list

(** Declare an index on a column (by name) and build it from the current
    rows. Returns the new index.
    @raise Errors.Sql_error if the name is taken or the column unknown. *)
val create_index : t -> name:string -> column:string -> kind:Index.kind -> Index.t

(** Remove an index by name. @raise Errors.Sql_error if absent. *)
val drop_index : t -> string -> unit

(** Rows whose indexed cell is {!Value.equal} to the probe value, in tid
    (= heap scan) order. NULL-probe gating is the caller's concern. *)
val index_lookup : t -> Index.t -> Value.t -> Row.t list

(** Rows whose indexed cell lies within the bounds (see {!Index.range}),
    in tid order. @raise Errors.Sql_error on a hash index. *)
val index_range :
  t -> Index.t -> ?lo:Index.bound -> ?hi:Index.bound -> unit -> Row.t list

(** Tid-only variant of {!index_lookup}: the same tids in the same
    order (ascending, deduplicated), without fetching rows. The batch
    executor maps these to columnar-mirror positions instead of
    materializing rows. *)
val index_lookup_tids : t -> Index.t -> Value.t -> int array

(** {1 Columnar mirror}

    Opt-in decomposed storage for the vectorized executor ({!Column}):
    per-column value vectors plus a tid vector, kept exactly consistent
    with the heap by the same mutation hooks that maintain indexes.
    Batch scans borrow its backing arrays without copying. *)

(** Build (or return) the table's columnar mirror. Subsequent mutations
    keep it synchronized. *)
val enable_columnar : t -> Column.t

(** The columnar mirror, when {!enable_columnar} has been called. *)
val columnar : t -> Column.t option

(** {1 Deletion and update} *)

(** Delete all rows whose tid is {e not} in the given set; returns the
    removed rows, each with its position in the heap before the deletion
    (its rank in scan order), by ascending position. Used by log
    compaction's delete phase, whose WAL record names the positions.
    @raise Errors.Sql_error inside a savepoint. *)
val retain_tids : t -> (int, unit) Hashtbl.t -> (int * Row.t) list

(** Delete the rows whose tid is in the given set; returns the removed
    rows by position, as {!retain_tids} does. The complement of
    {!retain_tids}, with the same version accounting (only {!ver_mut}):
    log compaction expires tuples with it.
    @raise Errors.Sql_error inside a savepoint. *)
val drop_tids : t -> (int, unit) Hashtbl.t -> (int * Row.t) list

(** Delete rows matching the predicate; returns the number removed.
    @raise Errors.Sql_error inside a savepoint. *)
val delete_where : t -> (Row.t -> bool) -> int

(** Remove every row (index definitions survive, their entries drop).
    @raise Errors.Sql_error inside a savepoint. *)
val clear : t -> unit

(** In-place update of matching rows; the callback receives the old cells
    and returns the new ones (type-checked). Returns the match count.
    @raise Errors.Sql_error inside a savepoint. *)
val update_where : t -> (Row.t -> bool) -> (Value.t array -> Value.t array) -> int

type savepoint

(** Open a savepoint; until it is released or rolled back, only appends
    are allowed. *)
val savepoint : t -> savepoint

(** Truncate back to the savepoint, discarding rows appended since.
    Also restores the tid counter to its savepoint value, so the tids a
    table hands out are independent of discarded tentative appends. *)
val rollback_to : t -> savepoint -> unit

(** Keep the rows appended since the savepoint and close it. *)
val release : t -> savepoint -> unit

(** The tid the first row appended since the savepoint gets: the rows at
    or above it are exactly those appended since. *)
val savepoint_tid : savepoint -> int

(** Fold over the rows appended since the savepoint without building a
    list. *)
val fold_since : ('acc -> Row.t -> 'acc) -> 'acc -> t -> savepoint -> 'acc

(** {1 Delta watermark}

    Support for the engine's incremental policy evaluation: every commit
    marks each log relation's watermark when it records the committed
    state, over which acceptance proved every policy empty; rows
    appended later (which always carry larger tids — see the module
    invariant) form the delta the next evaluation joins against the
    indexed state. {!ver_mut} tells whether a base relation changed
    since that record. A log relation changes only through the engine
    (SQL may not write it, {!Catalog.writable}): by appends above its
    watermark, rollback to a savepoint and compaction. *)

(** Current watermark tid (0 until {!mark_delta_base} is first called). *)
val delta_base : t -> int

(** Set the watermark to the next tid to be handed out: every row
    currently in the table is below it, every future append above. *)
val mark_delta_base : t -> unit

(** Bumped by every mutation ([insert], [bulk_load], [delete_where],
    [retain_tids], [drop_tids], [update_where], [rollback_to], [clear]). *)
val ver_mut : t -> int

(** Fold over the delta — the rows with tid >= {!delta_base}, in tid
    order — without touching the rest of the heap (binary lower bound,
    then a tail walk). *)
val fold_delta : ('acc -> Row.t -> 'acc) -> 'acc -> t -> 'acc

val pp : Format.formatter -> t -> unit
