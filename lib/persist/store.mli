(** A durable usage-log store: one directory, one live generation.

    The store pairs the current {!Wal} with the snapshot it extends and
    the policy {!Catalog_segment} that snapshot names, and handles
    checkpoint rotation: {!checkpoint} atomically writes
    [snapshot-<g+1>], starts an empty [wal-<g+1>] and deletes the
    generation-[g] files — truncating exactly the WAL prefix the new
    snapshot supersedes. The catalog is rewritten (as [catalog-<g+1>],
    before the snapshot that names it) only when a policy record was
    journaled since the last catalog write, or when none exists yet;
    otherwise the new snapshot names the old catalog, so a checkpoint
    costs what the log costs, not what the policy set costs.

    Compaction is journaled, not checkpointed: a commit's record names
    the positions of the rows it expired. The store keeps the sizes the
    checkpoint rule needs — the snapshot's, the WAL's (buffered records
    included) and {!live_bytes}, what a snapshot written now would take —
    so its owner (the core library's [Durable]) checkpoints once
    {!reclaimable_bytes} pass a fraction of the live log, when the
    persistence scope changes, when a log relation changed outside a
    commit, and when the WAL grows past a length bound. *)

type fsync_policy = Wal.fsync_policy = Always | Interval of int | Never

type t

(** Open (creating the directory if needed) and recover. Returns the
    recovered state to install — [None] for a brand-new store.
    @raise Recovery.Recovery_error on corruption. *)
val open_dir : ?fsync:fsync_policy -> string -> t * Recovery.recovered option

val dir : t -> string
val fsync_policy : t -> fsync_policy

(** Current checkpoint generation: bumps exactly once per {!checkpoint}. *)
val generation : t -> int

(** Records in the current WAL (replayed at open + appended since). *)
val wal_records : t -> int

(** fsync calls issued over the store's lifetime (across WAL
    rotations) — the group-commit currency: one fsync may make many
    commit records durable at once. Checkpoints count too: two per
    file they write (the file's and its directory's). *)
val fsyncs : t -> int

(** Journal one accepted submission, as one atomic record: its clock,
    per relation the committed rows it expired (each with its position
    before the deletion, ascending) and every log relation's retained
    increment. *)
val log_commit :
  t ->
  clock:int ->
  expired:(string * (int * Relational.Value.t array) list) list ->
  increments:(string * Relational.Value.t array list) list ->
  unit

(** Bytes a snapshot of the journaled state would take now: the live
    snapshot's size plus the {!Codec.row_size} of every row journaled
    since, minus that of every row journaled as expired. Exact while
    the persistence scope stands (a scope change checkpoints). *)
val live_bytes : t -> int

(** Bytes a checkpoint would reclaim: the snapshot and the WAL
    (buffered records included) less {!live_bytes}. *)
val reclaimable_bytes : t -> int

val log_add_policy : t -> Record.policy_rec -> unit
val log_remove_policy : t -> string -> unit

(** Write a new snapshot (and, if the policy set changed since the
    last one, a new catalog from [state.policies]) and rotate
    generations. Buffered WAL records are subsumed by the snapshot and
    discarded. *)
val checkpoint : t -> Snapshot.state -> unit

(** Drain the group-commit buffer to disk. Fsyncs unless the policy is
    {!Never}; [~sync:true] forces the fsync even then — the policy
    server's group commit runs with {!Never} buffering and one forced
    sync per admission batch. *)
val flush : ?sync:bool -> t -> unit

(** Bytes currently on disk: the live generation's snapshot and WAL plus
    the catalog the snapshot names. *)
val disk_bytes : t -> int

(** Flush, fsync and release the WAL descriptor. The store must not be
    used afterwards. *)
val close : t -> unit
