(** Crash recovery: latest valid snapshot + its catalog + WAL tail replay.

    A persistence directory holds at most one live generation [g]:
    [snapshot-<g>.dls] (absent for generation 0 before the first
    checkpoint), the [catalog-<c>.dlc] it names ([c <= g]; the
    registered policies) and [wal-<g>.dlw] with the records since that
    snapshot. Recovery loads the snapshot, then the catalog it names,
    replays every whole WAL record on top (a commit deletes its expired
    positions from each relation, then appends its increment), truncates a torn final record
    (dropping exactly that commit), and surfaces any checksum or format
    violation — a missing or corrupt catalog and an old snapshot version
    included — as {!Recovery_error}, never as silently missing state.
    Stale lower-generation files, catalogs the live snapshot does not
    name (an orphan from a crash mid-checkpoint included) and leftover
    [.tmp] files are removed. *)

exception Recovery_error of string

val error : ('a, unit, string, 'b) format4 -> 'a

val snapshot_file : int -> string
val wal_file : int -> string
val catalog_file : int -> string

type recovered = {
  generation : int;
  catalog : int option;  (** catalog generation the snapshot names *)
  state : Snapshot.state;  (** snapshot + catalog with the WAL tail applied *)
  wal_records : int;  (** whole records replayed from the WAL *)
  policy_records : int;  (** of which add or remove a policy *)
  row_bytes : int;
      (** {!Codec.row_size} bytes of the rows the replayed records
          appended, minus those of the rows they deleted *)
  torn_dropped : bool;  (** a torn final record was truncated away *)
}

(** Recover from [dir]; [None] when the directory holds no generation at
    all (a fresh store).
    @raise Recovery_error on corruption. *)
val run : dir:string -> recovered option
