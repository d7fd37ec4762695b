(** The commit of an accepted submission: log compaction (Algorithm 2,
    Lemmas 4.1–4.3, §4.1.2) over its tentative increments, and the one
    record of the committed state. A full mark runs the witnesses over
    the whole log and records the survivors' deadlines and each
    distinct-value witness's representatives; while the committed state
    has moved only by increments since, a commit marks only its
    increment (one tick's rows), moves the representatives it replaces
    and expires the committed tuples whose deadline came. The expired
    rows are returned by position, so
    one WAL record describes the commit; whether it is journaled or
    checkpointed is {!Durable}'s decision.

    Every commit ends by recording the catalog generation and every
    table's row count and {!Table.ver_mut}, and by advancing every log
    relation's delta watermark. Both questions of
    the form "what changed since the last commit" read that record: the
    accept proof ({!covers}) and the incremental mark's test. *)

open Relational

(** Deadlines, the committed-state record, and the mark counters. *)
type t

val create : Database.t -> Prepared.t -> t

(** Forget the deadlines and the committed-state record (the plan
    changed). The only place that clears the record. *)
val reset : t -> unit

(** Whether a commit has recorded the committed state since the last
    {!reset}. *)
val recorded : t -> bool

(** The accept proof: acceptance proved every active policy empty over
    a superset of the recorded state. Does that still cover a policy
    reading [deps]? It does while the catalog generation is unchanged
    and every dependency other than a log relation is untouched
    ({!Table.ver_mut}). A log dependency needs no test: only the engine
    writes it ({!Catalog.writable}), so it has only gained
    rows above its watermark or lost rows to compaction. Read-only, so
    safe inside pool tasks. *)
val covers : t -> string list -> bool

(** (relations marked from their increment, over the whole log), one
    count per relation per commit. *)
val marks : t -> int * int

(** Stored relations committed without an increment because
    {!preemptively_empty} held, one count per relation per commit. *)
val preemptive_skips : t -> int

(** §4.3 preemptive compaction: no witness of stored relation [rel] can
    keep a tuple of its would-be increment, as monotone probes over the
    relations already in [generated] show. With [share], the probes read
    base relations through the shared scan cache ({!Prepared.prepare}). *)
val preemptively_empty :
  t ->
  Offline.t ->
  share:bool ->
  generated:(string, Table.savepoint) Hashtbl.t ->
  string ->
  bool

type outcome = {
  retained : (string * Value.t array list) list;
      (** the increment rows each relation keeps, by relation name *)
  expired : (string * (int * Value.t array) list) list;
      (** the committed rows compaction deleted, by relation name, each
          with its position in the relation before the deletion,
          ascending; relations that expired nothing are absent *)
}

(** A map over independent read-only tasks (the engine's pool fan-out). *)
type map = { map : 'a 'b. (Stats.t -> 'a -> 'b) -> 'a list -> 'b list }

(** Commit the increments whose savepoints [generated] holds. Every stored relation is marked, and keeps
    its retained increment (all of it without [compaction] or under
    [Keep_all]); one absent from [generated] was skipped preemptively,
    so its increment is empty, but its committed tuples still expire at
    their deadlines. Every other relation in [generated] is rolled back,
    and [generated] is emptied. With [share], the witness queries read
    base relations through the shared scan cache ({!Prepared.prepare}),
    so a witness joining an unchanged base relation hashes it once per
    table version. *)
val run :
  t ->
  Offline.t ->
  compaction:bool ->
  share:bool ->
  generated:(string, Table.savepoint) Hashtbl.t ->
  now:int ->
  stats:Stats.t ->
  map:map ->
  outcome
