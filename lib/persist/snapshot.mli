(** Snapshot files: the persisted log state at a checkpoint.

    A snapshot (format version 2) holds the clock, the generation of the
    {!Catalog_segment} that carries the registered-policy set, and the
    complete contents of every relation in the persistence scope (the
    plan's [store_rels] — log relations some time-dependent policy still
    needs). The payload is one {!Framed} block behind a [DLSNAP] +
    version header. The policies themselves are not in the snapshot, so
    a checkpoint costs what the (compacted) log costs. *)

open Relational

(** One relation's persisted state. [schema] is stored for validation on
    recovery; an empty schema means "unknown" (a relation first seen in
    the WAL, whose rows are type-checked on reload instead). *)
type rel = { schema : (string * Ty.t) list; rows : Value.t array list }

(** The full persisted state: what a checkpoint persists (snapshot plus
    catalog) and what recovery returns. *)
type state = {
  clock : int;
  policies : Record.policy_rec list;  (** in registration order *)
  relations : (string * rel) list;  (** in deterministic name order *)
}

val empty : state

(** The length of a snapshot file's header, before its payload. *)
val header_len : int

(** Atomically write [state]'s clock and relations to [path], naming
    catalog generation [catalog]; [state.policies] is not written. *)
val write : string -> catalog:int -> state -> unit

(** The catalog generation the snapshot names, and its state with
    [policies = []] (they live in that catalog).
    @raise Codec.Corrupt on checksum or format errors, a version-1
    snapshot included. *)
val read : string -> int * state
