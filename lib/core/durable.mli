(** The durable usage log: the one place that decides how each change
    to the persisted state reaches disk.

    [Durable] owns the {!Persistence.Store.t}, the persistence scope
    (the stored relations the snapshot holds) and the journaled clock.
    Only the engine writes a log relation ({!Relational.Catalog.writable}),
    and it changes a stored one only by commits, so every change is a
    commit record. An accepted submission's commit ({!Commit.run}) is
    journaled as one atomic WAL record of its clock, expired positions
    and retained increments, and a checkpoint follows once the WAL
    reaches its record limit or an expiring commit leaves more than 1/32
    of the live log to reclaim. A scope change and an explicit
    {!checkpoint} checkpoint too. *)

open Relational

type t

(** Open (or create) the store in [dir] and install what it recovered
    into [db]: every recovered log relation's rows (its schema checked
    against the installed one) and the clock. Returns the recovered
    policies in registration order ([[]] for a new store). The
    recovered relations are the scope their snapshot was written for.
    [policies] yields the registered set each checkpoint records.
    @raise Persistence.Recovery.Recovery_error on corrupted state or a
      recovered relation that is not an installed log relation. *)
val open_dir :
  fsync:Persistence.Store.fsync_policy ->
  policies:(unit -> Policy.t list) ->
  Database.t ->
  string ->
  t * Policy.t list

val store : t -> Persistence.Store.t

(** Journal a registration; it moves the journaled clock to the
    policy's [active_from]. *)
val add_policy : t -> Policy.t -> unit

(** Journal a removal. *)
val remove_policy : t -> string -> unit

(** Adopt the stored relations of a new plan as the scope, with a
    checkpoint if they differ from the current one. *)
val set_scope : t -> string list -> unit

(** Make an accepted submission's commit at tick [now] durable: one WAL
    record, then a checkpoint if the WAL limit or the reclaim test calls
    for one. *)
val commit : t -> now:int -> Commit.outcome -> unit

(** Checkpoint the current scope. *)
val checkpoint : t -> unit

(** Leave the live state durable — a clock-only record if rejected
    submissions moved the clock past the journaled one — then close the
    store. *)
val close : t -> unit
