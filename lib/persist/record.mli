(** Typed WAL records.

    One {!Commit} record is written per {e accepted} submission and is
    the unit of atomicity: it carries the clock advance, the committed
    rows log compaction expired and every log relation's retained
    increment, so recovery either replays the whole submission or (for a
    torn final record) none of it. Policy registration changes are
    journaled too, so the registered-policy set survives a crash between
    snapshots.

    Encodings (after the kind byte; integers as in {!Codec}):
    - kind 1, a commit that expired nothing: [i64 clock | u32 n | n x
      (string relation | rows)];
    - kind 4, a commit that expired rows: [i64 clock | u32 e | e x
      (string relation | u32 k | k x u32 position) | u32 n | n x (string
      relation | rows)]. Positions are strictly ascending;
    - kind 2, [Add_policy]: [string name | string source | i64
      active_from];
    - kind 3, [Remove_policy]: [string name]. *)

open Relational

(** A registered policy, as persisted: the SQL source re-parses against
    the same catalog into the same policy, and [active_from] pins the
    footnote-7 history guard to its original registration time. *)
type policy_rec = { name : string; source : string; active_from : int }

type t =
  | Commit of {
      clock : int;
      expired : (string * int list) list;
          (** per relation, the positions (ranks in scan order, ascending)
              of the committed rows the commit deleted, taken before the
              deletion; relations without expired rows are absent, and an
              empty list encodes as kind 1 *)
      increments : (string * Value.t array list) list;
          (** the retained log increments, appended after the deletions *)
    }
      (** one accepted submission; both lists keyed by (lowercased)
          relation name, in deterministic name order *)
  | Add_policy of policy_rec
  | Remove_policy of string

val encode : t -> string

(** @raise Codec.Corrupt on malformed input. *)
val decode : string -> t

val pp : Format.formatter -> t -> unit
