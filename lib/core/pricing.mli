(** Usage-based data pricing (§2): Factual-style "pay for what you
    touched" billing computed from the [provenance] and [users] logs. *)

open Relational

type rate = { relation : string; per_use : float }

type line = { relation : string; uses : int; amount : float }

type bill = {
  uid : int;
  since : int;  (** exclusive *)
  until : int;  (** inclusive *)
  lines : line list;
  total : float;
}

(** A never-firing policy whose absolute witness retains the last
    [window] ticks of provenance and users tuples — register it with
    {!Engine.add_policy} so log compaction keeps the billing window
    alive. Its HAVING counts rows ([COUNT( * )]), so its witness keeps
    every joined row (Lemma 4.1); a [COUNT(DISTINCT ...)] one would keep
    one row per counted value. *)
val retention_policy : window:int -> string

(** Tuple-use counts per input relation for [uid] in [(since, until]]. *)
val usage_counts :
  Database.t -> uid:int -> since:int -> until:int -> (string * int) list

val bill :
  Database.t -> uid:int -> since:int -> until:int -> rates:rate list -> bill

val pp_bill : Format.formatter -> bill -> unit
