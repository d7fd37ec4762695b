(** Per-query timing breakdown, matching the phases the paper reports:
    usage tracking (log generation), policy evaluation, the three log
    compaction phases (mark / delete / insert), and the user query, plus
    persistence and the rollback of tentative log increments. Times are
    wall-clock seconds. *)

type t = {
  mutable log_track : float;
  mutable policy_eval : float;
  mutable compact_mark : float;
  mutable compact_delete : float;
  mutable compact_insert : float;
  mutable query_exec : float;
  mutable persist : float;  (** WAL append / checkpoint time *)
  mutable rollback : float;
      (** truncating tentative log increments: a rejection's, and at
          commit those of relations compacted or generated for
          evaluation only *)
  mutable policy_calls : int;  (** number of policy (sub)queries issued *)
  mutable rows_logged : int;  (** log tuples persisted for this query *)
}

val create : unit -> t
val zero : t

(** Sum of the three compaction phases. *)
val compaction_total : t -> float

(** Everything except [query_exec]. When the engine answers from the
    [provenance] generator's lineage run, the query's one execution is
    inside [log_track] and [query_exec] is near zero. *)
val overhead : t -> float

val total : t -> float
val add : t -> t -> t

(** [merge_into dst src] folds [src] into [dst] in place ({!add}
    semantics). Parallel evaluation batches accumulate into per-task
    records and merge them after the join. *)
val merge_into : t -> t -> unit
val sum : t list -> t
val scale : float -> t -> t
val mean : t list -> t

(** [timed record f] runs [f], passing the elapsed seconds to [record]. *)
val timed : (float -> unit) -> (unit -> 'a) -> 'a
