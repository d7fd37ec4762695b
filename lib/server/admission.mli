(** Batched admission pipeline: concurrent SUBMITs queue up, a single
    admission thread decides them in arrival-order batches through
    {!Datalawyer.Engine.submit_batch}, and one forced WAL flush per
    batch makes accepted work durable (group commit). The admission
    sequence number carried by each verdict is the serial order the
    engine actually used — any concurrent interleaving is equivalent to
    submitting one at a time in [seq] order. *)

type verdict =
  | Accepted of { seq : int; rows : int }
  | Rejected of { seq : int; messages : string list }
  | Failed of { seq : int; code : string; message : string }
      (** the SQL did not parse, evaluation raised, or the server is
          draining ([seq] is 0 when the submission never reached the
          engine queue) *)

type t

(** [create ~engine ~max_batch ()] wraps [engine]; nothing runs until
    {!start}. For group commit to amortize fsyncs the engine's store
    should be opened with the [Never] fsync policy — the pipeline
    forces one synced flush per committing batch either way. *)
val create : engine:Datalawyer.Engine.t -> max_batch:int -> unit -> t

(** Spawn the admission thread. *)
val start : t -> unit

(** Enqueue one submission and block until its verdict. Thread-safe;
    called from connection threads. Returns a [Failed] verdict with
    code {!Protocol.err_shutdown} once {!stop} has begun. *)
val submit : t -> uid:int -> sql:string -> verdict

(** Stop accepting work, drain the queue (every enqueued submission
    still gets a real verdict), and join the admission thread. *)
val stop : t -> unit

(** Pipeline counters; [s_hist] is the batch-size histogram as
    (bucket label, count) pairs, [s_snapshot_age] the number of
    submissions decided since an admission last changed the committed
    engine state. *)
type stats = {
  s_submissions : int;
  s_accepted : int;
  s_rejected : int;
  s_failed : int;
  s_batches : int;
  s_hist : (string * int) list;
  s_snapshot_age : int;
  s_max_batch : int;
}

val stats : t -> stats
