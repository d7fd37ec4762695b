(** TCP front-end of the policy-admission server.

    One listener thread accepts connections; each connection runs the
    {!Session} machine over the {!Protocol} framing on its own thread;
    every SUBMIT funnels into the single {!Admission} pipeline, which
    batches concurrent submissions through the engine. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  max_batch : int;  (** admission batch bound *)
  max_payload : int;  (** per-frame payload ceiling, bytes *)
  backlog : int;
}

(** 127.0.0.1:7740, batches of ≤32, 1 MiB payloads. *)
val default_config : config

type t

(** Bind, listen and spawn the listener and admission threads. The
    engine must not be mutated by other threads while the server runs —
    every mutation goes through the admission pipeline.
    @raise Unix.Unix_error when the address cannot be bound. *)
val start : ?config:config -> Datalawyer.Engine.t -> t

(** The bound port (useful with [port = 0]). *)
val port : t -> int

(** Server counters as the (key, value) pairs of the STATS reply:
    sessions, admission/batch counters, batch-size histogram and
    snapshot age, followed by {!Datalawyer.Engine.counters}. *)
val stats : t -> (string * string) list

(** Stop accepting, close every connection, drain the admission queue
    (enqueued submissions still get real verdicts) and join all
    threads. [close_engine] additionally flushes and closes the
    engine's persistence store and shuts the shared domain pools down. *)
val stop : ?close_engine:bool -> t -> unit
