(** Engine-owned state for incremental (delta-driven) policy evaluation.

    Per policy, the store holds a {e base}: evidence that the policy's
    query was proved empty over the state below the log relations'
    current delta watermarks ({!Relational.Table.delta_base}). With a
    valid base, re-checking the policy after a submission appended its
    tentative increment reduces to running its per-log-slot delta
    variants ({!Relational.Optimizer.derive_delta}) instead of
    rescanning the whole log. *)

type t

type stats = { bases : int; delta_evals : int; full_evals : int }

val create : unit -> t

(** Drop every base and zero the evaluation counters — a full return to
    the initial state (engine reset / restart). *)
val reset : t -> unit

(** Version-counter snapshot for a dependency list: a log relation
    records {!Relational.Table.ver_unsafe} (appends are watermark-covered
    and removals cannot grow a monotone result), any other table
    {!Relational.Table.ver_mut}. A missing table snapshots [-1], which
    can never match a live counter. *)
val snapshot : Relational.Catalog.t -> string list -> (string * int) list

(** Record a base for the named policy: its query is empty over the
    sub-watermark state, under catalog generation [gen] and the given
    counter snapshot. *)
val establish : t -> string -> gen:int -> vers:(string * int) list -> unit

(** Is the named policy's base still valid — same generation, same
    counter snapshot? Read-only; safe to call from worker domains while
    no writer runs (the engine only establishes bases between
    submissions). *)
val valid : t -> string -> gen:int -> vers:(string * int) list -> bool

(** Count one policy evaluation served by delta plans. Atomic: worker
    domains bump it during parallel batches. *)
val note_delta_eval : t -> unit

(** Count one policy evaluation that fell back to a full re-run. *)
val note_full_eval : t -> unit

val stats : t -> stats
