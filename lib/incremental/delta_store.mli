(** Engine-owned state for incremental (delta-driven) policy evaluation.

    Per policy, the store holds a {e base}: evidence that the policy's
    query was proved empty over the state below the log relations'
    current delta watermarks ({!Relational.Table.delta_base}). With a
    valid base, re-checking the policy after a submission appended its
    tentative increment reduces to running the classified delta
    branches ({!Relational.Optimizer.derive_delta}) instead of
    rescanning the whole log.

    Aggregate branches additionally carry per-group accumulator state
    ({!agg_state}): one {!Relational.Aggregate.acc} per aggregate call
    and group key, folded forward at each establishment and consulted
    non-destructively at evaluation time. *)

type t

type stats = {
  bases : int;
  delta_evals : int;
  full_evals : int;
  agg_groups : int;  (** carried groups summed over all branch states *)
  agg_rebuilds : int;  (** full-stream rebuilds of carried state *)
}

val create : unit -> t

(** Drop every base and every carried aggregate state, and zero the
    evaluation counters — a full return to the initial state (engine
    reset / restart). *)
val reset : t -> unit

(** Version-counter snapshot for a dependency list: each table records
    the sum of the counters its {!Relational.Optimizer.dep_kind} names
    (the counters are monotone, so sum equality is componentwise
    equality). A missing table snapshots [-1], which can never match a
    live counter. *)
val snapshot :
  Relational.Catalog.t ->
  (string * Relational.Optimizer.dep_kind) list ->
  (string * int) list

(** Record a base for the named policy: its query is empty over the
    sub-watermark state, under catalog generation [gen] and the given
    counter snapshot. *)
val establish : t -> string -> gen:int -> vers:(string * int) list -> unit

(** Is the named policy's base still valid — same generation, same
    counter snapshot? Read-only; safe to call from worker domains while
    no writer runs (the engine only establishes bases between
    submissions). *)
val valid : t -> string -> gen:int -> vers:(string * int) list -> bool

(** {1 Carried aggregate state} *)

(** Per-(policy, branch) group accumulators. *)
type agg_state

(** Get or create the state for one aggregate branch of a policy. *)
val agg_state : t -> policy:string -> branch:int -> agg_state

(** Drop every carried group (before a full-stream rebuild). *)
val agg_clear : agg_state -> unit

(** Destructively fold stream rows — [group-key values @ aggregate
    arguments], [nkeys] leading key values, one trailing column per
    [specs] entry — into the carried groups. Used at establishment,
    over the just-committed delta (or the full stream after
    {!agg_clear} when rebuilding).
    @raise Errors.Sql_error on a SUM over non-numeric values, exactly
    where the batch fold would. *)
val agg_absorb :
  agg_state ->
  specs:(Relational.Ast.agg * bool) array ->
  nkeys:int ->
  Relational.Value.t array list ->
  unit

(** Fold stream rows into {e clones} of the touched groups' carried
    accumulators, leaving the carried state untouched (the submission
    may yet be rejected). Returns, per touched group, its key values
    and finished aggregate values — the fold
    {!Relational.Aggregate.compute} runs. *)
val agg_scratch :
  agg_state ->
  specs:(Relational.Ast.agg * bool) array ->
  nkeys:int ->
  Relational.Value.t array list ->
  (Relational.Value.t array * Relational.Value.t array) list

(** Count one full-stream rebuild of carried aggregate state. *)
val note_agg_rebuild : t -> unit

(** Count one policy evaluation served by delta plans. Atomic: worker
    domains bump it during parallel batches. *)
val note_delta_eval : t -> unit

(** Count one policy evaluation that fell back to a full re-run. *)
val note_full_eval : t -> unit

val stats : t -> stats
