(** Prepared-plan cache: compiled query plans keyed by (AST, options),
    revalidated against {!Relational.Catalog.generation}. One counter
    covers every invalidation source — DDL bumps it structurally, the
    engine bumps it on config/policy changes — so cached plans can never
    go stale.

    Sharded per domain: each domain that prepares through the cache owns
    a private shard, so compiled closures are never shared (mutably or
    otherwise) across the engine's pool domains, and the policy hot path
    takes no lock. {!stats} and {!clear} aggregate/reset across
    shards. *)

open Relational

type t

val create : Catalog.t -> t

(** Set the compilation route: with [true], {!prepare} and
    {!prepare_delta} compile through the vectorized executor
    ({!Relational.Compile_batch}), falling back per subtree where
    routing demands the row path. Not part of the cache key: plans
    cached under the old route survive until the catalog generation
    moves, so bump it ({!Relational.Catalog.touch}) along with any
    change. *)
val set_vectorized : t -> bool -> unit

(** Fetch or compile the plan for [q] under [opts]. A query joining the
    clock relation compiles from its clock-eliminated plan
    ({!Relational.Optimizer.eliminate_clock}) unless [opts] asks for
    lineage. Its results are the as-written plan's (under [track_src],
    numbered over the eliminated layout) because the clock holds exactly
    one row: only {!Usage_log.set_clock} writes it, SQL may not
    ({!Relational.Catalog.writable}).
    With [share] on the vectorized route, the plan's base-table scan
    prefixes, and the hash tables joins build over them, materialize
    through a single cross-domain {!Relational.Shared_cache}, so
    identical prefixes scan the table once per table version, across
    plans and admissions (ignored on the row route and under lineage,
    whose runs take the row path; source-tracking runs share).
    @raise Errors.Sql_error on binding failures (never cached). *)
val prepare :
  t -> ?opts:Executor.opts -> ?share:bool -> Ast.query -> Executor.compiled

(** Fetch or derive+compile the delta variants of [q] (see
    {!Executor.prepare_delta}); ineligibility ([None]) is cached too, so
    the analysis runs once per (domain, generation). *)
val prepare_delta :
  t ->
  is_log:(string -> bool) ->
  clock_rel:string ->
  Ast.query ->
  Executor.delta_compiled option

(** [prepare] + execute. *)
val run :
  t -> ?opts:Executor.opts -> ?share:bool -> Ast.query -> Executor.result

val is_empty : t -> ?opts:Executor.opts -> ?share:bool -> Ast.query -> bool

(** (hits, misses) since creation. *)
val stats : t -> int * int

(** (hits, misses) of the shared-scan materialization cache: a hit is a
    policy plan reusing rows another plan already materialized for the
    same scan-plus-filter prefix at the same table version. *)
val shared_stats : t -> int * int

(** Drop every cached plan (the statistics survive). *)
val clear : t -> unit
