(** The DataLawyer engine (§4).

    The engine wraps a {!Relational.Database}: users submit queries
    through {!submit}, which (per Eq. 1) tentatively appends the
    usage-log increments, checks every policy, and either rejects the
    query — reverting the log — or persists the (compacted) log and
    executes the query. *)

open Relational

(** How the policy set is evaluated per query. *)
type strategy =
  | Union_all  (** one big UNION of all policies (Algorithm 1 / NoOpt) *)
  | Serial  (** one call per policy *)
  | Interleaved  (** Algorithm 3: partial policies interleaved with log
                     generation, pruning early *)

type config = {
  time_independent : bool;  (** §4.1.1 rewriting *)
  log_compaction : bool;  (** §4.1.2 absolute-witness compaction *)
  unification : bool;  (** §4.2.2 *)
  preemptive : bool;  (** §4.3 preemptive log compaction *)
  improved_partial : bool;  (** §4.3 improved partial policies *)
  strategy : strategy;
  domains : int;
      (** evaluating domains for the per-submission policy, partial-policy
          and witness-query batches. [1] (the floor) maps each batch
          on the submitting domain — no pool is spawned; [n > 1] drives
          the same batches through a shared pool of [n - 1] worker
          domains with the submitting domain helping. Outcomes, logs
          and policy-call counts are identical at every value.
          Defaults to {!default_domains}. *)
  delta : bool;
      (** incremental (delta-driven) policy evaluation: every commit
          records the committed log, over which every active policy was
          proved empty (the accept proof, {!Commit.covers}), and later
          submissions re-check a delta-eligible one
          (see {!Relational.Optimizer.derive_delta}) by scanning only
          the rows above the log relations' watermarks. Policies whose
          plans are not eligible — or that the proof no longer covers,
          after DDL, configuration or policy changes, or DML on a base
          table they read — transparently fall back to
          full re-evaluation, so decisions, messages and log contents are
          identical either way. A policy joining the clock or
          aggregating (GROUP BY/HAVING) is never delta-eligible: with or
          without this flag, it evaluates in full — a clock join through
          its clock-eliminated plan ({!Prepared.prepare}), whose window
          and tick pins are index probes. *)
  relevance : bool;
      (** the policy relevance index: per active policy, the log slots
          its query binds and the equality filters gating them
          ({!Relevance}). On every submission the engine skips — without
          evaluating — each policy that the accept proof still covers
          and whose slots no row of the tentative increment
          can bind. Decisions, messages and log contents are identical
          either way; with thousands of template-instantiated policies,
          the per-submission work shrinks to the handful of policies the
          touched schema elements select. *)
  shared_scans : bool;
      (** multi-query shared scans: while a batch-routed policy,
          witness or probe plan compiles, each base-table scan slot may
          materialize its scan plus pushed-down filter through a
          per-engine cache ({!Relational.Compile_batch.compile} says
          which slots do), together with the hash tables joins build
          over it. So the plans of one admission scan each log table
          once instead of once per plan, and a join over an unchanged
          base relation hashes it once per table version instead of once
          per admission. Entries self-validate against table versions;
          results are identical either way. Needs [vectorized]:
          with [vectorized = false] this flag has no effect. *)
  vectorized : bool;
      (** the vectorized (batch-at-a-time) executor: batch-eligible
          policy, partial-policy and witness plans compile through
          {!Relational.Compile_batch} — zero-copy columnar scans of log
          relations, selection-vector filters, Value-keyed hash joins,
          columnar aggregation — with per-subtree fallback to the row
          path where routing demands it. Verdicts, messages, output
          order and committed tids are bit-identical either way; only
          the operator implementation changes. *)
}

(** The default for {!config}[.domains]: [DL_DOMAINS] from the
    environment when set (and a valid positive integer), otherwise
    [Domain.recommended_domain_count () - 1], floored at 1. *)
val default_domains : int

(** The NoOpt baseline of Algorithm 1: generate only the logs the
    policies mention, evaluate their union, never compact. *)
val noopt_config : config

(** Every optimization enabled (§4.4). *)
val default_config : config

(** The offline phase's output (fields documented in {!Offline.t}). *)
type plan = Offline.t = {
  active : Policy.t list;
  inter : Policy.t list;
  rest : Policy.t list;
  required : string list;
  store_rels : string list;
  unified_groups : Unify.group list;
  relevance : Relevance.t;
  witnesses : (string * Witness.t) list;
  witness_bases : string list;
}

type t

type outcome =
  | Accepted of Executor.result * Stats.t
      (** the query's answer, every row's [lineage] and [src_tids]
          empty. When the [provenance] generator ran and the query reads
          no log relation and no clock, the answer is that generator's
          lineage run ({!Usage_log.query_ctx}[.lineage_run]), so the
          query runs once per admission; otherwise the compiled plan
          runs over the committed state. The rows, and their order, are
          the same either way. *)
  | Rejected of string list * Stats.t  (** violation messages *)

val stats_of : outcome -> Stats.t

(** Wrap a database. Installs the clock and the given log relations
    (default: {!Usage_log.standard}) if absent, and adopts them if a
    previous engine installed them. Only the engine writes them: SQL
    writes to a log or system relation raise ({!Catalog.writable}).

    When [persist_dir] is given, the engine opens (or creates) a durable
    usage-log store there: every accepted submission's log increments,
    the rows its witness compaction expired (by position) and its clock
    advance are journaled as one atomic WAL commit record (a rejected
    submission leaves the WAL untouched); a checkpoint follows once an
    expiring commit leaves more than 1/32 of the live log to reclaim;
    and on open the latest valid snapshot plus the WAL tail are recovered — restoring the [store_rels] relations, the
    clock and the registered-policy set. The same [generators] must be
    registered as when the state was written.
    [persist_fsync] picks the WAL durability/latency trade-off (default
    [Interval 32]).
    @raise Persistence.Recovery.Recovery_error on corrupted state.
    @raise Errors.Sql_error if a table of another kind has the name of
      the clock or of a generator's relation. *)
val create :
  ?config:config ->
  ?generators:Usage_log.generator list ->
  ?persist_dir:string ->
  ?persist_fsync:Persistence.Store.fsync_policy ->
  Database.t ->
  t

val database : t -> Database.t

(** Replace the configuration; invalidates the offline plan. *)
val set_config : t -> config -> unit

(** Register a policy from SQL text; its history starts now.
    @raise Errors.Sql_error on malformed SQL or duplicate names. *)
val add_policy : t -> name:string -> string -> Policy.t

val remove_policy : t -> string -> unit

(** Registered policies, as written (before unification/rewriting). *)
val policies : t -> Policy.t list

(** The current offline-phase plan (recomputed lazily). *)
val plan : t -> plan

(** Row count of a log relation. *)
val log_size : t -> string -> int

(** (hits, misses) of the prepared-plan cache the policy, partial-policy
    and witness queries execute through. *)
val plan_cache_stats : t -> int * int

(** Drop every cached compiled plan, forcing cold compiles on the next
    submission (benchmarking hook; statistics survive). *)
val clear_plan_cache : t -> unit

(** Delta-evaluation counters, under the current configuration. *)
type delta_stats = {
  eligible_plans : int;
      (** active policies whose queries derive delta plans (monotone
          clock-free SPJ); 0 when {!config}[.delta] is off (everything
          evaluates in full) *)
  fallback_plans : int;
      (** active policies that always evaluate in full: clock-reading,
          aggregated, or otherwise not delta-eligible *)
  delta_bases : int;
      (** [eligible_plans] while an accept proof is recorded, else 0:
          the policies the proof can serve on the delta route *)
  delta_evals : int;  (** policy evaluations served by delta plans *)
  full_evals : int;
      (** evaluations of a delta-eligible (SPJ) policy that fell back to
          a full re-run (no proof yet, or the proof no longer covers its
          dependencies); policies counted in [fallback_plans] never bump
          it *)
}

(** Snapshot of the incremental-evaluation state: plan eligibility over
    the current active policy set plus the engine-lifetime delta/full
    evaluation counters, which no invalidation resets. Forces the
    offline plan if stale. *)
val delta_stats : t -> delta_stats

(** Relevance-index counters, under the current configuration. *)
type relevance_stats = {
  rel_indexed : int;  (** active policies in the index *)
  rel_eligible : int;  (** of those, index-eligible *)
  rel_checks : int;  (** skip decisions consulted *)
  rel_skips : int;  (** policies skipped without evaluation *)
}

(** Index shape over the current active set plus the engine-lifetime
    check/skip counters. Forces the offline plan if stale. *)
val relevance_stats : t -> relevance_stats

type vector_stats = {
  vec_enabled : bool;  (** this engine's configured route *)
  vec_batches : int;  (** batches materialized (scans + join outputs) *)
  vec_rows : int;  (** total rows across those batches *)
  vec_fallbacks : int;  (** subtree compilations routed back to rows *)
  vec_hist : int array;
      (** rows-per-batch histogram: < 16, < 256, < 4096, < 65536, rest *)
  vec_typed_cols : int;  (** mirror columns on a typed unboxed layout *)
  vec_mixed_cols : int;  (** mirror columns demoted to boxed Mixed *)
  vec_dict_entries : int;  (** interned strings across TEXT dictionaries *)
}

(** Vectorized-executor counters. The counters are process-wide (the
    compilers are shared, like {!Relational.Executor.rows_examined});
    [vec_enabled] reflects this engine's configuration, and the layout
    census (typed / Mixed columns, dictionary entries) walks this
    engine's columnar mirrors. *)
val vector_stats : t -> vector_stats

(** Check-and-execute one query (the §4.4 online phase). [extra] is
    passed to custom log-generating functions. The query is bound first:
    one that fails to bind raises before the clock moves or any log row
    is generated. *)
val submit :
  t -> uid:int -> ?extra:(string * Value.t) list -> string -> outcome

val submit_ast :
  t -> uid:int -> ?extra:(string * Value.t) list -> Ast.query -> outcome

(** One member of an admission batch. *)
type batch_submission = {
  batch_uid : int;
  batch_extra : (string * Value.t) list;
  batch_query : Ast.query;
}

(** Admit a batch of concurrent submissions, returning one result per
    member in order. Each member is submitted through {!submit_ast} in
    list order, so decisions, log contents (tids included) and clock are
    those of submitting the members one at a time. A member whose
    binding, evaluation or execution raised yields [Error] (the engine
    state is rolled back for that member exactly as {!submit} would);
    its batch-mates' verdicts are unaffected. What a batch shares is the
    caller's group commit: the server's admission pipeline forces one
    synced flush per batch. *)
val submit_batch : t -> batch_submission list -> (outcome, exn) result list

(** Every engine counter as [(key, value)] pairs, in a fixed order: the
    one rendering the console [:stats] and the server [STATS] reply
    share. Keys: [plan-cache-hits]/[-misses], [index-probes],
    [parallel-domains]/[-batches]/[-tasks] (configured domains, parallel
    batches of two or more tasks, tasks across them; 0 at
    [domains = 1]), the [delta-*] and [full-evals] counters
    of {!delta_stats}, [unify-registered]/[-active]/[-groups]/
    [-members] (policies as registered, after unification, unified
    groups, policies absorbed into them), [relevance-*],
    [shared-scan-hits]/[-misses] (a hit is a policy, witness or probe
    plan reusing rows materialized for the same scan-plus-filter prefix
    at the same table version, by another plan or an earlier
    admission), [partial-empty-prunes]/[-probe-prunes] (interleaved prunes
    by an empty partial policy or core, and by a tick-pinned probe that
    came back empty), [vector-*] (with [vector-hist] as space-separated
    [bound:count] pairs), [witness-delta-marks]/[-full-marks] (stored
    relations compacted from their increment / over the whole log, one
    count per relation per commit), [group-commit-fsyncs] and
    [wal-records] (0 without persistence). Forces the offline plan if
    stale. *)
val counters : t -> (string * string) list

(** Test hook: when set, called after each interleaved decision made by
    a tick-pinned probe (§4.3 improved partial policies) with the engine's
    database, the partial policy πS, the submission's increment floors
    (relation, first tentative tid: {!Relational.Table.savepoint_tid})
    and whether the policy was kept.
    Runs inside pool tasks, over frozen tables. *)
val probe_observer :
  (Database.t -> Ast.query -> floors:(string * int) list -> kept:bool -> unit)
  option
  ref

(** The persistence store, when the engine was created with
    [persist_dir] (introspection: generation, WAL length, disk size). *)
val persist_store : t -> Persistence.Store.t option

(** Force a checkpoint of the current persistence scope; no-op without
    persistence. *)
val persist_checkpoint : t -> unit

(** Make the live state durable — a clock-only commit record if
    rejected submissions moved the clock past the last record — then
    flush and close the persistence store, if any, and shut down the
    process-wide shared evaluation pools ({!Parallel.Pool.shutdown_shared})
    so no worker domain outlives the engine. The engine remains usable
    in memory afterwards — its next parallel batch simply fetches a
    fresh pool. *)
val close : t -> unit
