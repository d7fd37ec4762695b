(** The DataLawyer engine (§4): the online phase over the offline plan
    ({!Offline}).

    {!submit} (per Eq. 1) tentatively appends the usage-log increments
    and checks every active policy under the configured strategy
    ([Union_all] is NoOpt's Algorithm 1, [Interleaved] Algorithm 3). A
    violation rejects the query and reverts the log; otherwise the
    commit compacts the increments ({!Commit}), {!Durable} journals or
    checkpoints them, and the query executes. Each {!config} field
    selects one optimization (engine.mli documents them all).

    Every admission stage has one implementation; parallelism is only
    the choice of map inside [fan_out]. *)

open Relational

type strategy = Union_all | Serial | Interleaved

type config = {
  time_independent : bool;
  log_compaction : bool;
  unification : bool;
  preemptive : bool;
  improved_partial : bool;
  strategy : strategy;
  domains : int;
  delta : bool;
  relevance : bool;
  shared_scans : bool;
  vectorized : bool;
}

(* Default evaluation parallelism: the DL_DOMAINS environment variable
   when set (CI runs the suite at 1 and 4 with it), otherwise one less
   than the hardware's recommendation — leaving a core for the rest of
   the system — and never below 1 ([domains = 1] spawns no pool). *)
let default_domains =
  match Sys.getenv_opt "DL_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 1)
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* The NoOpt baseline (Algorithm 1): generate the logs the policies
   mention, evaluate the union of all policies, never compact. *)
let noopt_config =
  {
    time_independent = false;
    log_compaction = false;
    unification = false;
    preemptive = false;
    improved_partial = false;
    strategy = Union_all;
    domains = default_domains;
    delta = true;
    relevance = false;
    shared_scans = false;
    vectorized = true;
  }

(* DataLawyer with every optimization enabled (§4.4). *)
let default_config =
  {
    time_independent = true;
    log_compaction = true;
    unification = true;
    preemptive = true;
    improved_partial = true;
    strategy = Interleaved;
    domains = default_domains;
    delta = true;
    relevance = true;
    shared_scans = true;
    vectorized = true;
  }

type plan = Offline.t = {
  active : Policy.t list; inter : Policy.t list; rest : Policy.t list;
  required : string list; store_rels : string list; unified_groups : Unify.group list;
  relevance : Relevance.t; witnesses : (string * Witness.t) list; witness_bases : string list;
}

type t = {
  db : Database.t;
  mutable config : config;
  generators : Usage_log.generator list;  (** sorted by rank *)
  gen_index : (string, Usage_log.generator) Hashtbl.t;
      (** generator lookup by lowercased relation name, so the
          per-generation hot path never scans the list *)
  mutable registered_rev : Policy.t list;
      (** registered policies, newest first: registration prepends *)
  registered_names : (string, unit) Hashtbl.t;
      (** names in [registered_rev], for the duplicate check *)
  mutable plan : plan option;
  mutable durable : Durable.t option;
      (** the persisted log; its scope follows every new plan *)
  prepared : Prepared.t;
      (** compiled-plan cache for policy, partial-policy and witness
          queries; invalidated through the same catalog generation
          counter as the evaluation plan (see {!invalidate}); sharded
          per domain so pool workers never share compiled closures *)
  mutable pool : Parallel.Pool.t option;
      (** domain pool for parallel evaluation batches; fetched lazily
          from the process-wide registry when [config.domains > 1] *)
  mutable par_batches : int;  (** parallel batches dispatched *)
  mutable par_tasks : int;  (** tasks executed across those batches *)
  rel_checks : int Atomic.t;
      (** relevance-index consultations (atomic: incremented inside pool
          tasks) *)
  rel_skips : int Atomic.t;  (** policies skipped as provably unaffected *)
  empty_prunes : int Atomic.t;
      (** interleaved prunes of a policy whose partial policy (or core)
          was empty *)
  probe_prunes : int Atomic.t;
      (** interleaved prunes of a policy whose tick-pinned probe was
          empty (§4.3 improved partial policies) *)
  delta_evals : int Atomic.t;  (** policy evaluations served by delta plans *)
  full_evals : int Atomic.t;
      (** delta-eligible policies that fell back to full evaluation *)
  commit : Commit.t;  (** log compaction's state across commits *)
}

type outcome =
  | Accepted of Executor.result * Stats.t
  | Rejected of string list * Stats.t

let stats_of = function Accepted (_, s) -> s | Rejected (_, s) -> s

let lc = Analysis.lc

(* Every policy/witness evaluation probes the log relations by [uid]
   equality and [ts] windows (preemptive checks pin [ts = now]); declare
   the matching indexes up front so the optimizer's access-path selection
   makes those probes sublinear in log size. Index names are
   deterministic ([dl_ix_<rel>_<col>]) and creation is idempotent, so
   re-registration and recovery are safe. Recovery itself needs no
   special casing: {!Durable.open_dir} clears and bulk-loads the tables,
   and both paths maintain declared indexes. *)
let auto_index_log_relation db (g : Usage_log.generator) =
  let cat = Database.catalog db in
  let rel = g.Usage_log.relation in
  let table = Catalog.find cat rel in
  let declare col kind =
    let name = Printf.sprintf "dl_ix_%s_%s" (lc rel) (lc col) in
    if Schema.find_index (Table.schema table) col <> None && not (Catalog.mem_index cat name)
    then ignore (Catalog.create_index cat ~name ~table:rel ~column:col ~kind)
  in
  declare "ts" Index.Sorted;
  declare "uid" Index.Hash;
  (* The vectorized executor scans log relations zero-copy through a
     columnar mirror; building it here (and keeping it maintained by
     the table's mutation hooks) means batch scans never transpose the
     heap. Cheap to maintain — one vector push per column per append —
     and harmless when the row path is pinned. *)
  ignore (Table.enable_columnar table)

let policies t = List.rev t.registered_rev

let create ?(config = default_config) ?(generators = Usage_log.standard)
    ?persist_dir ?(persist_fsync = Persistence.Store.Interval 32)
    (db : Database.t) : t =
  (* A relation already present is adopted only as the kind the engine
     installs: a base table named like the clock or a log relation would
     be read by policies while the engine never writes it. *)
  let install name kind fresh =
    match Catalog.kind_of (Database.catalog db) name with
    | None -> fresh ()
    | Some k when k = kind -> ()
    | Some _ -> Errors.catalog_error "table %s exists and is not the engine's own relation" name
  in
  install Usage_log.clock_relation Catalog.System (fun () -> Usage_log.install_clock db);
  let generators =
    List.sort (fun a b -> compare a.Usage_log.rank b.Usage_log.rank) generators
  in
  List.iter
    (fun g ->
      install g.Usage_log.relation Catalog.Log (fun () -> Usage_log.install_relation db g);
      auto_index_log_relation db g)
    generators;
  let gen_index = Hashtbl.create 8 in
  List.iter (fun g -> Hashtbl.replace gen_index (lc g.Usage_log.relation) g) generators;
  let prepared = Prepared.create (Database.catalog db) in
  let t =
    {
      db;
      config;
      generators;
      gen_index;
      registered_rev = [];
      registered_names = Hashtbl.create 16;
      plan = None;
      durable = None;
      prepared;
      pool = None;
      par_batches = 0;
      par_tasks = 0;
      rel_checks = Atomic.make 0;
      rel_skips = Atomic.make 0;
      empty_prunes = Atomic.make 0;
      probe_prunes = Atomic.make 0;
      delta_evals = Atomic.make 0;
      full_evals = Atomic.make 0;
      commit = Commit.create db prepared;
    }
  in
  Prepared.set_vectorized t.prepared config.vectorized;
  Option.iter
    (fun dir ->
      let d, ps =
        Durable.open_dir ~fsync:persist_fsync ~policies:(fun () -> policies t) db dir
      in
      t.registered_rev <- List.rev ps;
      List.iter (fun p -> Hashtbl.replace t.registered_names p.Policy.name ()) ps;
      t.durable <- Some d)
    persist_dir;
  t

let database t = t.db

let is_log t rel = Catalog.is_log (Database.catalog t.db) rel

(* The single invalidation point: dropping the evaluation plan and
   bumping the catalog generation together, so the prepared-plan cache
   (and anything else keyed on the generation, like PR 1's
   persistence-scope recompute in {!plan}) can never observe one without
   the other. *)
let invalidate t =
  t.plan <- None;
  Catalog.touch (Database.catalog t.db);
  (* The accept proof covered the old policy set, and the witnesses
     change with the plan: drop the record and every deadline. *)
  Commit.reset t.commit

let set_config t config =
  t.config <- config;
  Prepared.set_vectorized t.prepared config.vectorized;
  invalidate t

let add_policy t ~name sql : Policy.t =
  if Hashtbl.mem t.registered_names name then
    Errors.catalog_error "policy %s already registered" name;
  let p =
    Policy.create (Database.catalog t.db) ~is_log:(is_log t) ~name
      ~active_from:(Usage_log.current_time t.db) sql
  in
  t.registered_rev <- p :: t.registered_rev;
  Hashtbl.replace t.registered_names name ();
  invalidate t;
  Option.iter (fun d -> Durable.add_policy d p) t.durable;
  p

let remove_policy t name =
  let present = Hashtbl.mem t.registered_names name in
  if present then begin
    Hashtbl.remove t.registered_names name;
    t.registered_rev <-
      List.filter (fun p -> p.Policy.name <> name) t.registered_rev
  end;
  invalidate t;
  match t.durable with
  | Some d when present -> Durable.remove_policy d name
  | Some _ | None -> ()

(* Offline phase (§4.4) --------------------------------------------------- *)

let plan t =
  match t.plan with
  | Some p -> p
  | None ->
    let p =
      Offline.compute (Database.catalog t.db) ~unification:t.config.unification
        ~time_independent:t.config.time_independent
        ~interleaved:(t.config.strategy = Interleaved) (policies t)
    in
    t.plan <- Some p;
    (* Recompute the persistence scope on every plan invalidation: a
       config or policy change can move a log relation in or out of
       [store_rels] (e.g. a policy ceasing to be TI-rewritten), and a
       stale scope would let its tuples skip persistence. *)
    Option.iter (fun d -> Durable.set_scope d p.store_rels) t.durable;
    p

let log_size t rel = Table.row_count (Database.table t.db rel)

let plan_cache_stats t = Prepared.stats t.prepared

let clear_plan_cache t = Prepared.clear t.prepared

(* Parallel runtime -------------------------------------------------------- *)

(* The pool evaluating this engine's parallel batches, or [None] when
   [config.domains = 1]. [config.domains] counts evaluating domains: the
   submitting domain helps drain each batch, so the pool holds
   [domains - 1] workers. Pools come from the process-wide registry
   ({!Parallel.Pool.shared}) — engines with the same width share one
   pool, keeping the spawned-domain count bounded no matter how many
   engines a process creates. *)
let pool_of t : Parallel.Pool.t option =
  if t.config.domains <= 1 then None
  else
    Some
      (match t.pool with
      | Some p
        when Parallel.Pool.workers p = t.config.domains - 1
             && not (Parallel.Pool.is_stopped p) ->
        p
      | Some _ | None ->
        let p = Parallel.Pool.shared ~workers:(t.config.domains - 1) in
        t.pool <- Some p;
        p)

(* Every query a parallel batch evaluates reads a frozen database state:
   increments are appended tentatively *before* evaluation, commitment
   mutations happen after the join, and registration/DDL only run
   between submissions. Under [Table.debug_checks] we turn that
   guarantee into an assertion by freeze-marking every table for the
   span of the batch — any mutation attempt (a would-be cross-domain
   data race) then raises instead of corrupting. *)
let with_frozen t (f : unit -> 'a) : 'a =
  if not !Table.debug_checks then f ()
  else begin
    let cat = Database.catalog t.db in
    let tables = List.map (Catalog.find cat) (Catalog.table_names cat) in
    List.iter Table.freeze tables;
    Fun.protect ~finally:(fun () -> List.iter Table.thaw tables) f
  end

(* Online phase ------------------------------------------------------------ *)

(* Mutable per-submission record of generated log increments. *)
type submission = {
  ctx : Usage_log.query_ctx;
  stats : Stats.t;
  generated : (string, Table.savepoint) Hashtbl.t;
}

let new_submission (ctx : Usage_log.query_ctx) : submission =
  {
    ctx;
    stats = Stats.create ();
    generated = Hashtbl.create 4;
  }

(* Revert every tentative increment of [sub] (Eq. 1's rejection, or a
   failure before commit). Idempotent: a second call, or one after
   {!accept} resolved the savepoints, does nothing. *)
let rollback t (sub : submission) =
  Stats.timed
    (fun d -> sub.stats.Stats.rollback <- sub.stats.Stats.rollback +. d)
    (fun () ->
      Hashtbl.iter
        (fun rel sp -> Table.rollback_to (Database.table t.db rel) sp)
        sub.generated);
  Hashtbl.reset sub.generated

let generator_for t rel =
  match Hashtbl.find_opt t.gen_index rel with
  | Some g -> g
  | None -> Errors.catalog_error "no log-generating function for %s" rel

(* Map [f] over a batch of independent read-only evaluations: the one
   place an admission stage chooses between serial and parallel. Without
   a pool, or with a single task, it is a plain [List.map] charging the
   submission's stats. With a pool, each task accumulates into a private
   {!Stats.t} (no cross-domain mutation) merged into the submission's
   record after the join; result order follows input order either way,
   so violation lists keep registration-rank order; an exception in any
   task is re-raised (first in input order) only after the whole batch
   has joined, so tables are never unfrozen under a still-running
   task. *)
let fan_out t (sub : submission) (pool : Parallel.Pool.t option)
    (f : Stats.t -> 'a -> 'b) (xs : 'a list) : 'b list =
  match (pool, xs) with
  | Some pool, _ :: _ :: _ ->
    t.par_batches <- t.par_batches + 1;
    t.par_tasks <- t.par_tasks + List.length xs;
    with_frozen t (fun () ->
        let results =
          Parallel.Pool.map pool
            (fun x ->
              let stats = Stats.create () in
              let r = f stats x in
              (stats, r))
            xs
        in
        List.map
          (fun (stats, r) ->
            Stats.merge_into sub.stats stats;
            r)
          results)
  | (Some _ | None), _ -> List.map (f sub.stats) xs

(* Run the log-generating function for [rel] (once per submission)
   under the submission's context and tentatively append the increment
   above a fresh savepoint. *)
let gen_rel t (sub : submission) rel =
  if not (Hashtbl.mem sub.generated rel) then begin
    let g = generator_for t rel in
    let table = Database.table t.db g.Usage_log.relation in
    Stats.timed
      (fun d -> sub.stats.Stats.log_track <- sub.stats.Stats.log_track +. d)
      (fun () ->
        (* Generators return sets (see {!Usage_log.generator}). *)
        let rows = g.Usage_log.generate sub.ctx in
        Hashtbl.add sub.generated rel (Table.savepoint table);
        let ts = Value.Int sub.ctx.Usage_log.time in
        List.iter (fun cells -> ignore (Table.insert table (Array.append [| ts |] cells))) rows)
  end

(* Evaluate a policy query; returns the violation message if non-empty.
   [stats] is the record to charge — the submission's on the serial
   path, a task-private one inside a parallel batch. *)
let eval_query t ~(stats : Stats.t) (q : Ast.query) :
    Executor.result option =
  Stats.timed
    (fun d -> stats.Stats.policy_eval <- stats.Stats.policy_eval +. d)
    (fun () ->
      stats.Stats.policy_calls <- stats.Stats.policy_calls + 1;
      let r = Prepared.run t.prepared ~share:t.config.shared_scans q in
      match r.Executor.out_rows with [] -> None | _ -> Some r)

(* Every distinct string the rows project as their single cell. *)
let string_messages (rows : Executor.row_out list) : string list =
  List.filter_map
    (fun (row : Executor.row_out) ->
      match row.Executor.values with [| Value.Str m |] -> Some m | _ -> None)
    rows
  |> List.sort_uniq String.compare

(* Every distinct string a violation result projects. A plain policy
   projects its one literal message; a unified policy projects exactly
   the messages of its firing members (the lifted message column), so a
   single evaluation must be allowed to report several. Rows that don't
   carry a single string (a policy someone wrote to project data) fall
   back to the registered message. *)
let messages_of_result (p : Policy.t) (r : Executor.result) : string list =
  match string_messages r.Executor.out_rows with
  | [] -> [ p.Policy.message ]
  | ms -> ms

(* Delta evaluation ------------------------------------------------------- *)

(* The compiled delta variants of a policy's query, via the per-domain
   prepared cache; [None] when delta evaluation is off or the query is
   not delta-eligible (see {!Optimizer.derive_delta}). *)
let delta_entry t (p : Policy.t) : Executor.delta_compiled option =
  if not t.config.delta then None
  else
    Prepared.prepare_delta t.prepared ~is_log:(is_log t)
      ~clock_rel:Usage_log.clock_relation p.Policy.query

(* Try to decide a policy from its delta plans alone. [Some res] is a
   verdict: the policy's result over the full tentative state is empty
   iff [res = None], and a non-empty [res] carries the union of every
   variant's rows, deduplicated by value — equal, as a set, to the rows
   full evaluation would produce, so message extraction downstream sees
   the same set either way. (All variants must run: a unified policy's
   firing members can be split across them, and stopping at the first
   non-empty one would truncate the message set.) [None] means no
   shortcut — delta off, plan ineligible (a clock join or an aggregate
   included: it evaluates in full), or the proof no longer covers the
   policy — and the caller must evaluate in full.

   Soundness: under a valid proof ({!Commit.covers}) the query is empty
   over the rows below the watermarks, so any result row must bind at
   least one log slot to a delta tuple, and the per-slot variants
   enumerate exactly those bindings. *)
let delta_try t ~(stats : Stats.t) (p : Policy.t) :
    Executor.result option option =
  match delta_entry t p with
  | None -> None
  | Some entry ->
    if not (Commit.covers t.commit entry.Executor.delta_deps) then begin
      Atomic.incr t.full_evals;
      None
    end
    else begin
      Atomic.incr t.delta_evals;
      Stats.timed
        (fun d -> stats.Stats.policy_eval <- stats.Stats.policy_eval +. d)
        (fun () ->
          stats.Stats.policy_calls <- stats.Stats.policy_calls + 1;
          let results =
            List.map Executor.run_compiled entry.Executor.delta_variants
          in
          match List.concat_map (fun r -> r.Executor.out_rows) results with
          | [] -> Some None
          | rows ->
            let out_rows =
              Value.Key.dedup (fun (r : Executor.row_out) -> r.Executor.values) rows
            in
            let columns = (List.hd results).Executor.columns in
            Some (Some { Executor.columns; out_rows }))
    end

(* The relevance index's skip decision (see {!Relevance} for the full
   soundness argument): the policy is index-eligible, the accept proof
   still covers its dependencies (waived for TI-pinned policies, whose
   verdict is decided at the current tick alone), its enumerated filter
   sources are untouched, and no row of the tentative increment can
   bind any of its log slots. All of that together pins the result to
   the proved one: empty, so evaluation is skipped. Read-only over
   frozen state, so safe inside pool tasks. *)
let irrelevant ?available t (pl : plan) (p : Policy.t) : bool =
  t.config.relevance
  &&
  match Relevance.info pl.relevance p.Policy.name with
  | None -> false
  | Some info ->
    info.Relevance.eligible
    && begin
      Atomic.incr t.rel_checks;
      let skip =
        (info.Relevance.ti_pinned || Commit.covers t.commit info.Relevance.deps)
        && Relevance.blocked ?available (Database.catalog t.db) info
      in
      if skip then Atomic.incr t.rel_skips;
      skip
    end

type delta_stats = {
  eligible_plans : int;
  fallback_plans : int;
  delta_bases : int;
  delta_evals : int;
  full_evals : int;
}

let delta_stats t : delta_stats =
  let pl = plan t in
  let eligible, fallback =
    List.fold_left
      (fun (e, f) p ->
        if Option.is_some (delta_entry t p) then (e + 1, f) else (e, f + 1))
      (0, 0) pl.active
  in
  {
    eligible_plans = eligible;
    fallback_plans = fallback;
    delta_bases = (if Commit.recorded t.commit then eligible else 0);
    delta_evals = Atomic.get t.delta_evals;
    full_evals = Atomic.get t.full_evals;
  }

type relevance_stats = {
  rel_indexed : int;  (** active policies in the index *)
  rel_eligible : int;  (** of those, index-eligible *)
  rel_checks : int;  (** skip decisions consulted *)
  rel_skips : int;  (** policies skipped without evaluation *)
}

let relevance_stats t : relevance_stats =
  let idx = (plan t).relevance in
  {
    rel_indexed = Relevance.size idx;
    rel_eligible = Relevance.eligible_count idx;
    rel_checks = Atomic.get t.rel_checks;
    rel_skips = Atomic.get t.rel_skips;
  }

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

(* Process-wide (the compilers' counters are shared across engines, like
   [Executor.rows_examined]); [vec_enabled] is this engine's config, and
   the layout census walks this engine's columnar mirrors. *)
let vector_stats t : vector_stats =
  let typed, mixed, dict_entries =
    let cat = Database.catalog t.db in
    List.fold_left
      (fun (ty, mx, de) name ->
        match Table.columnar (Catalog.find cat name) with
        | None -> (ty, mx, de)
        | Some store ->
          let t', m', d' = Column.layout_stats store in
          (ty + t', mx + m', de + d'))
      (0, 0, 0) (Catalog.table_names cat)
  in
  {
    vec_enabled = t.config.vectorized;
    vec_batches = Atomic.get Compile_batch.batches_built;
    vec_rows = Atomic.get Compile_batch.batch_rows;
    vec_fallbacks = Atomic.get Compile_batch.row_fallbacks;
    vec_hist = Compile_batch.hist_snapshot ();
    vec_typed_cols = typed;
    vec_mixed_cols = mixed;
    vec_dict_entries = dict_entries;
  }

(* The one per-policy route: the relevance index's skip (the increment
   cannot touch the policy), then the delta plans, then — with [full] —
   a full evaluation. [Some None]: the policy holds; [Some (Some r)]: it
   fires with rows [r]; [None]: undecided, which only happens without
   [full] (the union strategy defers those policies to Algorithm 1's
   single UNION). *)
let decide ?(full = true) t ~(stats : Stats.t) (pl : plan) (p : Policy.t) :
    Executor.result option option =
  if irrelevant t pl p then Some None
  else
    match delta_try t ~stats p with
    | Some _ as verdict -> verdict
    | None -> if full then Some (eval_query t ~stats p.Policy.query) else None

(* Full evaluation of a policy batch: the policies of one submission are
   mutually independent read-only queries over the frozen tentative
   state, one {!fan_out} task each, so the violation list keeps
   registration-rank order. *)
let eval_full t (sub : submission) (pool : Parallel.Pool.t option) (pl : plan)
    (ps : Policy.t list) : (Policy.t * string) list =
  List.concat
    (fan_out t sub pool
       (fun stats p ->
         match decide t ~stats pl p with
         | Some (Some r) -> List.map (fun m -> (p, m)) (messages_of_result p r)
         | Some None | None -> [])
       ps)

(* Observer of each increment-probe decision, for the differential test
   against the source-tid check (see the mli). *)
let probe_observer :
    (Database.t -> Ast.query -> floors:(string * int) list -> kept:bool -> unit)
    option
    ref =
  ref None

(* Whether a tick-pinned probe ({!Partial.at_tick}) returns a row,
   charged as a policy evaluation. Through the clock-eliminated
   plan the pin is a [ts]-index probe, whatever the log's size. *)
let probe_hits t ~(stats : Stats.t) (q : Ast.select) : bool =
  Stats.timed
    (fun d -> stats.Stats.policy_eval <- stats.Stats.policy_eval +. d)
    (fun () ->
      stats.Stats.policy_calls <- stats.Stats.policy_calls + 1;
      not (Prepared.is_empty t.prepared ~share:t.config.shared_scans (Ast.Select q)))

(* Interleaved policy evaluation (Algorithm 3). Returns violations. *)
let run_interleaved t (sub : submission) (pool : Parallel.Pool.t option)
    (pl : plan) : (Policy.t * string) list =
  let is_log = is_log t in
  let needed =
    List.sort_uniq String.compare
      (List.concat_map (fun p -> p.Policy.log_rels) pl.inter)
  in
  let gens = List.filter (fun g -> List.mem (lc g.Usage_log.relation) needed) t.generators in
  let remaining = ref pl.inter in
  let prune counter =
    Atomic.incr counter;
    false
  in
  List.iter
    (fun g ->
      (* A stored relation left ungenerated once every policy is pruned
         is {!accept}'s to generate or skip. *)
      if !remaining <> [] then begin
        let rel = lc g.Usage_log.relation in
        gen_rel t sub rel;
        let available = Hashtbl.fold (fun r _ acc -> r :: acc) sub.generated [] in
        (* One partial-policy check per remaining policy that reads
           [rel]: independent read-only queries over the logs generated
           so far (this generator's increment is already appended), one
           {!fan_out} task each; the filter keeps input order. *)
        let keep stats p =
          let partial () =
            Partial.of_query ~is_log ~available p.Policy.query
          in
          (* Checked only at a stage that generated one of its own log
             relations. At any other stage its relevance verdict, πS and
             probe are the queries of its last check over the same rows,
             and that check kept it; before its first relation, πS is
             log-free, and no increment can change it. *)
          if not (List.mem rel p.Policy.log_rels) then true
          (* The relevance index first: the slots restricted to the
             relations generated so far, whose deltas are final. A
             skipped policy is proved to hold outright — no partial
             check now, no full evaluation later. *)
          else if irrelevant ~available t pl p then false
          else if not p.Policy.interleavable then
            (* Admitted via core-prunability: the monotone HAVING-stripped
               core instead of πS (empty core ⇒ π empty). *)
            eval_query t ~stats (Partial.strip_having (partial ())) <> None
            || prune t.empty_prunes
          else
            (* Once every log relation is available, πS is the policy
               itself, and a delta verdict decides its emptiness. *)
            let covered =
              List.for_all (fun r -> List.mem r available) p.Policy.log_rels
            in
            match if covered then delta_try t ~stats p else None with
            | Some None -> prune t.empty_prunes
            | verdict -> (
              let pq = partial () in
              let nonempty () =
                Option.is_some verdict || eval_query t ~stats pq <> None
              in
              (* §4.3: a non-empty πS still prunes π unless it draws on
                 the increment, which its tick-pinned core tests. The
                 gate is [ts_joined]: a result row of π that draws on any
                 increment then has every log slot at the clock's tick,
                 so its image in πS draws on the increments generated so
                 far; and every binding of πS has its log slots at one
                 tick, so pinning all of them ({!Partial.at_tick}) tests
                 the same as pinning any one. A probe hit implies an SPJ
                 πS is non-empty, so only a grouped πS runs unpinned
                 too. *)
              let probe =
                match pq with
                | Ast.Select s when t.config.improved_partial && p.Policy.ts_joined ->
                  Option.map
                    (fun probe -> (probe, s.Ast.having <> None))
                    (Partial.at_tick ~is_log ~available { s with Ast.having = None })
                | Ast.Select _ | Ast.Union _ -> None
              in
              match probe with
              | None -> nonempty () || prune t.empty_prunes
              | Some (probe, grouped) ->
                let kept =
                  if grouped && not (nonempty ()) then prune t.empty_prunes
                  else probe_hits t ~stats probe || prune t.probe_prunes
                in
                Option.iter
                  (fun observe ->
                    observe t.db pq
                      ~floors:
                        (Hashtbl.fold
                           (fun rel sp acc -> (rel, Table.savepoint_tid sp) :: acc)
                           sub.generated [])
                      ~kept)
                  !probe_observer;
                kept)
        in
        remaining :=
          List.filter_map Fun.id
            (fan_out t sub pool
               (fun stats p -> if keep stats p then Some p else None)
               !remaining)
      end)
    gens;
  (* Policies still standing are evaluated in full: interleavable ones are
     genuine violations (S covers their relations), core-pruned ones may
     still be saved by their HAVING. *)
  eval_full t sub pool pl !remaining

(* Serial / union evaluation over a policy list. *)
let run_serial t (sub : submission) (pool : Parallel.Pool.t option) (pl : plan)
    (ps : Policy.t list) : (Policy.t * string) list =
  List.iter (fun p -> List.iter (gen_rel t sub) p.Policy.log_rels) ps;
  eval_full t sub pool pl ps

let run_union t (sub : submission) (pool : Parallel.Pool.t option) (pl : plan)
    (ps : Policy.t list) : (Policy.t * string) list =
  match ps with
  | [] -> []
  | first :: _ ->
    List.iter (fun p -> List.iter (gen_rel t sub) p.Policy.log_rels) ps;
    (* Policies the relevance index or the delta plans decide peel off
       the UNION: each delta-decided one contributes its violation rows
       (all-constant projections, so exactly the rows full evaluation
       would add). The rest evaluate through Algorithm 1's single UNION.
       Both row sets feed the same message extraction below, keeping the
       outcome identical to all-full evaluation. *)
    let decided =
      fan_out t sub pool
        (fun stats p -> (p, decide ~full:false t ~stats pl p))
        ps
    in
    let delta_rows =
      List.concat_map
        (function
          | _, Some (Some r) -> r.Executor.out_rows
          | _, (Some None | None) -> [])
        decided
    in
    let fallback =
      List.filter_map
        (function p, None -> Some p | _, Some _ -> None)
        decided
    in
    let union_rows =
      match fallback with
      | [] -> []
      | f :: rest -> (
        let union_q =
          List.fold_left
            (fun acc p ->
              Ast.Union { all = false; left = acc; right = p.Policy.query })
            f.Policy.query rest
        in
        match eval_query t ~stats:sub.stats union_q with
        | None -> []
        | Some r -> r.Executor.out_rows)
    in
    let messages = string_messages (union_rows @ delta_rows) in
    let hits =
      List.filter_map
        (fun p ->
          if List.mem p.Policy.message messages then Some (p, p.Policy.message)
          else None)
        ps
    in
    (* Messages no registered message claims — a unified policy's lifted
       member messages — are attributed to [first] so none are dropped
       from the rejection, whether or not other policies also fired. *)
    let claimed = List.map snd hits in
    let extras = List.filter (fun m -> not (List.mem m claimed)) messages in
    hits @ List.map (fun m -> (first, m)) extras

(* Submission -------------------------------------------------------------- *)

(* Accept: the commit — §4.3's generate-or-skip of every stored
   relation that checking did not generate, then compaction
   ({!Commit.run}), which marks skipped ones too and records the
   committed state the accept proof covers — made durable as
   {!Durable.commit} decides. *)
let accept t (sub : submission) (pool : Parallel.Pool.t option) (pl : plan)
    ~(now : int) =
  List.iter
    (fun rel ->
      if
        (not (Hashtbl.mem sub.generated rel))
        && not
             (t.config.log_compaction && t.config.preemptive
             && Commit.preemptively_empty t.commit pl ~share:t.config.shared_scans
                  ~generated:sub.generated rel)
      then gen_rel t sub rel)
    pl.store_rels;
  let c =
    Commit.run t.commit pl ~compaction:t.config.log_compaction
      ~share:t.config.shared_scans ~generated:sub.generated ~now
      ~stats:sub.stats
      ~map:{ Commit.map = (fun f xs -> fan_out t sub pool f xs) }
  in
  Option.iter
    (fun d ->
      Stats.timed
        (fun x -> sub.stats.Stats.persist <- sub.stats.Stats.persist +. x)
        (fun () -> Durable.commit d ~now c))
    t.durable

(* Does [q] read a log relation or the clock, which change inside an
   admission? *)
let reads_log t (q : Ast.query) =
  Analysis.log_relations
    ~is_log:(fun rel -> rel = Usage_log.clock_relation || is_log t rel)
    q
  <> []

(* Under [Table.debug_checks]: the answer handed back from the lineage
   run is the compiled plan's, row for row. *)
let check_answer (answer : Executor.result) (compiled : Executor.compiled) =
  let plan = Executor.run_compiled compiled in
  let same_row (a : Executor.row_out) (b : Executor.row_out) =
    Array.length a.Executor.values = Array.length b.Executor.values
    && Array.for_all2 (fun x y -> Value.compare x y = 0) a.Executor.values b.Executor.values
  in
  if
    answer.Executor.columns <> plan.Executor.columns
    || List.compare_lengths answer.Executor.out_rows plan.Executor.out_rows <> 0
    || not (List.for_all2 same_row answer.Executor.out_rows plan.Executor.out_rows)
  then Errors.runtime_error "lineage-run answer differs from the compiled plan's"

(* The admitted query's answer, charging [stats.query_exec]. When
   provenance was generated and the query reads neither the log nor the
   clock, the lineage run is the answer: only log relations change
   inside an admission, and the row path that run took returns the
   compiled plan's rows in the same order. Any other query runs its
   compiled plan over the committed state. *)
let answer t (sub : submission) (compiled : Executor.compiled) : Executor.result =
  Stats.timed
    (fun d -> sub.stats.Stats.query_exec <- sub.stats.Stats.query_exec +. d)
    (fun () ->
      match sub.ctx.Usage_log.lineage_run with
      | Some run when not (reads_log t sub.ctx.Usage_log.query) ->
        if !Table.debug_checks then check_answer run compiled;
        run
      | Some _ | None -> Executor.run_compiled compiled)

(* The tick premise: every committed log row carries a tick below [now],
   the first one a submission stamps (§3.1; the TI waiver, the §4.3
   probes and the incremental mark rest on it, and only the engine
   writes the log). Rows are appended in tick order, so each relation's
   last row decides. Checked under [Table.debug_checks]. *)
let check_ticks_below t now =
  if !Table.debug_checks then
    List.iter
      (fun (g : Usage_log.generator) ->
        (* [ts] leads every generator's schema ({!Usage_log.full_schema}). *)
        match Table.last (Database.table t.db g.Usage_log.relation) with
        | Some row when Value.compare (Row.cell row 0) (Value.Int now) >= 0 ->
          Errors.runtime_error "tick premise: %s holds a row at tick %s, not below %d"
            g.Usage_log.relation (Value.to_string (Row.cell row 0)) now
        | Some _ | None -> ())
      t.generators

let submit_ast t ~(uid : int) ?(extra = []) (query : Ast.query) : outcome =
  let pl = plan t in
  (* Bound before anything is generated: a query that fails to bind
     raises here, leaving the log and the clock as they were. *)
  let compiled = Prepared.prepare t.prepared query in
  let now = Usage_log.current_time t.db + 1 in
  check_ticks_below t now;
  Usage_log.set_clock t.db now;
  let sub =
    new_submission
      { Usage_log.uid; time = now; query; db = t.db; extra; lineage_run = None }
  in
  (* Any failure during checking (e.g. the user query itself is invalid
     and breaks the provenance function) must revert the tentative log,
     or the leaked savepoints would poison later submissions. *)
  let pool = pool_of t in
  match
    let violations =
      match t.config.strategy with
      | Union_all -> run_union t sub pool pl pl.active
      | Serial | Interleaved ->
        (* Algorithm 3 on the interleavable policies, then the rest in
           full, as in the §4.4 online phase ([Serial] plans leave no
           policy interleavable). *)
        let v1 = run_interleaved t sub pool pl in
        let v2 = run_serial t sub pool pl pl.rest in
        v1 @ v2
    in
    if violations <> [] then begin
      (* Reject: revert the tentative log (Eq. 1). *)
      rollback t sub;
      Rejected (List.map snd violations, sub.stats)
    end
    else begin
      accept t sub pool pl ~now;
      Accepted (answer t sub compiled, sub.stats)
    end
  with
  | outcome -> outcome
  | exception e ->
    rollback t sub;
    raise e

let submit t ~uid ?extra sql = submit_ast t ~uid ?extra (Parser.query sql)

let counters t : (string * string) list =
  let i = string_of_int in
  let plan_hits, plan_misses = plan_cache_stats t in
  let pl = plan t in
  let d = delta_stats t in
  let r = relevance_stats t in
  let shared_hits, shared_misses = Prepared.shared_stats t.prepared in
  let v = vector_stats t in
  let delta_marks, full_marks = Commit.marks t.commit in
  let vhist =
    (* label:count pairs; bucket upper bounds, "max" for the open tail *)
    let labels = [| "16"; "256"; "4096"; "65536"; "max" |] in
    String.concat " "
      (Array.to_list
         (Array.mapi (fun k n -> Printf.sprintf "%s:%d" labels.(k) n) v.vec_hist))
  in
  let fsyncs, wal =
    match t.durable with
    | None -> (0, 0)
    | Some d -> Persistence.Store.(fsyncs (Durable.store d), wal_records (Durable.store d))
  in
  [
    ("plan-cache-hits", i plan_hits);
    ("plan-cache-misses", i plan_misses);
    ("index-probes", i (Atomic.get Executor.index_probes));
    ("parallel-domains", i t.config.domains);
    ("parallel-batches", i t.par_batches);
    ("parallel-tasks", i t.par_tasks);
    ("delta-eligible", i d.eligible_plans);
    ("delta-fallback", i d.fallback_plans);
    ("delta-bases", i d.delta_bases);
    ("delta-evals", i d.delta_evals);
    ("full-evals", i d.full_evals);
    ("unify-registered", i (List.length t.registered_rev));
    ("unify-active", i (List.length pl.active));
    ("unify-groups", i (List.length pl.unified_groups));
    ( "unify-members",
      i (List.fold_left (fun n (g : Unify.group) -> n + List.length g.Unify.members) 0 pl.unified_groups) );
    ("relevance-indexed", i r.rel_indexed);
    ("relevance-eligible", i r.rel_eligible);
    ("relevance-checks", i r.rel_checks);
    ("relevance-skips", i r.rel_skips);
    ("partial-empty-prunes", i (Atomic.get t.empty_prunes));
    ("partial-probe-prunes", i (Atomic.get t.probe_prunes));
    ("shared-scan-hits", i shared_hits);
    ("shared-scan-misses", i shared_misses);
    ("vector-enabled", if v.vec_enabled then "1" else "0");
    ("vector-batches", i v.vec_batches);
    ("vector-rows", i v.vec_rows);
    ("vector-fallbacks", i v.vec_fallbacks);
    ("vector-hist", vhist);
    ("vector-typed-cols", i v.vec_typed_cols);
    ("vector-mixed-cols", i v.vec_mixed_cols);
    ("vector-dict-entries", i v.vec_dict_entries);
    ("witness-delta-marks", i delta_marks);
    ("witness-full-marks", i full_marks);
    ("witness-preemptive-skips", i (Commit.preemptive_skips t.commit));
    ("group-commit-fsyncs", i fsyncs);
    ("wal-records", i wal);
  ]

(* Batched admission ------------------------------------------------------- *)

type batch_submission = {
  batch_uid : int;
  batch_extra : (string * Value.t) list;
  batch_query : Ast.query;
}

(* Admit a batch of concurrent submissions in arrival order, each
   exactly as {!submit_ast} admits it alone, so the verdicts, the log and
   the clock are the one-at-a-time ones. A member's exception is caught
   for that member alone (the engine rolls its tentative state back
   before the exception escapes [submit_ast]), so one poisoned submission
   never swallows its batch-mates' verdicts. *)
let submit_batch t subs =
  List.map
    (fun s ->
      match submit_ast t ~uid:s.batch_uid ~extra:s.batch_extra s.batch_query with
      | o -> Ok o
      | exception e -> Error e)
    subs

(* Persistence ------------------------------------------------------------- *)

let persist_store t = Option.map Durable.store t.durable

(* A current plan first: it brings the scope up to date. *)
let persist_checkpoint t =
  Option.iter
    (fun d ->
      ignore (plan t);
      Durable.checkpoint d)
    t.durable

let close t =
  Option.iter Durable.close t.durable;
  t.durable <- None;
  (* Join the shared evaluation domains so a long-running process (the
     policy server, the REPL) exits cleanly instead of leaking domains.
     Pools are process-wide: other engines (and this one, which stays
     usable) transparently refetch a fresh pool from the registry on
     their next parallel batch. *)
  t.pool <- None;
  Parallel.Pool.shutdown_shared ()
