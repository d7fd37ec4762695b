(** Prepared-plan cache.

    The engine evaluates the same policy, partial-policy and witness
    queries on every submission; binding, optimizing and closure-compiling
    them each time dominated the per-submission overhead. This cache keys
    compiled plans by (query AST, execution options) and revalidates
    against {!Relational.Catalog.generation} — the single invalidation
    counter shared with PR 1's persistence-scope recompute: DDL bumps it
    structurally, and the engine bumps it explicitly ({!Catalog.touch})
    whenever it invalidates its evaluation plan (config changes, policy
    registration), so a stale compiled plan can never outlive the state
    it was compiled against.

    Domain safety: the cache is sharded per domain. Each domain that
    ever prepares a query through this cache gets a private shard (keyed
    by its domain id), so a compiled plan — a closure whose execution is
    re-entrant but whose ownership story we keep trivially safe — is
    only ever fetched and executed by the domain that compiled it. The
    engine's parallel batches therefore compile each hot query once per
    participating domain (bounded, small) instead of taking a lock on
    every policy evaluation. Only the shard-lookup table itself is
    mutex-protected; all per-shard state is single-domain.

    The engine only bumps the catalog generation while no parallel batch
    is in flight (tables are frozen for the span of a batch), so a
    worker revalidating its shard mid-batch always sees a stable
    generation.

    Compilation failures are never cached: a query that fails to bind
    raises on every call, exactly as the uncached executor did. *)

open Relational

type key = {
  q : Ast.query;
  lineage : bool;
  track_src : bool;
  share : bool;
}

type shard = {
  cache : (key, Executor.compiled) Hashtbl.t;
  delta : (Ast.query, Executor.delta_compiled option) Hashtbl.t;
      (** delta-plan derivations keyed by query, [None] caching
          ineligibility *)
  mutable gen : int;
  mutable hits : int;
  mutable misses : int;
}

type t = {
  cat : Catalog.t;
  lock : Mutex.t;  (** guards [shards]; per-shard state is domain-private *)
  shards : (int, shard) Hashtbl.t;  (** domain id -> private shard *)
  shared : Compile_batch.build_side Shared_cache.t;
      (** cross-domain materialization cache behind shared scan slots:
          compiled plans stay domain-private, but the immutable batches
          their shared scan prefixes produce, and the join tables built
          over them, are served from here, so one domain's
          materialization feeds every policy, witness and probe plan
          while the table's version holds. Self-validating against
          (generation, table version) — no [sync] discipline needed *)
  mutable vectorized : bool;
      (** route for [prepare]/[prepare_delta]; not part of any cache key,
          so a change must come with a catalog generation bump (the
          engine's [set_config] invalidates) *)
}

(* Policy, witness and probe queries are fixed per evaluation plan, but
   admitted user queries run through the cache too, and a long-running
   engine can see any number of distinct ones; a full reset at capacity
   bounds memory without bookkeeping on the hot path. *)
let capacity = 1024

let create (cat : Catalog.t) : t =
  {
    cat;
    lock = Mutex.create ();
    shards = Hashtbl.create 4;
    shared = Shared_cache.create ();
    vectorized = false;
  }

let set_vectorized t v = t.vectorized <- v

let shard_for t : shard =
  let id = (Domain.self () :> int) in
  Mutex.lock t.lock;
  let s =
    match Hashtbl.find_opt t.shards id with
    | Some s -> s
    | None ->
      let s =
        {
          cache = Hashtbl.create 64;
          delta = Hashtbl.create 16;
          gen = Catalog.generation t.cat;
          hits = 0;
          misses = 0;
        }
      in
      Hashtbl.add t.shards id s;
      s
  in
  Mutex.unlock t.lock;
  s

let sync t (s : shard) =
  let g = Catalog.generation t.cat in
  if g <> s.gen then begin
    Hashtbl.reset s.cache;
    Hashtbl.reset s.delta;
    s.gen <- g
  end

(* Clock elimination is how every query joining the clock compiles
   ({!Optimizer.eliminate_clock}): the clock's tick is read at execution
   time, so a [ts] pinned to it probes the log's [ts] index, and one
   compiled plan serves every tick. The rewrite assumes the clock holds
   exactly one row, which holds by construction: only
   {!Usage_log.set_clock} writes it ({!Catalog.writable}). Lineage runs
   as written: the eliminated plan would drop the clock's lineage. *)
let compile t ~(opts : Executor.opts) ~shared (q : Ast.query) : Executor.compiled =
  let written = Plan.of_query t.cat q in
  let plan =
    if opts.Executor.lineage then written
    else
      Option.value ~default:written
        (Optimizer.eliminate_clock t.cat ~clock_rel:Usage_log.clock_relation written)
  in
  Executor.compile ~opts ~vectorized:t.vectorized ?shared t.cat (Optimizer.optimize t.cat plan)

let prepare t ?(opts = Executor.default_opts) ?(share = false)
    (q : Ast.query) : Executor.compiled =
  let s = shard_for t in
  sync t s;
  (* Lineage runs stay on the row path, which never shares, so don't
     fragment the cache key space over the flag. Source-tracking runs
     share: cached batches carry source tids. *)
  let share = share && not opts.Executor.lineage in
  let k =
    {
      q;
      lineage = opts.Executor.lineage;
      track_src = opts.Executor.track_src;
      share;
    }
  in
  match Hashtbl.find_opt s.cache k with
  | Some c ->
    s.hits <- s.hits + 1;
    c
  | None ->
    let shared = if share then Some t.shared else None in
    let c = compile t ~opts ~shared q in
    if Hashtbl.length s.cache >= capacity then Hashtbl.reset s.cache;
    Hashtbl.replace s.cache k c;
    s.misses <- s.misses + 1;
    c

(* Delta derivations share the shard discipline: derived once per
   (domain, generation), ineligibility cached as [None] so the
   eligibility analysis also runs at most once per query. *)
let prepare_delta t ~is_log ~clock_rel (q : Ast.query) :
    Executor.delta_compiled option =
  let s = shard_for t in
  sync t s;
  match Hashtbl.find_opt s.delta q with
  | Some d -> d
  | None ->
    let d =
      Executor.prepare_delta ~vectorized:t.vectorized t.cat ~is_log ~clock_rel q
    in
    if Hashtbl.length s.delta >= capacity then Hashtbl.reset s.delta;
    Hashtbl.replace s.delta q d;
    d

let run t ?opts ?share q = Executor.run_compiled (prepare t ?opts ?share q)

let is_empty t ?opts ?share q = (run t ?opts ?share q).Executor.out_rows = []

(* Aggregated over all shards. Called from the coordinating domain
   between batches; the lock only orders shard creation against us. *)
let stats t =
  Mutex.lock t.lock;
  let hits, misses =
    Hashtbl.fold
      (fun _ s (h, m) -> (h + s.hits, m + s.misses))
      t.shards (0, 0)
  in
  Mutex.unlock t.lock;
  (hits, misses)

let shared_stats t = Shared_cache.stats t.shared

let clear t =
  Mutex.lock t.lock;
  Hashtbl.iter
    (fun _ s ->
      Hashtbl.reset s.cache;
      Hashtbl.reset s.delta)
    t.shards;
  Mutex.unlock t.lock;
  Shared_cache.clear t.shared
