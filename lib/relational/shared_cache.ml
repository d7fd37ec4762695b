(** Cross-plan cache of materialized shared subplans.

    Several policy plans of one admission frequently begin with the same
    log-scan-plus-filter prefix; {!Compile_batch} decides, per scan slot
    while a plan compiles, which prefixes go through this cache. The
    first executing plan materializes the prefix once and every other
    plan reuses the batch, instead of each re-scanning the table.

    Entries are self-validating: each records the catalog generation and
    the source table's {!Table.ver_mut} at materialization time, and a
    lookup only hits while both still match. Any mutation of the table —
    a tentative log increment, a commit, a rollback, DML — bumps
    [ver_mut] and silently retires the entry, so no explicit
    invalidation call is needed and a cached prefix can never leak
    across admissions (or across the interleaved strategy's
    generate-then-check rounds within one).

    Thread safety: one mutex guards the table, and it is held across a
    miss's [compute] so concurrent pool domains evaluating policies wait
    for the single materialization instead of duplicating it. [compute]
    must therefore be a pure read (the compiler's materializers only
    fold tables) — it must never call back into the cache. Hit/miss
    counters are atomics so {!stats} can be read concurrently. *)

type 'a entry = { gen : int; ver : int; rows : 'a }

type 'a t = {
  lock : Mutex.t;
  tbl : (string, 'a entry) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create () : 'a t =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 32;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let find_or_compute (t : 'a t) ~(gen : int) ~(ver : int) ~(tag : string)
    (compute : unit -> 'a) : 'a =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Hashtbl.find_opt t.tbl tag with
      | Some e when e.gen = gen && e.ver = ver ->
        Atomic.incr t.hits;
        e.rows
      | Some _ | None ->
        Atomic.incr t.misses;
        let rows = compute () in
        Hashtbl.replace t.tbl tag { gen; ver; rows };
        rows)

let stats (t : 'a t) = (Atomic.get t.hits, Atomic.get t.misses)

let clear (t : 'a t) =
  Mutex.lock t.lock;
  Hashtbl.reset t.tbl;
  Mutex.unlock t.lock
