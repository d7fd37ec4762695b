(** Cross-plan cache of materialized base-relation build sides.

    Policy, witness and probe plans read the same base relations on
    every admission: the log-scan-plus-filter prefix several policies of
    one admission begin with, and the base tables (ban lists,
    unification's constants tables) their joins build hash tables over.
    {!Compile_batch} decides, per scan slot while a plan compiles, which
    prefixes go through this cache. The first executing plan
    materializes the prefix once, and every other plan — of this
    admission or a later one — reuses it instead of re-scanning the
    table.

    Entries are self-validating: each records the catalog generation and
    the source table's {!Table.ver_mut} at materialization time, and a
    lookup only hits while both still match. Any mutation of the table —
    a tentative log increment, a commit, a rollback, DML — bumps
    [ver_mut] and silently retires the entry, so no explicit
    invalidation call is needed. A base relation's entry therefore lives
    across admissions exactly while its version holds, and a log
    relation's, which every admission moves, never outlives the state it
    was read from. The first miss under a newer catalog generation drops
    every entry of older generations, which can never hit again.

    Thread safety: one mutex guards the table, and it is held across a
    miss's [compute] so concurrent pool domains evaluating policies wait
    for the single materialization instead of duplicating it. [compute]
    must therefore be a pure read (the compiler's materializers only
    fold tables) — it must never call back into the cache. {!locked}
    runs other one-time builds over an entry under the same mutex.
    Hit/miss counters are atomics so {!stats} can be read
    concurrently. *)

type 'a entry = { gen : int; ver : int; rows : 'a }

type 'a t = {
  lock : Mutex.t;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable newest_gen : int;  (** the newest generation a miss has seen *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create () : 'a t =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 32;
    newest_gen = min_int;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let locked (t : 'a t) f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_or_compute (t : 'a t) ~(gen : int) ~(ver : int) ~(tag : string)
    (compute : unit -> 'a) : 'a =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl tag with
      | Some e when e.gen = gen && e.ver = ver ->
        Atomic.incr t.hits;
        e.rows
      | Some _ | None ->
        Atomic.incr t.misses;
        if gen > t.newest_gen then begin
          t.newest_gen <- gen;
          Hashtbl.filter_map_inplace
            (fun _ e -> if e.gen < gen then None else Some e)
            t.tbl
        end;
        let rows = compute () in
        Hashtbl.replace t.tbl tag { gen; ver; rows };
        rows)

let stats (t : 'a t) = (Atomic.get t.hits, Atomic.get t.misses)

let size (t : 'a t) = locked t (fun () -> Hashtbl.length t.tbl)

let clear (t : 'a t) = locked t (fun () -> Hashtbl.reset t.tbl)
