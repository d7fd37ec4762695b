(** Cross-plan cache of materialized shared scan prefixes: a base-table
    scan plus its pushed-down conjuncts, as {!Compile_batch} decides to
    share them while compiling a scan slot.

    Entries are keyed by the prefix's structural tag and self-validate
    against the catalog generation and the source table's
    {!Table.ver_mut} recorded at materialization time, so any table
    mutation retires them without explicit invalidation. Safe to share
    across the engine's pool domains: one mutex serializes
    materialization (a miss's [compute] runs under it, so concurrent
    readers wait for a single materialization); [compute] must be a pure
    read and must not re-enter the cache. *)

type 'a t

val create : unit -> 'a t

(** Return the cached value for [tag] if its recorded (generation,
    table-version) pair still equals [(gen, ver)]; otherwise run
    [compute], cache its result under [(gen, ver)], and return it. *)
val find_or_compute : 'a t -> gen:int -> ver:int -> tag:string -> (unit -> 'a) -> 'a

(** (hits, misses) since creation. *)
val stats : 'a t -> int * int

(** Drop every entry (the statistics survive). *)
val clear : 'a t -> unit
