(** Cross-plan cache of materialized base-relation scan prefixes: a
    base-table scan plus its pushed-down conjuncts, and whatever
    {!Compile_batch} builds over it (the hash tables of joins that build
    on it), as {!Compile_batch} decides to share them while compiling a
    scan slot.

    Entries are keyed by the prefix's structural tag and self-validate
    against the catalog generation and the source table's
    {!Table.ver_mut} recorded at materialization time, so any table
    mutation retires them without explicit invalidation: an entry over
    an unchanged base relation lives across admissions while its version
    holds. The first miss under a newer generation drops every older
    generation's entry. Safe to share across the engine's pool domains:
    one mutex serializes materialization (a miss's [compute] runs under
    it, so concurrent readers wait for a single materialization);
    [compute] must be a pure read and must not re-enter the cache. *)

type 'a t

val create : unit -> 'a t

(** Return the cached value for [tag] if its recorded (generation,
    table-version) pair still equals [(gen, ver)]; otherwise run
    [compute], cache its result under [(gen, ver)], and return it. A miss
    under a generation newer than any seen before first drops every
    entry of an older generation. *)
val find_or_compute : 'a t -> gen:int -> ver:int -> tag:string -> (unit -> 'a) -> 'a

(** [locked t f] runs [f] under the mutex that serializes
    materialization: how a one-time build over a cached value is done
    once while other domains only read it. [f] must not re-enter the
    cache. *)
val locked : 'a t -> (unit -> 'b) -> 'b

(** (hits, misses) since creation. *)
val stats : 'a t -> int * int

(** The number of entries held. *)
val size : 'a t -> int

(** Drop every entry (the statistics survive). *)
val clear : 'a t -> unit
