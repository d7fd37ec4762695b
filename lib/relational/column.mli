(** Typed columnar table storage for the vectorized executor.

    An opt-in decomposed mirror of a table's heap in heap (= tid) order,
    with an unboxed physical layout per column chosen from its declared
    type: INT and FLOAT cells in flat [int array] / [float array] plus a
    null bitmap ({!Bitvec}), BOOL as 0/1/2 ints (2 = NULL in-band), TEXT
    as per-column dictionary codes (-1 = NULL), and a boxed Mixed
    fallback for columns that turn out heterogeneous at runtime (an INT
    value stored into a FLOAT column must round-trip as [Value.Int]).

    {!Table} maintains the store across every mutation path exactly as
    it maintains secondary indexes, so batch scans can borrow the backing
    arrays without copying; positions double as heap row numbers, and
    the delta watermark becomes a contiguous suffix slice.

    Dictionaries are append-only between rebuilds (rollback and deletion
    drop codes but keep interned strings, until deletion leaves a
    dictionary mostly dead); update and clear rebuild the columns from
    the schema, which restores dense codes and re-promotes demoted
    columns, and deletion re-promotes them too. *)

type t

(** Test/bench hook: lay out every column of subsequently created stores
    as Mixed (the boxed pre-typed representation), so benches can compare
    typed vs boxed on identical kernels. *)
val force_mixed : bool ref

val create : schema:Schema.t -> t
val width : t -> int

(** Number of mirrored rows (always the table's row count). *)
val length : t -> int

(** Append one row's cells (arity [width]) with its tuple id. *)
val append : t -> tid:int -> Value.t array -> unit

(** Drop all rows at positions [>= n] (savepoint rollback). Dictionary
    entries interned by dropped rows are kept — codes stay stable. *)
val truncate : t -> int -> unit

(** Reset to empty, recreating each column from the schema (fresh
    dictionaries, typed layouts restored). *)
val clear : t -> unit

(** Keep the positions [keep] accepts, in order, dropping the rest from
    every column and the tid vector in one pass (deletion). Typed layouts
    are kept; a Mixed column whose surviving cells all fit its declared
    type re-promotes. Dictionaries and their codes are kept too, unless a
    dictionary holds more than twice as many strings as its column has
    rows: it is then re-interned from the surviving codes. *)
val filter_in_place : t -> (int -> bool) -> unit

(** Refill from the heap in one pass (in-place update).
    Columns are recreated first, so dictionary codes come out dense and
    demoted columns re-promote. *)
val rebuild :
  t -> row_count:int -> ((tid:int -> Value.t array -> unit) -> unit) -> unit

(** {1 Dictionaries} *)

(** A TEXT column's string dictionary. Compare handles with [==] to
    detect that two views share a code space. *)
type dict

(** Number of interned strings; codes are [0 .. dict_size - 1]. *)
val dict_size : dict -> int

(** The code for a string, when interned. *)
val dict_find : dict -> string -> int option

(** The string behind a code (must be [< dict_size]). *)
val dict_string : dict -> int -> string

(** {1 Zero-copy views}

    Backing arrays, valid in [0, length t). Read-only; do not hold
    across a mutation (the engine freezes tables for the span of an
    evaluation, and the shared caches revalidate on {!Table.ver_mut}, so
    compiled plans respect both by construction). The constructors are
    public so the batch compiler can build gathered / transposed batches
    in the same shape. *)

type view =
  | V_int of int array * Bitvec.t
  | V_float of float array * Bitvec.t
  | V_bool of int array  (** 0 = false, 1 = true, 2 = NULL *)
  | V_str of int array * dict  (** dictionary codes, -1 = NULL *)
  | V_mixed of Value.t array

val view : t -> int -> view
val views : t -> view array

(** Boxed read of one position of a view (allocates for Int/Float/Str;
    the typed kernels bypass it). *)
val view_value : view -> int -> Value.t

(** Zero-copy view of the tid vector, same contract as {!views}. *)
val tids : t -> int array

val tid_at : t -> int -> int

(** First position whose tid is [>= base] — the start of the delta
    slice; [length t] when every row is below the watermark. *)
val delta_start : t -> base:int -> int

(** (typed columns, Mixed columns, total dictionary entries) — layout
    accounting for engine stats. *)
val layout_stats : t -> int * int * int
