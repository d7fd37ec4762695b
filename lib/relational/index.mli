(** Maintained secondary indexes: one column's value → tuple ids.

    [Hash] indexes serve equality lookups; [Sorted] indexes additionally
    serve range scans. Entry semantics follow {!Value.equal} ([Null] is
    stored under its own key; integral floats collapse onto ints); SQL's
    NULL rules are the caller's concern — the compiled access path gates
    NULL probes, and {!range} always skips the [Null] key.

    Indexes store tids, never rows: the owning {!Table} maintains them
    across mutation and resolves tids back to rows. *)

type kind = Hash | Sorted

type t

val create : name:string -> column:int -> column_name:string -> kind -> t
val name : t -> string

(** Column position in the owning table's schema. *)
val column : t -> int

val column_name : t -> string
val kind : t -> kind

(** Number of (value, tid) entries — equals the owning table's row count
    when the index is consistent. *)
val entries : t -> int

val kind_to_string : kind -> string

(** Register [tid] under [v]. Newest tids sit at the bucket head, so a
    savepoint rollback removes from the head. *)
val add : t -> Value.t -> int -> unit

(** Remove one occurrence of [tid] from [v]'s bucket; no-op if absent.
    O(1) when [tid] is the bucket head (the rollback case). *)
val remove : t -> Value.t -> int -> unit

(** [remove_all t keys dead] drops every tid satisfying [dead] from the
    buckets of [keys] (duplicates allowed), filtering each touched bucket
    once — linear in the touched buckets' sizes, however many tids die
    (the compaction case). *)
val remove_all : t -> Value.t list -> (int -> bool) -> unit

(** Drop every entry (the definition survives; used by [Table.clear]). *)
val clear : t -> unit

(** Tids whose cell is {!Value.equal} to [v]; unsorted. *)
val lookup : t -> Value.t -> int list

type bound = Value.t * bool  (** value, inclusive? *)

(** Tids whose non-[Null] cell lies within the bounds under
    {!Value.compare}; unsorted.
    @raise Errors.Sql_error on a [Hash] index. *)
val range : t -> ?lo:bound -> ?hi:bound -> unit -> int list

val pp : Format.formatter -> t -> unit
