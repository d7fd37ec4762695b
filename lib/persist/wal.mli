(** Append-only write-ahead log.

    A WAL file is an 8-byte header ([DLWAL] + format version) followed
    by framed records: [u32 payload-length][u32 CRC-32 of payload][payload].
    Appends go through a group-commit buffer whose flush/fsync cadence is
    set by the {!fsync_policy}:

    - {!Always}: every record is written and fsynced before {!append}
      returns — no accepted submission is ever lost;
    - [Interval n]: records are buffered and written + fsynced every
      [n] appends (and on {!flush}/{!close}) — a crash loses at most the
      last [n-1] commits;
    - {!Never}: records are written through the OS page cache and never
      fsynced — durability is delegated to the kernel (and to
      {!close}). *)

type fsync_policy = Always | Interval of int | Never

val pp_fsync_policy : Format.formatter -> fsync_policy -> unit

type t

(** Open for appending, creating the file (with its header) if missing
    or empty. The file must not be torn — run {!read} / {!truncate}
    first when recovering. *)
val open_append : path:string -> fsync:fsync_policy -> t

val path : t -> string

(** Records appended through this handle since it was opened. *)
val records_appended : t -> int

(** The file's length once buffered records are written: header, the
    records it held at open and every record appended since. *)
val bytes : t -> int

(** The length of the file header, the size of a WAL without records. *)
val header_len : int

(** fsync calls issued through this handle — the group-commit currency:
    one fsync may cover many appended records. *)
val fsyncs : t -> int

(** Frame one payload and append it, honoring the fsync policy. *)
val append : t -> string -> unit

(** Write any buffered records to the file; fsync unless the policy is
    {!Never} and [sync] is not forced. *)
val flush : ?sync:bool -> t -> unit

(** Flush, fsync (regardless of policy) and close the descriptor. *)
val close : t -> unit

(** Close the descriptor, dropping buffered records unwritten and
    syncing nothing: for a WAL that a durable snapshot has superseded
    and that is about to be deleted. *)
val discard : t -> unit

(** {1 Reading (recovery path)} *)

type read_result = {
  payloads : string list;  (** decoded record payloads, in append order *)
  valid_bytes : int;  (** file offset just past the last whole record *)
  torn : bool;  (** a final partial record was found (and not returned) *)
}

(** Sequentially read every whole record. A record cut short by a crash
    makes [torn] true and is dropped; a checksum mismatch or malformed
    header raises {!Codec.Corrupt} — that is corruption, not a torn
    tail, and must not be silently discarded. *)
val read : string -> read_result

(** Truncate a torn file to its valid prefix (recovery, before
    {!open_append}). *)
val truncate : string -> int -> unit
