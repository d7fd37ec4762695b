(** Framed segment files: the container shared by snapshots and policy
    catalogs.

    A framed file is [magic | u8 version | u8 0 | u32 payload-length |
    u32 CRC-32 of payload | payload]. {!write} goes through a temporary
    file that is fsynced, atomically renamed and made durable by a
    directory fsync, so a crash never leaves a half-written file under
    the real name. *)

(** The header's length: a framed file is this plus its payload. *)
val header_len : magic:string -> int

(** [write path ~magic ~version payload] atomically replaces [path]. *)
val write : string -> magic:string -> version:int -> string -> unit

(** fsyncs each {!write} issues: the file's and its directory's. *)
val write_fsyncs : int

(** The payload of [path], checked against [magic], [version], the
    length and the CRC. [what] names the file kind in error messages.
    @raise Codec.Corrupt on any mismatch (an unsupported version names
    the version found). *)
val read : string -> what:string -> magic:string -> version:int -> string
