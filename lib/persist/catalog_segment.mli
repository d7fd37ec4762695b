(** Policy catalog segments: the registered-policy set, in registration
    order, as one immutable {!Framed} file behind a [DLCAT] header.

    A catalog is written once, under the generation of the checkpoint
    that first needs it, and is shared by every later snapshot until a
    policy is added or removed — so a checkpoint that only compacts the
    log does not re-serialise the policies. *)

val write : string -> Record.policy_rec list -> unit

(** @raise Codec.Corrupt on checksum or format errors. *)
val read : string -> Record.policy_rec list
