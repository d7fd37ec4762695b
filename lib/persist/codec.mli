(** Binary codec for {!Relational.Value.t} rows and the scalar
    primitives the WAL, snapshot and catalog formats are built from.

    All integers are little-endian and fixed-width; strings and row/row
    lists are length-prefixed. Floats round-trip exactly (IEEE 754 bit
    pattern), so a recovered log relation is byte-identical to the one
    that was written. Decoding is defensive: any malformed input raises
    {!Corrupt} rather than producing a wrong value. *)

open Relational

(** Malformed or truncated input. The recovery layer turns this into a
    {!Recovery.Recovery_error} with file context. *)
exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a

(** {1 Encoding} — writers append to a [Buffer.t]. *)

val w_u8 : Buffer.t -> int -> unit
val w_u32 : Buffer.t -> int -> unit

(** 63-bit OCaml int as a little-endian 64-bit word. *)
val w_i64 : Buffer.t -> int -> unit

val w_string : Buffer.t -> string -> unit
val w_ty : Buffer.t -> Ty.t -> unit
val w_value : Buffer.t -> Value.t -> unit
val w_row : Buffer.t -> Value.t array -> unit
val w_rows : Buffer.t -> Value.t array list -> unit

(** The bytes {!w_row} writes for a row, without writing them. *)
val row_size : Value.t array -> int

(** {1 Decoding} — a cursor over an immutable string. *)

type cursor

val cursor : string -> cursor

(** Bytes not yet consumed. *)
val remaining : cursor -> int

val r_u8 : cursor -> int
val r_u32 : cursor -> int
val r_i64 : cursor -> int
val r_string : cursor -> string
val r_ty : cursor -> Ty.t
val r_value : cursor -> Value.t
val r_row : cursor -> Value.t array
val r_rows : cursor -> Value.t array list

(** Assert the cursor is exhausted; raises {!Corrupt} on trailing bytes
    (a sign of a version mismatch or corruption). *)
val expect_end : cursor -> unit
