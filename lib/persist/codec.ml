open Relational

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* Encoding ---------------------------------------------------------------- *)

let w_u8 b n = Buffer.add_uint8 b (n land 0xff)
let w_u32 b n = Buffer.add_int32_le b (Int32.of_int n)
let w_i64 b n = Buffer.add_int64_le b (Int64.of_int n)

let w_string b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let ty_tag = function Ty.Int -> 0 | Ty.Float -> 1 | Ty.Bool -> 2 | Ty.Text -> 3

let w_ty b ty = w_u8 b (ty_tag ty)

let w_value b = function
  | Value.Null -> w_u8 b 0
  | Value.Bool false -> w_u8 b 1
  | Value.Bool true -> w_u8 b 2
  | Value.Int n ->
    w_u8 b 3;
    w_i64 b n
  | Value.Float f ->
    w_u8 b 4;
    Buffer.add_int64_le b (Int64.bits_of_float f)
  | Value.Str s ->
    w_u8 b 5;
    w_string b s

let w_row b cells =
  w_u32 b (Array.length cells);
  Array.iter (w_value b) cells

let w_rows b rows =
  w_u32 b (List.length rows);
  List.iter (w_row b) rows

let value_size = function
  | Value.Null | Value.Bool _ -> 1
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 5 + String.length s

let row_size cells = Array.fold_left (fun n v -> n + value_size v) 4 cells

(* Decoding ---------------------------------------------------------------- *)

type cursor = { buf : string; mutable pos : int }

let cursor s = { buf = s; pos = 0 }

let remaining c = String.length c.buf - c.pos

let need c n =
  if remaining c < n then
    corrupt "truncated payload: need %d bytes at offset %d of %d" n c.pos
      (String.length c.buf)

let r_u8 c =
  need c 1;
  let n = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  n

let r_u32 c =
  need c 4;
  (* Unsigned: CRC-32 values live in the full 32-bit range. *)
  let n = Int32.to_int (String.get_int32_le c.buf c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  n

let r_i64 c =
  need c 8;
  let n = Int64.to_int (String.get_int64_le c.buf c.pos) in
  c.pos <- c.pos + 8;
  n

let r_string c =
  let n = r_u32 c in
  need c n;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let r_ty c =
  match r_u8 c with
  | 0 -> Ty.Int
  | 1 -> Ty.Float
  | 2 -> Ty.Bool
  | 3 -> Ty.Text
  | t -> corrupt "unknown type tag %d" t

let r_value c =
  match r_u8 c with
  | 0 -> Value.Null
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 -> Value.Int (r_i64 c)
  | 4 ->
    need c 8;
    let bits = String.get_int64_le c.buf c.pos in
    c.pos <- c.pos + 8;
    Value.Float (Int64.float_of_bits bits)
  | 5 -> Value.Str (r_string c)
  | t -> corrupt "unknown value tag %d" t

let r_row c =
  let n = r_u32 c in
  (* Sanity bound: a row longer than the remaining bytes is corrupt. *)
  if n > remaining c then corrupt "row arity %d exceeds remaining payload" n;
  Array.init n (fun _ -> r_value c)

let r_rows c =
  let n = r_u32 c in
  if n > remaining c then corrupt "row count %d exceeds remaining payload" n;
  List.init n (fun _ -> r_row c)

let expect_end c =
  if remaining c <> 0 then
    corrupt "trailing %d bytes after payload (version mismatch?)" (remaining c)
