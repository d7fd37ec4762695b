(** Growable bit vectors — null bitmaps for the typed column store.

    One bit per row, packed eight to a byte, plus a maintained set-bit
    count so "this column has no NULLs" is an O(1) question the batch
    kernels ask once per binding to pick the branch-free variant.

    [get] returns [false] for any index at or past [length]: a column
    view constructed for rows known to be null-free can share the single
    {!empty} bitmap instead of allocating one per gather. *)

type t = { mutable bits : Bytes.t; mutable len : int; mutable ones : int }

let create () = { bits = Bytes.make 2 '\000'; len = 0; ones = 0 }

let length t = t.len

(** Number of set bits. *)
let count t = t.ones

let get t i =
  i >= 0 && i < t.len
  && Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let ensure t n =
  let cap = Bytes.length t.bits in
  let need = (n + 7) lsr 3 in
  if need > cap then begin
    let bits = Bytes.make (max need (2 * cap)) '\000' in
    Bytes.blit t.bits 0 bits 0 cap;
    t.bits <- bits
  end

let push t b =
  ensure t (t.len + 1);
  let i = t.len in
  if b then begin
    Bytes.unsafe_set t.bits (i lsr 3)
      (Char.chr (Char.code (Bytes.unsafe_get t.bits (i lsr 3)) lor (1 lsl (i land 7))));
    t.ones <- t.ones + 1
  end;
  t.len <- t.len + 1

(* Drop all bits at indices >= n (savepoint rollback). Dropped bits are
   cleared so future pushes land on zeroed storage. *)
let truncate t n =
  if n < 0 then invalid_arg "Bitvec.truncate";
  if n < t.len then begin
    for i = n to t.len - 1 do
      if get t i then begin
        Bytes.unsafe_set t.bits (i lsr 3)
          (Char.chr
             (Char.code (Bytes.unsafe_get t.bits (i lsr 3))
             land lnot (1 lsl (i land 7))));
        t.ones <- t.ones - 1
      end
    done;
    t.len <- n
  end

let clear t = truncate t 0

(* Keep the bits at the indices [keep] accepts, in order. Writes never
   overtake reads (the write index trails the read index), so one pass
   compacts in place; the tail is then cleared by [truncate]. *)
let filter_in_place keep t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    if keep i then begin
      let b = get t i in
      let byte = Char.code (Bytes.unsafe_get t.bits (!j lsr 3)) in
      let mask = 1 lsl (!j land 7) in
      let was = byte land mask <> 0 in
      if b <> was then begin
        Bytes.unsafe_set t.bits (!j lsr 3)
          (Char.chr (if b then byte lor mask else byte land lnot mask));
        t.ones <- (t.ones + if b then 1 else -1)
      end;
      incr j
    end
  done;
  truncate t !j

(* A shared all-false bitmap ([get] is false everywhere past the length,
   and the length is 0). Read-only by convention: never push into it. *)
let empty = create ()
