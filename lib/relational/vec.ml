(** Growable arrays.

    OCaml 5.1's standard library does not ship [Dynarray] yet, so the
    storage layer uses this small vector module. Elements are stored in a
    plain array that doubles on overflow; [truncate] supports the
    savepoint/rollback mechanism used by log tables. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a; (* used to fill unused slots so they can be collected *)
}

let create ~dummy () = { data = Array.make 16 dummy; len = 0; dummy }

let length t = t.len

let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let ensure_capacity t n =
  let cap = Array.length t.data in
  if n > cap then begin
    let new_cap = max n (max 16 (2 * cap)) in
    let data = Array.make new_cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  for i = n to t.len - 1 do
    t.data.(i) <- t.dummy
  done;
  t.len <- n

let clear t = truncate t 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

let to_array t = Array.sub t.data 0 t.len

(* The backing array itself: slots at indices >= [length t] hold the
   dummy. Read-only zero-copy access for batch scans; callers must pair
   it with the current length and drop it before the next mutation. *)
let unsafe_data t = t.data

let of_list ~dummy xs =
  let t = create ~dummy () in
  List.iter (push t) xs;
  t

(* Bulk operations (selection vectors and column stores move elements in
   slabs; going through [get]/[push] per element costs a bounds check and
   a capacity check each). *)

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || src_pos + len > src.len then
    invalid_arg "Vec.blit: source range out of bounds";
  if dst_pos < 0 || dst_pos > dst.len then
    invalid_arg "Vec.blit: destination start out of bounds";
  ensure_capacity dst (dst_pos + len);
  Array.blit src.data src_pos dst.data dst_pos len;
  if dst_pos + len > dst.len then dst.len <- dst_pos + len

let sub t ~pos ~len =
  if len < 0 || pos < 0 || pos + len > t.len then
    invalid_arg "Vec.sub: range out of bounds";
  let r = { data = Array.make (max 16 len) t.dummy; len; dummy = t.dummy } in
  Array.blit t.data pos r.data 0 len;
  r

let append dst src =
  ensure_capacity dst (dst.len + src.len);
  Array.blit src.data 0 dst.data dst.len src.len;
  dst.len <- dst.len + src.len

(* Keep only elements satisfying [p], preserving order; returns the number
   of elements removed. *)
let filteri_in_place p t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if p i x then begin
      t.data.(!j) <- x;
      incr j
    end
  done;
  let removed = t.len - !j in
  truncate t !j;
  removed

let filter_in_place p t = filteri_in_place (fun _ x -> p x) t
