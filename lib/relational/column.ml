(** Typed columnar table storage for the vectorized executor.

    A column store is an opt-in decomposed mirror of a table's heap, in
    heap (= tid) order, but unlike the heap it does not box cells: each
    schema column picks a physical layout from its declared type —

    - INT   → unboxed [int array] plus a null bitmap ({!Bitvec}),
    - FLOAT → unboxed [float array] plus a null bitmap,
    - BOOL  → [int array] with 0 / 1 / 2 (2 encodes NULL in-band),
    - TEXT  → dictionary codes in an [int array] (-1 encodes NULL); the
      per-column dictionary interns each distinct string once,
      append-only, so equality on codes is equality on strings,
    - {e Mixed} → boxed [Value.t array], the fallback when a column turns
      out heterogeneous at runtime (the one legal source is an INT value
      stored into a FLOAT column, which must round-trip as [Value.Int]).

    {!Table} keeps the store synchronized across every mutation path
    exactly as it keeps secondary indexes — appends append, savepoint
    rollback truncates, deletion drops the dead positions in place, and
    the remaining destructive paths (update, clear) rebuild — so batch
    scans can hand the backing arrays to compiled operators without
    copying or boxing.

    Dictionaries are append-only between rebuilds: a savepoint rollback
    truncates the code vector but keeps interned strings (their codes
    stay valid; at worst the dictionary holds strings no live row
    references). Deletion keeps it too, until dead strings outnumber the
    live rows, and then re-interns the survivors; it also re-promotes a
    demoted Mixed column whose survivors fit the declared type. Update
    and clear recreate each column from its declared type — fresh
    dictionaries, so codes are dense again, and a demoted Mixed column
    gets a chance to re-promote.

    The store also answers the delta-watermark question
    ({!Table.fold_delta}'s binary lower bound) positionally: since rows
    are tid-sorted, the suffix at or above a watermark tid is a
    contiguous index range — which is what makes an incremental re-check
    a column slice instead of a row walk. *)

(* Test/bench hook: when set, [create] lays out every column as Mixed —
   the boxed representation the typed layouts replaced — so the benches
   can measure typed vs boxed on otherwise identical kernels. *)
let force_mixed = ref false

(* Per-column string dictionary: [strings] maps code -> string (codes are
   dense, assigned in first-appearance order), [codes] the inverse. *)
type dict = { strings : string Vec.t; codes : (string, int) Hashtbl.t }

let new_dict () = { strings = Vec.create ~dummy:"" (); codes = Hashtbl.create 64 }

let dict_size d = Vec.length d.strings

let dict_find d s = Hashtbl.find_opt d.codes s

let dict_string d c = Vec.get d.strings c

let intern d s =
  match Hashtbl.find_opt d.codes s with
  | Some c -> c
  | None ->
    let c = Vec.length d.strings in
    Vec.push d.strings s;
    Hashtbl.add d.codes s c;
    c

type data =
  | D_int of int Vec.t
  | D_float of float Vec.t
  | D_bool of int Vec.t  (* 0 = false, 1 = true, 2 = NULL *)
  | D_str of int Vec.t * dict  (* dictionary codes, -1 = NULL *)
  | D_mixed of Value.t Vec.t

(* [nulls] is maintained for every layout (one bit per row); the in-band
   encodings (BOOL's 2, TEXT's -1) don't read it, but keeping it uniform
   makes truncate/demote layout-independent and gives the INT/FLOAT
   kernels their O(1) "any NULLs?" test. *)
type col = { mutable data : data; nulls : Bitvec.t }

type t = { schema : Schema.t; mutable cols : col array; tids : int Vec.t }

let fresh_col (ty : Ty.t) : col =
  let data =
    if !force_mixed then D_mixed (Vec.create ~dummy:Value.Null ())
    else
      match ty with
      | Ty.Int -> D_int (Vec.create ~dummy:0 ())
      | Ty.Float -> D_float (Vec.create ~dummy:0.0 ())
      | Ty.Bool -> D_bool (Vec.create ~dummy:2 ())
      | Ty.Text -> D_str (Vec.create ~dummy:(-1) (), new_dict ())
  in
  { data; nulls = Bitvec.create () }

let create ~(schema : Schema.t) =
  {
    schema;
    cols = Array.map (fun (c : Schema.column) -> fresh_col c.Schema.ty) schema;
    tids = Vec.create ~dummy:(-1) ();
  }

let width t = Array.length t.cols

let length t = Vec.length t.tids

(* Boxed read-back of one cell, used by demotion (and nowhere hot). *)
let cell_value (c : col) i : Value.t =
  match c.data with
  | D_int v -> if Bitvec.get c.nulls i then Value.Null else Value.Int (Vec.get v i)
  | D_float v ->
    if Bitvec.get c.nulls i then Value.Null else Value.Float (Vec.get v i)
  | D_bool v -> (
    match Vec.get v i with 0 -> Value.Bool false | 1 -> Value.Bool true | _ -> Value.Null)
  | D_str (v, d) ->
    let code = Vec.get v i in
    if code < 0 then Value.Null else Value.Str (dict_string d code)
  | D_mixed v -> Vec.get v i

let data_length = function
  | D_int v -> Vec.length v
  | D_float v -> Vec.length v
  | D_bool v -> Vec.length v
  | D_str (v, _) -> Vec.length v
  | D_mixed v -> Vec.length v

(* A value arrived that the typed layout cannot hold exactly (an INT into
   a FLOAT column: [Value.Int 2] must not come back as [Float 2.]). Box
   the column wholesale; deletion or [rebuild] re-promotes it later if
   it can. *)
let demote (c : col) =
  let n = data_length c.data in
  let mv = Vec.create ~dummy:Value.Null () in
  for i = 0 to n - 1 do
    Vec.push mv (cell_value c i)
  done;
  c.data <- D_mixed mv

let append_cell (c : col) (v : Value.t) =
  Bitvec.push c.nulls (Value.is_null v);
  match c.data, v with
  | D_int iv, Value.Int x -> Vec.push iv x
  | D_int iv, Value.Null -> Vec.push iv 0
  | D_float fv, Value.Float x -> Vec.push fv x
  | D_float fv, Value.Null -> Vec.push fv 0.0
  | D_bool bv, Value.Bool b -> Vec.push bv (if b then 1 else 0)
  | D_bool bv, Value.Null -> Vec.push bv 2
  | D_str (cv, d), Value.Str s -> Vec.push cv (intern d s)
  | D_str (cv, _), Value.Null -> Vec.push cv (-1)
  | D_mixed mv, v -> Vec.push mv v
  | (D_int _ | D_float _ | D_bool _ | D_str _), v ->
    demote c;
    (match c.data with D_mixed mv -> Vec.push mv v | _ -> assert false)

let append t ~tid (cells : Value.t array) =
  Array.iteri (fun i c -> append_cell c cells.(i)) t.cols;
  Vec.push t.tids tid

let truncate_col (c : col) n =
  (match c.data with
  | D_int v -> Vec.truncate v n
  | D_float v -> Vec.truncate v n
  | D_bool v -> Vec.truncate v n
  | D_str (v, _) -> Vec.truncate v n
  | D_mixed v -> Vec.truncate v n);
  Bitvec.truncate c.nulls n

let truncate t n =
  Array.iter (fun c -> truncate_col c n) t.cols;
  Vec.truncate t.tids n

(* Full reset recreates the columns from the schema: fresh dictionaries
   (codes dense again) and typed layouts (a demoted column re-promotes
   when the surviving rows are homogeneous). *)
let clear t =
  t.cols <-
    Array.map (fun (c : Schema.column) -> fresh_col c.Schema.ty) t.schema;
  Vec.truncate t.tids 0

(* In-place update refills the store from the heap in one pass: it is
   O(rows) on the table side already and never on the policy-evaluation
   hot path, so a rebuild keeps the synchronization story obviously
   correct. *)
let rebuild t ~row_count iter_rows =
  clear t;
  ignore row_count;
  iter_rows (fun ~tid cells -> append t ~tid cells)

(* Whether the typed layout of [ty] holds [v] exactly. *)
let fits (ty : Ty.t) (v : Value.t) =
  match ty, v with
  | _, Value.Null
  | Ty.Int, Value.Int _
  | Ty.Float, Value.Float _
  | Ty.Bool, Value.Bool _
  | Ty.Text, Value.Str _ -> true
  | _ -> false

(* Deletion (log compaction on every commit, DML) drops the dead
   positions column by column in one pass each. A typed layout stays as
   it is; a Mixed column whose survivors all fit its declared type is
   re-promoted, as a rebuild would. A dictionary keeps the strings of
   deleted rows until it holds more than twice as many strings as the
   column has rows (plus slack); then it is re-interned from the
   surviving codes, which bounds its size by the live rows at constant
   amortized cost per deleted row. *)
let filter_in_place t keep =
  let keepi i _ = keep i in
  Array.iteri
    (fun ci c ->
      (match c.data with
      | D_int v -> ignore (Vec.filteri_in_place keepi v)
      | D_float v -> ignore (Vec.filteri_in_place keepi v)
      | D_bool v -> ignore (Vec.filteri_in_place keepi v)
      | D_str (v, d) ->
        ignore (Vec.filteri_in_place keepi v);
        if dict_size d > (2 * Vec.length v) + 64 then begin
          let d' = new_dict () in
          let v' = Vec.create ~dummy:(-1) () in
          Vec.iter
            (fun code ->
              Vec.push v' (if code < 0 then -1 else intern d' (dict_string d code)))
            v;
          c.data <- D_str (v', d')
        end
      | D_mixed v ->
        let ty = t.schema.(ci).Schema.ty in
        let typed = ref (not !force_mixed) in
        ignore
          (Vec.filteri_in_place
             (fun i x ->
               let k = keep i in
               if k && not (fits ty x) then typed := false;
               k)
             v);
        if !typed then begin
          let c' = fresh_col ty in
          Vec.iter (append_cell c') v;
          c.data <- c'.data
        end);
      Bitvec.filter_in_place keep c.nulls)
    t.cols;
  ignore (Vec.filteri_in_place keepi t.tids)

(* Zero-copy views -------------------------------------------------------- *)

type view =
  | V_int of int array * Bitvec.t
  | V_float of float array * Bitvec.t
  | V_bool of int array
  | V_str of int array * dict
  | V_mixed of Value.t array

let view_col (c : col) : view =
  match c.data with
  | D_int v -> V_int (Vec.unsafe_data v, c.nulls)
  | D_float v -> V_float (Vec.unsafe_data v, c.nulls)
  | D_bool v -> V_bool (Vec.unsafe_data v)
  | D_str (v, d) -> V_str (Vec.unsafe_data v, d)
  | D_mixed v -> V_mixed (Vec.unsafe_data v)

let view t i = view_col t.cols.(i)

let views t = Array.map view_col t.cols

(* Boxed accessor over a view, for the scalar-expression fallback and row
   materialization. The typed kernels read the arrays directly. *)
let view_value (v : view) i : Value.t =
  match v with
  | V_int (a, nulls) ->
    if Bitvec.get nulls i then Value.Null else Value.Int a.(i)
  | V_float (a, nulls) ->
    if Bitvec.get nulls i then Value.Null else Value.Float a.(i)
  | V_bool a -> (
    match a.(i) with 0 -> Value.Bool false | 1 -> Value.Bool true | _ -> Value.Null)
  | V_str (codes, d) ->
    let c = codes.(i) in
    if c < 0 then Value.Null else Value.Str (dict_string d c)
  | V_mixed a -> a.(i)

let tids t = Vec.unsafe_data t.tids

let tid_at t i = Vec.get t.tids i

(* First position whose tid is >= [base] — the start of the delta slice
   (tids are ascending). [length t] when every row is below the
   watermark. *)
let delta_start t ~base =
  let n = Vec.length t.tids in
  let rec lb lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Vec.get t.tids mid < base then lb (mid + 1) hi else lb lo mid
  in
  lb 0 n

(* Layout accounting for engine stats: (typed columns, Mixed columns,
   total interned dictionary entries). *)
let layout_stats t =
  let typed = ref 0 and mixed = ref 0 and dict_entries = ref 0 in
  Array.iter
    (fun c ->
      match c.data with
      | D_mixed _ -> incr mixed
      | D_str (_, d) ->
        incr typed;
        dict_entries := !dict_entries + dict_size d
      | D_int _ | D_float _ | D_bool _ -> incr typed)
    t.cols;
  (!typed, !mixed, !dict_entries)
