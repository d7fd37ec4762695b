(** Heap tables with maintained secondary indexes.

    A table stores rows in insertion order in a growable vector. Each row
    receives a monotonically increasing tuple id. Tables support:

    - appends (with cell type checking against the schema),
    - predicate and tid-set deletion (used by DML and by log compaction),
    - savepoints: since all mutation between a savepoint and its
      rollback is append-only in the DataLawyer engine (tentative log
      increments), a savepoint is just the current row count and rollback
      truncates to it. Taking a savepoint freezes deletions until it is
      released, enforced with [in_txn].

    Any column may carry declared secondary indexes ({!Index}); every
    mutation path — [insert], [bulk_load], [delete_where], [retain_tids],
    [update_where], [rollback_to], [clear] — keeps them exactly
    consistent with the heap. Index lookups return rows in tid order,
    which (rows being tid-sorted by construction) is heap scan order. *)

type t = {
  name : string;
  schema : Schema.t;
  rows : Row.t Vec.t;
  mutable next_tid : int;
  mutable in_txn : bool;
  mutable frozen : bool;
  mutable indexes : Index.t list;
  mutable delta_base : int;
      (* tid watermark for incremental policy evaluation: rows with
         tid >= delta_base form the delta (Δ) against the state the
         last commit recorded *)
  mutable ver_mut : int;  (* bumped by every mutation *)
  mutable columnar : Column.t option;
      (* opt-in columnar mirror for batch scans, kept consistent with
         the heap by the same mutation hooks that maintain indexes *)
}

(* Extra consistency checks (tid monotonicity on insert); off by default,
   enabled by the test suite. *)
let debug_checks = ref false

let dummy_row = Row.make ~tid:(-1) [||]

let create ~name ~schema =
  {
    name;
    schema;
    rows = Vec.create ~dummy:dummy_row ();
    next_tid = 0;
    in_txn = false;
    frozen = false;
    indexes = [];
    delta_base = 0;
    ver_mut = 0;
    columnar = None;
  }

(* Freeze markers: the engine freezes every table for the span of a
   parallel evaluation batch; under [debug_checks] any mutation while
   frozen is an invariant violation (worker domains read these tables
   lock-free, so a concurrent write would be a data race). *)
let freeze t = t.frozen <- true

let thaw t = t.frozen <- false

let guard_frozen t op =
  if !debug_checks && t.frozen then
    Errors.runtime_error
      "table %s: %s while frozen (parallel evaluation batch in flight)" t.name
      op

let name t = t.name

let schema t = t.schema

let row_count t = Vec.length t.rows

let check_cells t cells =
  let n = Schema.arity t.schema in
  if Array.length cells <> n then
    Errors.runtime_error "table %s expects %d columns, got %d" t.name n
      (Array.length cells);
  Array.iteri
    (fun i v ->
      match Value.type_of v with
      | None -> () (* NULL fits any column *)
      | Some ty ->
        let col = Schema.column t.schema i in
        let ok =
          Ty.equal ty col.Schema.ty
          || (ty = Ty.Int && col.Schema.ty = Ty.Float)
        in
        if not ok then
          Errors.type_error "table %s column %s: expected %s, got %s (%s)"
            t.name col.Schema.name
            (Ty.to_string col.Schema.ty)
            (Ty.to_string ty) (Value.to_string v))
    cells

(* Index maintenance hooks ------------------------------------------------- *)

let index_add t (row : Row.t) =
  List.iter
    (fun ix -> Index.add ix (Row.cell row (Index.column ix)) (Row.tid row))
    t.indexes

let index_remove t (row : Row.t) =
  List.iter
    (fun ix -> Index.remove ix (Row.cell row (Index.column ix)) (Row.tid row))
    t.indexes

(* Columnar-mirror maintenance hooks --------------------------------------- *)

let columnar t = t.columnar

(* Refill the mirror from the heap (the in-place update path, cold
   relative to policy evaluation). *)
let columnar_rebuild t =
  match t.columnar with
  | None -> ()
  | Some store ->
    Column.rebuild store ~row_count:(Vec.length t.rows) (fun add ->
        Vec.iter (fun row -> add ~tid:(Row.tid row) (Row.cells row)) t.rows)

let enable_columnar t =
  match t.columnar with
  | Some store -> store
  | None ->
    let store = Column.create ~schema:t.schema in
    Vec.iter
      (fun row -> Column.append store ~tid:(Row.tid row) (Row.cells row))
      t.rows;
    t.columnar <- Some store;
    store

(* Insert a row; returns its tuple id. *)
let insert t cells =
  guard_frozen t "insert";
  check_cells t cells;
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  t.ver_mut <- t.ver_mut + 1;
  (* Invariant: rows are tid-sorted (see [find_by_tid] and the index
     access paths). [next_tid] only grows, so appends preserve it; the
     assert guards any future bulk path that constructs rows directly. *)
  if !debug_checks && Vec.length t.rows > 0 then
    assert (Row.tid (Vec.get t.rows (Vec.length t.rows - 1)) < tid);
  let row = Row.make ~tid cells in
  Vec.push t.rows row;
  index_add t row;
  (match t.columnar with
  | None -> ()
  | Some store -> Column.append store ~tid cells);
  tid

let iter f t = Vec.iter f t.rows

let fold f init t = Vec.fold_left f init t.rows

let rows t = Vec.to_list t.rows

let last t =
  let n = Vec.length t.rows in
  if n = 0 then None else Some (Vec.get t.rows (n - 1))

let to_seq t =
  let rec aux i () =
    if i >= Vec.length t.rows then Seq.Nil else Seq.Cons (Vec.get t.rows i, aux (i + 1))
  in
  aux 0

let find_by_tid t tid =
  (* Rows are sorted by tid (append-only ids; asserted in [insert] under
     [debug_checks]), so binary search works. *)
  let n = Vec.length t.rows in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let r = Vec.get t.rows mid in
      if Row.tid r = tid then Some r
      else if Row.tid r < tid then go (mid + 1) hi
      else go lo mid
  in
  go 0 n

(* Indexes ----------------------------------------------------------------- *)

let indexes t = t.indexes

let find_index t iname =
  let l = String.lowercase_ascii iname in
  List.find_opt (fun ix -> String.lowercase_ascii (Index.name ix) = l) t.indexes

let index_on t ~column =
  List.filter (fun ix -> Index.column ix = column) t.indexes

let create_index t ~name ~column ~kind =
  (match find_index t name with
  | Some _ -> Errors.catalog_error "index %s already exists on %s" name t.name
  | None -> ());
  let col =
    match Schema.find_index t.schema column with
    | Some i -> i
    | None -> Errors.bind_error "no column %S in table %s" column t.name
  in
  let column_name = (Schema.column t.schema col).Schema.name in
  let ix = Index.create ~name ~column:col ~column_name kind in
  Vec.iter (fun row -> Index.add ix (Row.cell row col) (Row.tid row)) t.rows;
  t.indexes <- t.indexes @ [ ix ];
  ix

let drop_index t iname =
  match find_index t iname with
  | None -> Errors.catalog_error "no index %s on table %s" iname t.name
  | Some ix -> t.indexes <- List.filter (fun i -> i != ix) t.indexes

(* Fetch the rows behind an index probe, in tid (= heap scan) order. *)
let rows_of_tids t tids =
  List.filter_map (find_by_tid t) (List.sort_uniq compare tids)

let index_lookup t ix v = rows_of_tids t (Index.lookup ix v)

let index_range t ix ?lo ?hi () = rows_of_tids t (Index.range ix ?lo ?hi ())

(* Tid-only probe variant: the same tids in the same (tid) order as the
   row-fetching version above, without materializing rows. The batch
   executor resolves these against the columnar mirror positionally.
   Monomorphic int sort + in-place dedup — the polymorphic sort_uniq in
   [rows_of_tids] is measurable at large probes. *)
let sorted_uniq_tids tids =
  let a = Array.of_list tids in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k
  end

let index_lookup_tids _t ix v = sorted_uniq_tids (Index.lookup ix v)

(* Deletion --------------------------------------------------------------- *)

let guard_no_txn t op =
  guard_frozen t op;
  if t.in_txn then
    Errors.runtime_error "table %s: %s not allowed inside a savepoint" t.name op

let bulk_load t rows =
  guard_no_txn t "bulk_load";
  List.iter (fun cells -> ignore (insert t cells)) rows

(* Keep rows satisfying [keep_row], unhooking the dropped ones from every
   index in one pass per touched bucket; returns the dropped rows with
   their heap positions before the deletion, ascending. [keep_row] runs
   once per row, before anything is mutated. *)
let filter_rows t keep_row =
  t.ver_mut <- t.ver_mut + 1;
  let live = Array.make (Vec.length t.rows) true in
  let dropped = ref [] in
  Vec.iteri
    (fun i r ->
      if not (keep_row r) then begin
        live.(i) <- false;
        dropped := (i, r) :: !dropped
      end)
    t.rows;
  match !dropped with
  | [] -> []
  | dropped ->
    let rows = List.rev_map snd dropped in
    let dead = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace dead (Row.tid r) ()) rows;
    let is_dead tid = Hashtbl.mem dead tid in
    List.iter
      (fun ix ->
        Index.remove_all ix
          (List.map (fun r -> Row.cell r (Index.column ix)) rows)
          is_dead)
      t.indexes;
    ignore (Vec.filteri_in_place (fun i _ -> live.(i)) t.rows);
    (match t.columnar with
    | None -> ()
    | Some store -> Column.filter_in_place store (fun i -> live.(i)));
    List.rev dropped

(* Delete all rows whose tid is NOT in [keep]; returns the dropped rows
   by position. *)
let retain_tids t keep =
  guard_no_txn t "retain_tids";
  filter_rows t (fun r -> Hashtbl.mem keep (Row.tid r))

(* Delete the rows whose tid IS in [dead]: compaction's expiry path. *)
let drop_tids t dead =
  guard_no_txn t "drop_tids";
  filter_rows t (fun r -> not (Hashtbl.mem dead (Row.tid r)))

let delete_where t pred =
  guard_no_txn t "delete_where";
  List.length (filter_rows t (fun r -> not (pred r)))

let clear t =
  guard_no_txn t "clear";
  t.ver_mut <- t.ver_mut + 1;
  List.iter Index.clear t.indexes;
  Vec.clear t.rows;
  match t.columnar with None -> () | Some store -> Column.clear store

(* Update ----------------------------------------------------------------- *)

let update_where t pred f =
  guard_no_txn t "update_where";
  t.ver_mut <- t.ver_mut + 1;
  let n = ref 0 in
  Vec.iteri
    (fun i r ->
      if pred r then begin
        let cells = f (Row.cells r) in
        check_cells t cells;
        let row' = Row.make ~tid:(Row.tid r) cells in
        index_remove t r;
        Vec.set t.rows i row';
        index_add t row';
        incr n
      end)
    t.rows;
  if !n > 0 then columnar_rebuild t;
  !n

(* Savepoints ------------------------------------------------------------- *)

(* The tid counter is captured too: rolling back then restores it, so
   the tids a table hands out don't depend on how many tentative rows
   were appended and discarded along the way. (Deletions are blocked
   while a savepoint is outstanding, so no discarded tid can have
   leaked into provenance or an index.) *)
type savepoint = { sp_pos : int; sp_tid : int }

let savepoint t : savepoint =
  t.in_txn <- true;
  { sp_pos = Vec.length t.rows; sp_tid = t.next_tid }

let rollback_to t (sp : savepoint) =
  guard_frozen t "rollback_to";
  t.in_txn <- false;
  t.ver_mut <- t.ver_mut + 1;
  if t.indexes <> [] then
    for i = Vec.length t.rows - 1 downto sp.sp_pos do
      index_remove t (Vec.get t.rows i)
    done;
  Vec.truncate t.rows sp.sp_pos;
  (match t.columnar with
  | None -> ()
  | Some store -> Column.truncate store sp.sp_pos);
  t.next_tid <- sp.sp_tid

let release t (_sp : savepoint) = t.in_txn <- false

let savepoint_tid (sp : savepoint) = sp.sp_tid

let fold_since f init t (sp : savepoint) =
  let acc = ref init in
  for i = sp.sp_pos to Vec.length t.rows - 1 do
    acc := f !acc (Vec.get t.rows i)
  done;
  !acc

(* Delta watermark --------------------------------------------------------- *)

let delta_base t = t.delta_base

let mark_delta_base t = t.delta_base <- t.next_tid

let ver_mut t = t.ver_mut

(* Fold over the delta: rows with tid >= delta_base. Rows are tid-sorted
   (module invariant), so a binary lower bound finds the start. *)
let fold_delta f init t =
  let n = Vec.length t.rows in
  let base = t.delta_base in
  let rec lb lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Row.tid (Vec.get t.rows mid) < base then lb (mid + 1) hi else lb lo mid
  in
  let acc = ref init in
  for i = lb 0 n to n - 1 do
    acc := f !acc (Vec.get t.rows i)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "%s%a [%d rows]" t.name Schema.pp t.schema (row_count t)
