(** Maintained secondary indexes.

    An index maps the value of one column to the tuple ids of the rows
    holding that value. Two physical shapes exist:

    - [Hash] — a {!Value.Tbl} hashtable, supporting equality lookups
      only;
    - [Sorted] — a balanced map ordered by {!Value.compare}, supporting
      equality lookups and range scans.

    Both shapes bucket by grouping identity ({!Value.equal}, which is
    [Value.compare = 0]): [Null] keys are stored under their own key and
    integral floats share the matching int's bucket at any magnitude, so
    a lookup returns exactly the rows whose cell is [Value.equal] to the
    probe, whichever shape serves it. SQL [=] ({!Value.sql_equal}) is the
    {e caller's} concern: the compiled access paths never probe with
    [Null], and range scans skip the [Null] key.

    Indexes store tids, not rows: the owning {!Table} resolves tids back
    to rows (rows are tid-sorted, so sorting the result reproduces heap
    scan order exactly). Maintenance — [add] on insert, [remove] on
    delete/compaction/update/rollback — is driven by the table; this
    module never sees the heap. *)

type kind = Hash | Sorted

module VMap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type store =
  | H of int list ref Value.Tbl.t
  | S of int list VMap.t ref

type t = {
  name : string;
  column : int;
  column_name : string;
  kind : kind;
  store : store;
  mutable entries : int;
}

let create ~name ~column ~column_name kind =
  let store =
    match kind with
    | Hash -> H (Value.Tbl.create 64)
    | Sorted -> S (ref VMap.empty)
  in
  { name; column; column_name; kind; store; entries = 0 }

let name t = t.name

let column t = t.column

let column_name t = t.column_name

let kind t = t.kind

let entries t = t.entries

let kind_to_string = function Hash -> "hash" | Sorted -> "sorted"

(* Maintenance ------------------------------------------------------------- *)

(* New tids are prepended: rollback removes the most recently inserted
   tids first, so the common removal is from the bucket head. *)
let add t (v : Value.t) (tid : int) =
  (match t.store with
  | H tbl -> (
    match Value.Tbl.find_opt tbl v with
    | Some cell -> cell := tid :: !cell
    | None -> Value.Tbl.replace tbl v (ref [ tid ]))
  | S map -> (
    match VMap.find_opt v !map with
    | Some tids -> map := VMap.add v (tid :: tids) !map
    | None -> map := VMap.add v [ tid ] !map));
  t.entries <- t.entries + 1

(* Rewrite [v]'s bucket with [f], dropping the key once it empties. *)
let update_bucket t (v : Value.t) (f : int list -> int list) =
  match t.store with
  | H tbl -> (
    match Value.Tbl.find_opt tbl v with
    | None -> ()
    | Some cell -> (
      match f !cell with [] -> Value.Tbl.remove tbl v | tids -> cell := tids))
  | S map -> (
    match VMap.find_opt v !map with
    | None -> ()
    | Some tids -> (
      match f tids with
      | [] -> map := VMap.remove v !map
      | tids -> map := VMap.add v tids !map))

(* O(1) when [tid] heads its bucket — rollback removes newest-first, so
   every removal of one submission's rows (which share their uid and ts
   buckets) hits the head; other removals filter the bucket. *)
let drop_tid tid = function
  | t :: rest when t = tid -> rest
  | tids -> List.filter (fun t -> t <> tid) tids

let remove t (v : Value.t) (tid : int) =
  update_bucket t v (drop_tid tid);
  t.entries <- max 0 (t.entries - 1)

(* Bulk removal filters each touched bucket once, however many of its
   tids die: compaction drops rows from the middle of buckets, where
   per-tid [remove] would rescan the bucket for every dropped row. *)
let remove_all t (keys : Value.t list) (dead : int -> bool) =
  let touched = Value.Tbl.create 16 in
  List.iter
    (fun v ->
      if not (Value.Tbl.mem touched v) then begin
        Value.Tbl.replace touched v ();
        update_bucket t v (fun tids ->
            let kept = List.filter (fun tid -> not (dead tid)) tids in
            t.entries <- t.entries - (List.length tids - List.length kept);
            kept)
      end)
    keys

let clear t =
  (match t.store with
  | H tbl -> Value.Tbl.reset tbl
  | S map -> map := VMap.empty);
  t.entries <- 0

(* Lookups ----------------------------------------------------------------- *)

(* Tids whose cell is [Value.equal] to [v]; unsorted. *)
let lookup t (v : Value.t) : int list =
  match t.store with
  | H tbl -> (
    match Value.Tbl.find_opt tbl v with
    | Some cell -> !cell
    | None -> [])
  | S map -> ( match VMap.find_opt v !map with Some tids -> tids | None -> [])

type bound = Value.t * bool  (** value, inclusive? *)

(* Tids whose (non-Null) cell lies within the bounds under
   {!Value.compare}; unsorted. Rows keyed [Null] are always excluded —
   every SQL comparison against NULL is false. *)
let range t ?(lo : bound option) ?(hi : bound option) () : int list =
  match t.store with
  | H _ ->
    Errors.runtime_error "index %s is a hash index and cannot serve ranges"
      t.name
  | S map ->
    let above v =
      match lo with
      | None -> true
      | Some (b, incl) ->
        let c = Value.compare v b in
        if incl then c >= 0 else c > 0
    in
    let below v =
      match hi with
      | None -> true
      | Some (b, incl) ->
        let c = Value.compare v b in
        if incl then c <= 0 else c < 0
    in
    (* Seek to the lower bound, then walk upward until past the upper. *)
    let seq =
      match lo with
      | Some (b, _) -> VMap.to_seq_from b !map
      | None -> VMap.to_seq !map
    in
    let out = ref [] in
    let rec walk s =
      match s () with
      | Seq.Nil -> ()
      | Seq.Cons ((v, tids), rest) ->
        if not (below v) then () (* keys ascend: nothing further matches *)
        else begin
          if (not (Value.is_null v)) && above v then out := tids :: !out;
          walk rest
        end
    in
    walk seq;
    List.concat !out

let pp ppf t =
  Format.fprintf ppf "%s (%s on %s, %d entries)" t.name (kind_to_string t.kind)
    t.column_name t.entries
