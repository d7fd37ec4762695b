(** Engine-owned state for incremental (delta-driven) policy evaluation.

    The store records, per policy, a {e base}: a proof marker that the
    policy's query was empty over the state current at some earlier
    submission boundary. The engine establishes bases after every
    accepted submission (acceptance means every active policy was
    proved empty over the now-committed state) and advances each log
    relation's {!Relational.Table.mark_delta_base} watermark at the
    same instant, so a valid base always refers to exactly the rows
    below the current watermarks.

    A base is valid while nothing that could break the emptiness proof
    has happened: the catalog generation must match (DDL, [set_config],
    policy registration and unification rebuilds all bump it via
    [Engine.invalidate]) and every referenced table's version counters
    must match the snapshot taken at establishment. Which counters a
    dependency folds into the snapshot is the branch classification's
    {!Relational.Optimizer.dep_kind}; the per-kind counter sets are all
    monotone, so the snapshot stores their {e sum} — equality of sums
    is equality of every component.

    Aggregate branches additionally carry per-group accumulator state
    ({!agg_state}), folded forward at each establishment from the rows
    the branch's delta streams emitted, and rebuilt from the full
    stream when the base was invalid. The accumulators are
    {!Relational.Aggregate}'s own fold — the one {!Relational.Aggregate.compute}
    runs — and the group tables key on {!Relational.Value.Key}, the
    grouping identity GROUP BY uses; this module adds only the carried /
    scratch discipline. *)

module Value = Relational.Value
module Ast = Relational.Ast
module Aggregate = Relational.Aggregate

type base = { gen : int; vers : (string * int) list }

module KTbl = Value.Key.Tbl

type group = { key : Value.t array; accs : Aggregate.acc array }

type agg_state = { groups : group KTbl.t }

type t = {
  bases : (string, base) Hashtbl.t;
  agg : (string * int, agg_state) Hashtbl.t;  (** keyed (policy, branch) *)
  delta_evals : int Atomic.t;
  full_evals : int Atomic.t;
  agg_rebuilds : int Atomic.t;
}

type stats = {
  bases : int;
  delta_evals : int;
  full_evals : int;
  agg_groups : int;
  agg_rebuilds : int;
}

let create () : t =
  {
    bases = Hashtbl.create 16;
    agg = Hashtbl.create 16;
    delta_evals = Atomic.make 0;
    full_evals = Atomic.make 0;
    agg_rebuilds = Atomic.make 0;
  }

let reset (t : t) =
  Hashtbl.reset t.bases;
  Hashtbl.reset t.agg;
  Atomic.set t.delta_evals 0;
  Atomic.set t.full_evals 0;
  Atomic.set t.agg_rebuilds 0

let snapshot (cat : Relational.Catalog.t)
    (deps : (string * Relational.Optimizer.dep_kind) list) :
    (string * int) list =
  List.map
    (fun (name, kind) ->
      match Relational.Catalog.find_opt cat name with
      | Some table ->
        let open Relational in
        let v =
          (* Summing is lossless here: every counter is monotone
             non-decreasing, so two equal sums have equal parts. *)
          match kind with
          | Optimizer.Dep_plain -> Table.ver_mut table
          | Optimizer.Dep_log -> Table.ver_unsafe table
          | Optimizer.Dep_log_exact ->
            Table.ver_unsafe table + Table.ver_del table
          | Optimizer.Dep_log_frozen ->
            Table.ver_unsafe table + Table.ver_del table
            + Table.ver_compact table
        in
        (name, v)
      | None -> (name, -1))
    deps

let establish (t : t) name ~gen ~vers =
  Hashtbl.replace t.bases name { gen; vers }

let valid (t : t) name ~gen ~vers =
  match Hashtbl.find_opt t.bases name with
  | None -> false
  | Some b -> b.gen = gen && b.vers = vers

(* Aggregate branch state ---------------------------------------------------- *)

let agg_state (t : t) ~policy ~branch : agg_state =
  let k = (policy, branch) in
  match Hashtbl.find_opt t.agg k with
  | Some s -> s
  | None ->
    let s = { groups = KTbl.create 16 } in
    Hashtbl.add t.agg k s;
    s

let agg_clear (s : agg_state) = KTbl.reset s.groups

let fold_row (specs : (Ast.agg * bool) array) ~(nkeys : int) (g : group)
    (row : Value.t array) : unit =
  Array.iteri (fun j spec -> Aggregate.step spec g.accs.(j) row.(nkeys + j)) specs

let new_group specs key =
  { key; accs = Array.init (Array.length specs) (fun _ -> Aggregate.create ()) }

let agg_absorb (s : agg_state) ~(specs : (Ast.agg * bool) array)
    ~(nkeys : int) (rows : Value.t array list) : unit =
  List.iter
    (fun row ->
      let key = Array.sub row 0 nkeys in
      let g =
        match KTbl.find_opt s.groups key with
        | Some g -> g
        | None ->
          let g = new_group specs key in
          KTbl.add s.groups key g;
          g
      in
      fold_row specs ~nkeys g row)
    rows

let agg_scratch (s : agg_state) ~(specs : (Ast.agg * bool) array)
    ~(nkeys : int) (rows : Value.t array list) :
    (Value.t array * Value.t array) list =
  let touched : group KTbl.t = KTbl.create 8 in
  List.iter
    (fun row ->
      let key = Array.sub row 0 nkeys in
      let g =
        match KTbl.find_opt touched key with
        | Some g -> g
        | None ->
          let g =
            match KTbl.find_opt s.groups key with
            | Some g0 -> { key = g0.key; accs = Array.map Aggregate.copy g0.accs }
            | None -> new_group specs key
          in
          KTbl.add touched key g;
          g
      in
      fold_row specs ~nkeys g row)
    rows;
  KTbl.fold
    (fun _ g out ->
      (g.key, Array.mapi (fun j a -> Aggregate.finish specs.(j) a) g.accs) :: out)
    touched []

let note_agg_rebuild (t : t) = Atomic.incr t.agg_rebuilds

let note_delta_eval (t : t) = Atomic.incr t.delta_evals

let note_full_eval (t : t) = Atomic.incr t.full_evals

let stats (t : t) : stats =
  {
    bases = Hashtbl.length t.bases;
    delta_evals = Atomic.get t.delta_evals;
    full_evals = Atomic.get t.full_evals;
    agg_groups =
      Hashtbl.fold (fun _ s acc -> acc + KTbl.length s.groups) t.agg 0;
    agg_rebuilds = Atomic.get t.agg_rebuilds;
  }
