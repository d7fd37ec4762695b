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
    [Engine.invalidate]) and every referenced table's version counter
    must match the snapshot taken at establishment — a log relation's
    {!Relational.Table.ver_unsafe} (appends are covered by the
    watermark, removals cannot grow a monotone result), any other
    table's {!Relational.Table.ver_mut}. *)

type base = { gen : int; vers : (string * int) list }

type t = {
  bases : (string, base) Hashtbl.t;
  delta_evals : int Atomic.t;
  full_evals : int Atomic.t;
}

type stats = { bases : int; delta_evals : int; full_evals : int }

let create () : t =
  {
    bases = Hashtbl.create 16;
    delta_evals = Atomic.make 0;
    full_evals = Atomic.make 0;
  }

let reset (t : t) =
  Hashtbl.reset t.bases;
  Atomic.set t.delta_evals 0;
  Atomic.set t.full_evals 0

let snapshot (cat : Relational.Catalog.t) (deps : string list) :
    (string * int) list =
  let open Relational in
  List.map
    (fun name ->
      match Catalog.find_opt cat name with
      | Some table ->
        ( name,
          if Catalog.is_log cat name then Table.ver_unsafe table
          else Table.ver_mut table )
      | None -> (name, -1))
    deps

let establish (t : t) name ~gen ~vers =
  Hashtbl.replace t.bases name { gen; vers }

let valid (t : t) name ~gen ~vers =
  match Hashtbl.find_opt t.bases name with
  | None -> false
  | Some b -> b.gen = gen && b.vers = vers

let note_delta_eval (t : t) = Atomic.incr t.delta_evals

let note_full_eval (t : t) = Atomic.incr t.full_evals

let stats (t : t) : stats =
  {
    bases = Hashtbl.length t.bases;
    delta_evals = Atomic.get t.delta_evals;
    full_evals = Atomic.get t.full_evals;
  }
