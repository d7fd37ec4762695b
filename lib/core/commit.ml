(* Log compaction (Algorithm 2, §4.1.2) of an accepted submission's
   commit. *)

open Relational

(* Committed log tuples by the tick at which no witness keeps them. *)
module Ticks = Map.Make (Int)

(* What the commit record keeps of a table. *)
type shape = {
  rows : int;
  mut : int;  (** {!Table.ver_mut} *)
}

type t = {
  db : Database.t;
  prepared : Prepared.t;
  deadlines : (string, int list Ticks.t) Hashtbl.t;
      (** per compacted relation whose committed tuples all carry a
          deadline: those tuples by deadline, finite ones only (see
          {!run}); a relation without an entry is marked in full *)
  mutable committed : (int * (string, shape) Hashtbl.t) option;
      (** the committed state as of the end of the last commit: the
          catalog generation and every table's shape, by lowercased
          name. Written only by {!run}, cleared only by {!reset}; pool
          tasks only read it *)
  mutable delta_marks : int;  (** relations marked from their increment *)
  mutable full_marks : int;  (** relations marked over the whole log *)
  mutable preemptive_skips : int;  (** stored relations committed ungenerated *)
}

let create db prepared =
  { db; prepared; deadlines = Hashtbl.create 4; committed = None; delta_marks = 0; full_marks = 0;
    preemptive_skips = 0 }

let reset t =
  Hashtbl.reset t.deadlines;
  t.committed <- None

let recorded t = Option.is_some t.committed

(* Record the committed state, and advance every log relation's
   watermark to its frontier in the same breath: the alignment of
   watermark and record is what the engine's delta and relevance
   soundness arguments rest on. *)
let record t =
  let cat = Database.catalog t.db in
  let names = Catalog.table_names cat in
  let shapes = Hashtbl.create (List.length names) in
  List.iter
    (fun name ->
      let tb = Catalog.find cat name in
      if Catalog.is_log cat name then Table.mark_delta_base tb;
      Hashtbl.replace shapes (Analysis.lc name)
        { rows = Table.row_count tb; mut = Table.ver_mut tb })
    names;
  t.committed <- Some (Catalog.generation cat, shapes)

(* Has every relation of [rels] kept its recorded shape, under the
   recorded catalog generation, as [same] judges it? A relation neither
   recorded nor in the catalog has; one in only one of them has not. *)
let unchanged t rels same =
  match t.committed with
  | None -> false
  | Some (gen, shapes) ->
    let cat = Database.catalog t.db in
    gen = Catalog.generation cat
    && List.for_all
         (fun rel ->
           match (Hashtbl.find_opt shapes (Analysis.lc rel), Catalog.find_opt cat rel) with
           | Some s, Some tb -> same rel s tb
           | None, None -> true
           | _ -> false)
         rels

(* Only the engine writes a log relation ({!Catalog.writable}): since
   the record, a log dependency has only gained rows above its
   watermark, been rolled back to it, or lost rows to compaction. *)
let covers t deps =
  let cat = Database.catalog t.db in
  unchanged t deps (fun rel s tb -> Catalog.is_log cat rel || s.mut = Table.ver_mut tb)

let marks t = (t.delta_marks, t.full_marks)

let preemptive_skips t = t.preemptive_skips

(* §4.3 preemptive log compaction: before generating relation [rel] just
   for storage, test whether its witnesses could possibly retain any tuple
   of the would-be increment, using only the already-generated logs
   ({!Witness.probe}). Witness queries are monotone, so an empty probe
   implies an empty increment witness. *)
let preemptively_empty t (pl : Offline.t) ~share ~generated (rel : string) : bool =
  let available = Hashtbl.fold (fun r _ acc -> r :: acc) generated [] in
  let is_log = Catalog.is_log (Database.catalog t.db) in
  match List.assoc_opt rel pl.Offline.witnesses with
  | None -> true
  | Some Witness.Keep_all -> false
  | Some (Witness.Queries qs) ->
    List.for_all
      (fun q ->
        match Witness.probe ~is_log ~available q with
        | None -> false (* nothing left to test: generate *)
        | Some pq -> Prepared.is_empty t.prepared ~share (Ast.Select pq))
      qs

type outcome = {
  retained : (string * Value.t array list) list;
  expired : (string * (int * Value.t array) list) list;
}

type map = { map : 'a 'b. (Stats.t -> 'a -> 'b) -> 'a list -> 'b list }

(* How one stored relation is marked at a commit: [Keep] retains
   everything (compaction off, or a [Keep_all] witness); [Mark] runs the
   witness queries over the whole log ([full]) or over the increment
   only, expiring committed tuples by their recorded deadlines. *)
type mark = Keep | Mark of { full : bool; queries : Witness.query list }

let add_due d tid due =
  Ticks.update d (fun tids -> Some (tid :: Option.value tids ~default:[])) due

(* Do the recorded deadlines still hold? Since the last commit, each
   stored relation has changed only by its tentative increment
   ([pending rel] rows) and every base relation a witness joins not at
   all. *)
let deadlines_hold t (pl : Offline.t) ~(pending : string -> int) =
  unchanged t pl.Offline.store_rels (fun rel s tb -> s.rows = Table.row_count tb - pending rel)
  && unchanged t pl.Offline.witness_bases (fun _ s tb -> s.mut = Table.ver_mut tb)

let track_src = { Executor.lineage = false; track_src = true }

(* A stored relation's tuples leave the log at their deadline, the first
   tick at which no witness keeps them ({!Witness.scan}). For a Lemma 4.1
   witness that tick is fixed when the tuple is committed: its joined
   rows are its ts-equijoin neighbours, stamped at its own tick and so
   never joined by later increments, and base rows, which do not move
   while {!deadlines_hold} holds. So the deadlines seeded by a full mark
   stay exact, and a later commit only marks its increment
   ({!Witness.at_clock_tick}) and deletes the committed tuples whose
   deadline has come (a relation skipped preemptively only expires). The
   full mark runs instead for a relation without recorded deadlines (new
   or recovered engine, new plan), after the recorded state moved (base
   DML, DDL), and for a relation with a Lemma 4.2 witness (its
   representatives can change). *)
let run t (pl : Offline.t) ~compaction ~share ~generated ~(now : int)
    ~(stats : Stats.t) ~map : outcome =
  (* Per-relation rows retained and committed rows expired this commit:
     the WAL record. *)
  let persisted : (string * Value.t array list) list ref = ref [] in
  let note_increment rel rows = if rows <> [] then persisted := (rel, rows) :: !persisted in
  let expired = ref [] in
  let note_expired rel = function
    | [] -> ()
    | rows -> expired := (rel, List.map (fun (p, r) -> (p, Row.cells r)) rows) :: !expired
  in
  let charge_rollback f =
    Stats.timed (fun d -> stats.Stats.rollback <- stats.Stats.rollback +. d) f
  in
  let pending rel =
    match Hashtbl.find_opt generated rel with
    | Some sp -> Table.fold_since (fun n _ -> n + 1) 0 (Database.table t.db rel) sp
    | None -> 0
  in
  (* Mark phase: choose each relation's route, run its witness queries
     and fold every witnessed tuple's deadline (the max over its joined
     rows). *)
  let witnessed : (string, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
  let marks =
    Stats.timed
      (fun d -> stats.Stats.compact_mark <- stats.Stats.compact_mark +. d)
      (fun () ->
        let incremental = compaction && deadlines_hold t pl ~pending in
        if not incremental then Hashtbl.reset t.deadlines;
        let marks =
          List.map
            (fun rel ->
              if not (Hashtbl.mem generated rel) then
                t.preemptive_skips <- t.preemptive_skips + 1;
              if not compaction then (rel, Keep)
              else
                match List.assoc rel pl.Offline.witnesses with
                | Witness.Keep_all -> (rel, Keep)
                | Witness.Queries queries ->
                  let full = not (Hashtbl.mem t.deadlines rel) in
                  if full then t.full_marks <- t.full_marks + 1
                  else t.delta_marks <- t.delta_marks + 1;
                  (rel, Mark { full; queries }))
            pl.Offline.store_rels
        in
        (* Every witness query is one [map] task; results fold in input
           order after the join. *)
        let tasks =
          List.concat_map
            (fun (rel, m) ->
              match m with
              | Keep -> []
              | Mark { full; queries } ->
                if (not full) && pending rel = 0 then []
                else List.map (fun q -> (rel, q, full)) queries)
            marks
        in
        let results =
          map.map
            (fun _ (rel, (q : Witness.query), full) ->
              let s = if full then q.Witness.select else Witness.at_clock_tick q in
              (rel, q, Prepared.run t.prepared ~opts:track_src ~share (Ast.Select s)))
            tasks
        in
        List.iter (fun (rel, _) -> Hashtbl.replace witnessed rel (Hashtbl.create 64)) marks;
        List.iter
          (fun (rel, q, r) ->
            let dl = Hashtbl.find witnessed rel in
            Witness.scan q ~now r (fun tid d ->
                match Hashtbl.find_opt dl tid with
                | Some d0 when d0 >= d -> ()
                | Some _ | None -> Hashtbl.replace dl tid d))
          results;
        marks)
  in
  (* Delete + insert phases per relation. *)
  List.iter
    (fun (rel, m) ->
      let table = Database.table t.db rel in
      let sp = Hashtbl.find_opt generated rel in
      (* The retained part of the increment as WAL rows (the marks are
         final at this point), folded straight to cells. *)
      let retained keep =
        match sp with
        | None -> []
        | Some sp ->
          List.rev
            (Table.fold_since
               (fun acc row ->
                 match keep row with Some d -> (Row.cells row, d) :: acc | None -> acc)
               [] table sp)
      in
      match m with
      | Keep ->
        (* Everything retained: release the increment in place, so its
           tids, index entries and version counters stand as generated. *)
        Stats.timed
          (fun d -> stats.Stats.compact_insert <- stats.Stats.compact_insert +. d)
          (fun () ->
            let kept = List.map fst (retained (fun _ -> Some 0)) in
            Option.iter (Table.release table) sp;
            stats.Stats.rows_logged <- stats.Stats.rows_logged + List.length kept;
            note_increment rel kept)
      | Mark { full; queries } ->
        let dl = Hashtbl.find witnessed rel in
        let kept =
          retained (fun row ->
              match Hashtbl.find_opt dl (Row.tid row) with
              | Some d when d > now -> Some d
              | Some _ | None -> None)
        in
        charge_rollback (fun () -> Option.iter (Table.rollback_to table) sp);
        Stats.timed
          (fun d -> stats.Stats.compact_delete <- stats.Stats.compact_delete +. d)
          (fun () ->
            if full then begin
              let keep = Hashtbl.create 64 in
              Hashtbl.iter (fun tid d -> if d > now then Hashtbl.replace keep tid ()) dl;
              note_expired rel (Table.retain_tids table keep);
              (* Seed the committed survivors' deadlines, unless a Lemma
                 4.2 witness keeps this relation on the full mark. *)
              if List.for_all (fun (q : Witness.query) -> q.Witness.keys = None) queries
              then begin
                let floor = Option.fold ~none:max_int ~some:Table.savepoint_tid sp in
                Hashtbl.replace t.deadlines rel
                  (Hashtbl.fold
                     (fun tid d due ->
                       if tid < floor && d > now && d < max_int then add_due d tid due
                       else due)
                     dl Ticks.empty)
              end
            end
            else begin
              let expired, at_now, later = Ticks.split now (Hashtbl.find t.deadlines rel) in
              let dead = Hashtbl.create 64 in
              let kill = List.iter (fun tid -> Hashtbl.replace dead tid ()) in
              Ticks.iter (fun _ tids -> kill tids) expired;
              Option.iter kill at_now;
              if Hashtbl.length dead > 0 then note_expired rel (Table.drop_tids table dead);
              Hashtbl.replace t.deadlines rel later
            end);
        (* Insert the retained part of the increment, carrying each row's
           deadline over to its new tid. *)
        Stats.timed
          (fun d -> stats.Stats.compact_insert <- stats.Stats.compact_insert +. d)
          (fun () ->
            let due = Hashtbl.find_opt t.deadlines rel in
            let due =
              List.fold_left
                (fun due (cells, d) ->
                  let tid = Table.insert table cells in
                  stats.Stats.rows_logged <- stats.Stats.rows_logged + 1;
                  if d < max_int then Option.map (add_due d tid) due else due)
                due kept
            in
            Option.iter (Hashtbl.replace t.deadlines rel) due;
            note_increment rel (List.map fst kept)))
    marks;
  (* Roll back increments of relations generated for evaluation only. *)
  charge_rollback (fun () ->
      Hashtbl.iter
        (fun rel sp ->
          if not (List.mem rel pl.Offline.store_rels) then
            Table.rollback_to (Database.table t.db rel) sp)
        generated);
  (* All savepoints are resolved now: a later failure (e.g. in the user
     query) must not attempt to roll them back again. *)
  Hashtbl.reset generated;
  record t;
  (* The outcome is the commit's WAL record ({!Durable.commit}): the
     positions compaction expired and every relation's retained
     increment. *)
  let by_rel l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  { retained = by_rel !persisted; expired = by_rel !expired }
