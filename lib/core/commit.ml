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

(* A committed tuple that represents a key of a distinct-value witness
   ({!Witness.scan}). *)
type held = {
  base : int;  (** its deadline from every other witness query *)
  mutable reps : (int * Value.t array * int) list;
      (** each (query position, key) it represents, with the deadline of
          that binding *)
}

(* The recorded marks of one relation whose committed tuples all carry a
   deadline. *)
type tracked = {
  mutable due : int list Ticks.t;  (** committed tuples by deadline, finite ones only *)
  reps : (int * int) Value.Key.Tbl.t array;
      (** per witness query of the relation, by position: each key's
          representative (deadline, tid), for a distinct-value witness *)
  held : (int, held) Hashtbl.t;  (** the representatives, by tid *)
}

type t = {
  db : Database.t;
  prepared : Prepared.t;
  deadlines : (string, tracked) Hashtbl.t;
      (** per compacted relation whose committed tuples all carry a
          deadline (see {!run}); a relation without an entry is marked in
          full *)
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
  if d = max_int then due
  else Ticks.update d (fun tids -> Some (tid :: Option.value tids ~default:[])) due

let remove_due d tid due =
  Ticks.update d
    (function
      | None -> None
      | Some tids -> (
        match List.filter (fun t -> t <> tid) tids with [] -> None | tids -> Some tids))
    due

let held_deadline h = List.fold_left (fun d (_, _, dr) -> max d dr) h.base h.reps

(* A committed representative loses its hold on [(qi, key)]: it expires
   at the latest of its remaining holds, which may be this commit. *)
let release tr tid qi key =
  let h = Hashtbl.find tr.held tid in
  let before = held_deadline h in
  h.reps <- List.filter (fun (q, k, _) -> not (q = qi && Value.Key.equal k key)) h.reps;
  if h.reps = [] then Hashtbl.remove tr.held tid;
  let after = held_deadline h in
  if after <> before then tr.due <- add_due after tid (remove_due before tid tr.due)

(* Record [tid] as the representative of [(qi, key)] until [d]. *)
let hold tr ~base tid (qi, key, d) =
  Value.Key.Tbl.replace tr.reps.(qi) key (d, tid);
  match Hashtbl.find_opt tr.held tid with
  | Some h -> h.reps <- (qi, key, d) :: h.reps
  | None -> Hashtbl.replace tr.held tid { base; reps = [ (qi, key, d) ] }

(* An expired tuple represents no key any more. *)
let forget tr tid =
  Option.iter
    (fun (h : held) ->
      List.iter (fun (qi, key, _) -> Value.Key.Tbl.remove tr.reps.(qi) key) h.reps;
      Hashtbl.remove tr.held tid)
    (Hashtbl.find_opt tr.held tid)

(* What the mark phase found for one relation: each witnessed tuple's
   deadline over its Lemma 4.1/4.2 rows, and the distinct-value
   representatives it won this commit. *)
type witnessed = {
  rows : (int, int) Hashtbl.t;
  won : (int, (int * Value.t array * int) list) Hashtbl.t;
}

let base_of w tid = Option.value (Hashtbl.find_opt w.rows tid) ~default:min_int

let wins_of w tid = Option.value (Hashtbl.find_opt w.won tid) ~default:[]

let deadline_of w tid =
  List.fold_left (fun d (_, _, dr) -> max d dr) (base_of w tid) (wins_of w tid)

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
   while {!deadlines_hold} holds. A distinct-value witness keeps one
   representative per key, the binding with the latest deadline; only a
   later increment can beat it, by a binding of the same key whose
   deadline is not earlier, and the replaced tuple then expires at the
   latest of its remaining holds. So the deadlines and representatives
   seeded by a full mark stay exact, and a later commit only marks its
   increment ({!Witness.at_clock_tick}), moves the representatives it
   replaces, and deletes the committed tuples whose deadline has come (a
   relation skipped preemptively only expires). The full mark runs
   instead for a relation without recorded deadlines (new or recovered
   engine, new plan), after the recorded state moved (base DML, DDL),
   and for a relation with a Lemma 4.2 witness (its representatives can
   change). It rebuilds the representatives from the retained log: ties
   prefer larger source tids, and an increment's tids are above every
   committed one, so it picks what the increments picked. *)
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
     rows and the representatives it wins). *)
  let witnessed : (string, witnessed) Hashtbl.t = Hashtbl.create 4 in
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
                else List.mapi (fun qi q -> (rel, qi, q, full)) queries)
            marks
        in
        let results =
          map.map
            (fun _ (rel, qi, (q : Witness.query), full) ->
              let s = if full then q.Witness.select else Witness.at_clock_tick q in
              (rel, qi, q, Prepared.run t.prepared ~opts:track_src ~share (Ast.Select s)))
            tasks
        in
        List.iter
          (fun (rel, _) ->
            Hashtbl.replace witnessed rel
              { rows = Hashtbl.create 64; won = Hashtbl.create 16 })
          marks;
        List.iter
          (fun (rel, qi, (q : Witness.query), r) ->
            let w = Hashtbl.find witnessed rel in
            let tracked = Hashtbl.find_opt t.deadlines rel in
            Witness.scan q ~now r (fun key tid d ->
                if q.Witness.latest = None then begin
                  match Hashtbl.find_opt w.rows tid with
                  | Some d0 when d0 >= d -> ()
                  | Some _ | None -> Hashtbl.replace w.rows tid d
                end
                else
                  (* An increment's binding replaces the committed
                     representative unless its deadline is earlier. *)
                  let beaten =
                    match tracked with
                    | None -> false
                    | Some tr -> (
                      match Value.Key.Tbl.find_opt tr.reps.(qi) key with
                      | Some (d0, _) -> d < d0
                      | None -> false)
                  in
                  if not beaten then Hashtbl.replace w.won tid ((qi, key, d) :: wins_of w tid)))
          results;
        marks)
  in
  (* Delete + insert phases per relation. *)
  List.iter
    (fun (rel, m) ->
      let table = Database.table t.db rel in
      let sp = Hashtbl.find_opt generated rel in
      (* The retained part of the increment as WAL rows (the marks are
         final at this point), folded straight to cells, each with its
         tentative tid and deadline. *)
      let retained keep =
        match sp with
        | None -> []
        | Some sp ->
          List.rev
            (Table.fold_since
               (fun acc row ->
                 match keep (Row.tid row) with
                 | Some d -> (Row.cells row, Row.tid row, d) :: acc
                 | None -> acc)
               [] table sp)
      in
      match m with
      | Keep ->
        (* Everything retained: release the increment in place, so its
           tids, index entries and version counters stand as generated. *)
        Stats.timed
          (fun d -> stats.Stats.compact_insert <- stats.Stats.compact_insert +. d)
          (fun () ->
            let kept = List.map (fun (cells, _, _) -> cells) (retained (fun _ -> Some 0)) in
            Option.iter (Table.release table) sp;
            stats.Stats.rows_logged <- stats.Stats.rows_logged + List.length kept;
            note_increment rel kept)
      | Mark { full; queries } ->
        let w = Hashtbl.find witnessed rel in
        let kept =
          retained (fun tid ->
              let d = deadline_of w tid in
              if d > now then Some d else None)
        in
        charge_rollback (fun () -> Option.iter (Table.rollback_to table) sp);
        Stats.timed
          (fun d -> stats.Stats.compact_delete <- stats.Stats.compact_delete +. d)
          (fun () ->
            if full then begin
              let keep = Hashtbl.create 64 in
              let survive tid = if deadline_of w tid > now then Hashtbl.replace keep tid () in
              Hashtbl.iter (fun tid _ -> survive tid) w.rows;
              Hashtbl.iter (fun tid _ -> survive tid) w.won;
              note_expired rel (Table.retain_tids table keep);
              (* Seed the committed survivors' deadlines and
                 representatives, unless a Lemma 4.2 witness keeps this
                 relation on the full mark. *)
              if
                List.for_all
                  (fun (q : Witness.query) -> q.Witness.keys = None || q.Witness.latest <> None)
                  queries
              then begin
                let floor = Option.fold ~none:max_int ~some:Table.savepoint_tid sp in
                let tr =
                  {
                    due = Ticks.empty;
                    reps = Array.of_list (List.map (fun _ -> Value.Key.Tbl.create 16) queries);
                    held = Hashtbl.create 16;
                  }
                in
                Hashtbl.iter
                  (fun tid () ->
                    if tid < floor then begin
                      tr.due <- add_due (deadline_of w tid) tid tr.due;
                      List.iter (hold tr ~base:(base_of w tid) tid) (wins_of w tid)
                    end)
                  keep;
                Hashtbl.replace t.deadlines rel tr
              end
            end
            else begin
              let tr = Hashtbl.find t.deadlines rel in
              (* The representatives this increment replaces lose their
                 hold. *)
              Hashtbl.iter
                (fun _ wins ->
                  List.iter
                    (fun (qi, key, _) ->
                      match Value.Key.Tbl.find_opt tr.reps.(qi) key with
                      | Some (_, old) -> release tr old qi key
                      | None -> ())
                    wins)
                w.won;
              let expired, at_now, later = Ticks.split now tr.due in
              let dead = Hashtbl.create 64 in
              let kill =
                List.iter (fun tid ->
                    forget tr tid;
                    Hashtbl.replace dead tid ())
              in
              Ticks.iter (fun _ tids -> kill tids) expired;
              Option.iter kill at_now;
              if Hashtbl.length dead > 0 then note_expired rel (Table.drop_tids table dead);
              tr.due <- later
            end);
        (* Insert the retained part of the increment, carrying each row's
           deadline and representatives over to its new tid. *)
        Stats.timed
          (fun d -> stats.Stats.compact_insert <- stats.Stats.compact_insert +. d)
          (fun () ->
            let tr = Hashtbl.find_opt t.deadlines rel in
            List.iter
              (fun (cells, tentative, d) ->
                let tid = Table.insert table cells in
                stats.Stats.rows_logged <- stats.Stats.rows_logged + 1;
                Option.iter
                  (fun tr ->
                    tr.due <- add_due d tid tr.due;
                    List.iter (hold tr ~base:(base_of w tentative) tid) (wins_of w tentative))
                  tr)
              kept;
            note_increment rel (List.map (fun (cells, _, _) -> cells) kept)))
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
