(* The durable usage log: recovery install, snapshot assembly and the
   one journal-or-checkpoint rule. *)

open Relational
module Store = Persistence.Store
module Snapshot = Persistence.Snapshot
module Record = Persistence.Record

(* Checkpoint once the WAL holds this many records, bounding replay time
   on recovery even for workloads that never trigger compaction. *)
let wal_checkpoint_limit = 10_000

(* After a commit that expired rows, checkpoint once the bytes a
   checkpoint would reclaim pass 1/[reclaim_ratio] of the live log: the
   snapshot and WAL then hold at most 1 + 1/[reclaim_ratio] times what a
   snapshot of the log would, and a checkpoint's cost amortizes over
   commits that journaled a proportional share of the log. *)
let reclaim_ratio = 32

type t = {
  db : Database.t;
  store : Store.t;
  policies : unit -> Policy.t list;
  mutable scope : string list;
      (** the [store_rels] the snapshot scope was last computed for *)
  mutable clock : int;
      (** the clock recovery would restore: the last journaled commit's
          or policy registration's. Checkpoints record it, not the live
          clock, which also counts rejected submissions' unjournaled
          ticks — so the recovered clock never depends on when
          checkpoints ran *)
}

let store t = t.store

let columns table =
  List.map (fun (c : Schema.column) -> (c.Schema.name, c.Schema.ty)) (Schema.columns (Table.schema table))

let policy_rec (p : Policy.t) =
  { Record.name = p.Policy.name; source = p.Policy.source; active_from = p.Policy.active_from }

(* Full persisted state at this instant: the journaled clock, the policy
   set as registered, and every scope relation's contents. *)
let state t : Snapshot.state =
  let rel_state rel =
    let table = Database.table t.db rel in
    let rows = Table.to_seq table |> Seq.map Row.cells |> List.of_seq in
    (rel, { Snapshot.schema = columns table; rows })
  in
  {
    Snapshot.clock = t.clock;
    policies = List.map policy_rec (t.policies ());
    relations = List.map rel_state (List.sort_uniq String.compare t.scope);
  }

let checkpoint t = Store.checkpoint t.store (state t)

(* Install the recovered state: log relation contents, the clock, and
   the registered-policy set. The same generators must be registered as
   when the state was written — a recovered relation without its table
   is an error, not a skip. *)
let install db (st : Snapshot.state) : Policy.t list =
  let cat = Database.catalog db in
  List.iter
    (fun (rel, (rs : Snapshot.rel)) ->
      match Catalog.find_opt cat rel with
      | None ->
        Persistence.Recovery.error "recovered log relation %s has no registered generator" rel
      | Some table ->
        if not (Catalog.is_log cat rel) then
          Persistence.Recovery.error "recovered relation %s is not a log relation" rel;
        if rs.Snapshot.schema <> [] then begin
          let norm = List.map (fun (n, ty) -> (Analysis.lc n, ty)) in
          if norm (columns table) <> norm rs.Snapshot.schema then
            Persistence.Recovery.error
              "recovered relation %s: snapshot schema does not match the installed one" rel
        end;
        Table.clear table;
        Table.bulk_load table rs.Snapshot.rows)
    st.Snapshot.relations;
  Usage_log.set_clock db st.Snapshot.clock;
  List.map
    (fun (p : Record.policy_rec) ->
      Policy.create cat ~is_log:(Catalog.is_log cat) ~name:p.Record.name
        ~active_from:p.Record.active_from p.Record.source)
    st.Snapshot.policies

let open_dir ~fsync ~policies db dir =
  let store, recovered = Store.open_dir ~fsync dir in
  let scope, ps =
    match recovered with
    | None -> ([], [])
    | Some r ->
      let st = r.Persistence.Recovery.state in
      (List.map fst st.Snapshot.relations, install db st)
  in
  ({ db; store; policies; scope; clock = Usage_log.current_time db }, ps)

let add_policy t (p : Policy.t) =
  t.clock <- p.Policy.active_from;
  Store.log_add_policy t.store (policy_rec p)

let remove_policy t name = Store.log_remove_policy t.store name

let set_scope t scope =
  if scope <> t.scope then begin
    t.scope <- scope;
    checkpoint t
  end

(* Only the engine writes a scope relation ({!Catalog.writable}), and
   only by commits, so one record describes each change. *)
let commit t ~now (c : Commit.outcome) =
  t.clock <- now;
  Store.log_commit t.store ~clock:now ~expired:c.Commit.expired ~increments:c.Commit.retained;
  if
    Store.wal_records t.store >= wal_checkpoint_limit
    || c.Commit.expired <> []
       && Store.reclaimable_bytes t.store * reclaim_ratio > Store.live_bytes t.store
  then checkpoint t

let close t =
  let now = Usage_log.current_time t.db in
  if now > t.clock then begin
    t.clock <- now;
    Store.log_commit t.store ~clock:now ~expired:[] ~increments:[]
  end;
  Store.close t.store
