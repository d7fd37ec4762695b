(* The commit seam on its own: a Table 2 script with base DML and policy
   additions, where each submission's stored increments are generated
   here and committed through [Commit.run] directly, with no policy
   evaluation (every submission of the script is accepted by the
   engine). Per commit, the committed tids that expired, their positions
   and the retained increment are pinned. The tids and rows are what the
   engine retains and expires on the same script; the positions are the
   expired tids' ranks in the relation before the commit. Each commit's
   record, replayed onto the relation as it was before the commit
   (delete the positions, append the increment), must give the live
   relation. *)

open Relational
open Datalawyer

let mimic = { Mimic.Generate.small_config with n_patients = 30; events_per_patient = 4 }

let params =
  {
    Workload.Policies.default_params with
    p1_window = 8;
    p1_max_users = 3;
    p5_window = 12;
    p5_max_fraction = 0.9;
    p6_window = 10;
    p6_max_uses = 1000;
  }

let ops =
  let sub uid w = `Sub (uid, w) in
  [ sub 1 "W1"; sub 1 "W3"; sub 1 "W1"; sub 2 "W1"; sub 1 "W1"; sub 1 "W3";
    sub 1 "W1"; sub 1 "W1"; sub 2 "W1"; sub 1 "W1";
    `Dml "INSERT INTO user_groups VALUES (2, 'X')";
    sub 2 "W1"; sub 1 "W1"; sub 2 "W2";
    `Add
      ( "lte",
        "SELECT DISTINCT 'lte' FROM users u, clock c WHERE u.uid = 2 AND \
         c.ts <= u.ts + 3 HAVING COUNT(DISTINCT u.ts) > 100" );
    `Add
      ( "bool",
        "SELECT DISTINCT 'bool' FROM users u, schema s, clock c WHERE u.ts \
         = s.ts AND s.irid = 'd_patients' AND u.uid = 2 AND c.ts > u.ts + 6 \
         AND c.ts <= u.ts + 7" );
    sub 1 "W1"; sub 2 "W1"; sub 1 "W3"; sub 2 "W2"; sub 1 "W1"; sub 2 "W1";
    sub 1 "W1"; sub 1 "W1"; sub 2 "W1"; sub 1 "W1" ]

(* Per commit: [rel -[expired tids]@[their positions] +[retained rows]]
   for each log relation. *)
let expected =
  [
    "1 W1 users -[]@[] +[1,1] schema -[]@[] +[] provenance -[]@[] \
     +[1,0,d_patients,5]";
    "1 W3 users -[]@[] +[2,1] schema -[]@[] +[] provenance -[]@[] +[]";
    "1 W1 users -[1]@[1] +[3,1] schema -[]@[] +[] provenance -[]@[] \
     +[3,0,d_patients,5]";
    "2 W1 users -[]@[] +[4,2] schema -[]@[] +[] provenance -[]@[] +[]";
    "1 W1 users -[]@[] +[5,1] schema -[]@[] +[] provenance -[]@[] \
     +[5,0,d_patients,5]";
    "1 W3 users -[]@[] +[6,1] schema -[]@[] +[] provenance -[]@[] +[]";
    "1 W1 users -[5]@[4] +[7,1] schema -[]@[] +[] provenance -[]@[] \
     +[7,0,d_patients,5]";
    "1 W1 users -[]@[] +[8,1] schema -[]@[] +[] provenance -[]@[] \
     +[8,0,d_patients,5]";
    "2 W1 users -[3]@[2] +[9,2] schema -[]@[] +[] provenance -[]@[] +[]";
    "1 W1 users -[0]@[0] +[10,1] schema -[]@[] +[] provenance -[0]@[0] \
     +[10,0,d_patients,5]";
    "dml";
    "2 W1 users -[8]@[4] +[11,2] schema -[]@[] +[] provenance -[]@[] +[]";
    "1 W1 users -[2]@[0] +[12,1] schema -[]@[] +[] provenance -[1]@[0] \
     +[12,0,d_patients,5]";
    "2 W2 users -[10]@[4] +[13,2] schema -[]@[] +[] provenance -[]@[] +[]";
    "add lte";
    "add bool";
    "1 W1 users -[4]@[0] +[14,1] schema -[]@[] +[] provenance -[2]@[0] \
     +[14,0,d_patients,5]";
    "2 W1 users -[12]@[4] +[15,2] schema -[]@[] \
     +[15,subject_id,d_patients,subject_id,false] provenance -[]@[] +[]";
    "1 W3 users -[6]@[0] +[16,1] schema -[]@[] +[] provenance -[3]@[0] +[]";
    "2 W2 users -[7]@[0] +[17,2] schema -[]@[] \
     +[17,sex,d_patients,sex,false] provenance -[4]@[0] +[]";
    "1 W1 users -[15]@[4] +[18,1] schema -[]@[] +[] provenance -[]@[] \
     +[18,0,d_patients,5]";
    "2 W1 users -[9]@[0] +[19,2] schema -[]@[] \
     +[19,subject_id,d_patients,subject_id,false] provenance -[5]@[0] \
     +[]";
    "1 W1 users -[]@[] +[20,1] schema -[]@[] +[] provenance -[]@[] \
     +[20,0,d_patients,5]";
    "1 W1 users -[11]@[0] +[21,1] schema -[]@[] +[] provenance -[6]@[0] \
     +[21,0,d_patients,5]";
    "2 W1 users -[14]@[1] +[22,2] schema -[0]@[0] \
     +[22,subject_id,d_patients,subject_id,false] provenance -[]@[] +[]";
    "1 W1 users -[13]@[0] +[23,1] schema -[]@[] +[] provenance -[7]@[0] \
     +[23,0,d_patients,5]";
  ]

let expected_final =
  [
    ("users", [ 16; 17; 18; 19; 20; 21; 22 ]);
    ("schema", [ 1; 2; 3 ]);
    ("provenance", [ 8; 9; 10; 11 ]);
  ]

let rels = [ "users"; "schema"; "provenance" ]

let tids db rel =
  List.rev (Table.fold (fun acc r -> Row.tid r :: acc) [] (Database.table db rel))

let render_row cells = String.concat "," (Array.to_list (Array.map Value.to_string cells))

let cells db rel =
  List.rev (Table.fold (fun acc r -> Row.cells r :: acc) [] (Database.table db rel))

(* Recovery's replay of one record onto one relation, on lists. *)
let replay before ~positions ~retained =
  List.filteri (fun i _ -> not (List.mem i positions)) before @ retained

(* One submission's commit: append each stored relation's increment at
   the next tick under a savepoint, as the engine's generation does, then
   hand the savepoints to [Commit.run]. *)
let commit c db (pl : Engine.plan) ~uid sql =
  let now = Usage_log.current_time db + 1 in
  Usage_log.set_clock db now;
  let ctx =
    { Usage_log.uid; time = now; query = Parser.query sql; db; extra = []; lineage_run = None }
  in
  let generated = Hashtbl.create 4 in
  List.iter
    (fun (g : Usage_log.generator) ->
      let rel = g.Usage_log.relation in
      if List.mem rel pl.Engine.store_rels then begin
        let table = Database.table db rel in
        Hashtbl.replace generated rel (Table.savepoint table);
        List.iter
          (fun cells -> ignore (Table.insert table (Array.append [| Value.Int now |] cells)))
          (g.Usage_log.generate ctx)
      end)
    Usage_log.standard;
  Commit.run c pl ~compaction:true ~share:true ~generated ~now
    ~stats:(Stats.create ())
    ~map:{ Commit.map = (fun f xs -> List.map (f (Stats.create ())) xs) }

let test_commit_contract () =
  let s = Workload.Runner.make ~mimic ~params () in
  let e = s.Workload.Runner.engine and db = s.Workload.Runner.db in
  let c = Commit.create db (Prepared.create (Database.catalog db)) in
  let got =
    List.map
      (function
        | `Dml sql ->
          ignore (Database.exec db sql);
          "dml"
        | `Add (name, sql) ->
          ignore (Engine.add_policy e ~name sql);
          Commit.reset c;
          "add " ^ name
        | `Sub (uid, w) ->
          let before = List.map (fun rel -> (rel, (tids db rel, cells db rel))) rels in
          let o =
            commit c db (Engine.plan e) ~uid
              (Workload.Runner.query s w).Workload.Queries.sql
          in
          let part rel =
            let before_tids, before_cells = List.assoc rel before in
            let after = tids db rel in
            let expired = List.filter (fun t -> not (List.mem t after)) before_tids in
            let retained =
              Option.value (List.assoc_opt rel o.Commit.retained) ~default:[]
            in
            let dropped = Option.value (List.assoc_opt rel o.Commit.expired) ~default:[] in
            let positions = List.map fst dropped in
            Alcotest.(check (list string))
              (Printf.sprintf "%s: expired rows at their positions" rel)
              (List.map (fun p -> render_row (List.nth before_cells p)) positions)
              (List.map (fun (_, r) -> render_row r) dropped);
            Alcotest.(check (list string))
              (Printf.sprintf "%s: record replayed onto the previous state" rel)
              (List.map render_row (cells db rel))
              (List.map render_row (replay before_cells ~positions ~retained));
            Printf.sprintf "%s -[%s]@[%s] +[%s]" rel
              (String.concat "," (List.map string_of_int expired))
              (String.concat "," (List.map string_of_int positions))
              (String.concat ";" (List.map render_row retained))
          in
          Printf.sprintf "%d %s %s" uid w (String.concat " " (List.map part rels)))
      ops
  in
  List.iter2 (Alcotest.(check string) "commit") expected got;
  List.iter
    (fun (rel, ts) -> Alcotest.(check (list int)) ("final " ^ rel) ts (tids db rel))
    expected_final

let suite = [ Test_support.tc "contract pinned on a Table 2 script" test_commit_contract ]
