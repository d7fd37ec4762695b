(* Log compaction behaviour at the engine level: witness unions across
   policies, database-relation filters in witnesses, shrinking after
   policy removal, and Example 4.3's concrete shape. *)

open Relational
open Datalawyer
open Test_support

let mk_db () =
  db_of_script
    {|
    CREATE TABLE items (id INT, kind TEXT);
    CREATE TABLE memberships (uid INT, gid TEXT);
    INSERT INTO items VALUES (1, 'a'), (2, 'b');
    INSERT INTO memberships VALUES (1, 'student'), (2, 'student'), (3, 'staff')
    |}

let rate_policy ~name ~window =
  ( name,
    Printf.sprintf
      "SELECT DISTINCT '%s violated' FROM users u, clock c WHERE u.ts > c.ts \
       - %d HAVING COUNT(DISTINCT u.ts) > 1000"
      name window )

let submit e uid = ignore (Engine.submit e ~uid "SELECT id FROM items WHERE id = 1")

let test_union_of_witnesses () =
  (* Two window policies over users: the longer window wins. *)
  let db = mk_db () in
  let e = Engine.create db in
  let n1, s1 = rate_policy ~name:"narrow" ~window:3 in
  let n2, s2 = rate_policy ~name:"wide" ~window:12 in
  ignore (Engine.add_policy e ~name:n1 s1);
  ignore (Engine.add_policy e ~name:n2 s2);
  for _ = 1 to 30 do
    submit e 1
  done;
  let sz = Engine.log_size e "users" in
  (* retained ≈ the 12-tick window (plus frontier slack), not 3, not 30 *)
  Alcotest.(check bool) (Printf.sprintf "between windows (got %d)" sz) true
    (sz >= 10 && sz <= 14)

let test_removal_shrinks_log () =
  let db = mk_db () in
  let e = Engine.create db in
  let n2, s2 = rate_policy ~name:"wide" ~window:12 in
  let n1, s1 = rate_policy ~name:"narrow" ~window:3 in
  ignore (Engine.add_policy e ~name:n2 s2);
  ignore (Engine.add_policy e ~name:n1 s1);
  for _ = 1 to 20 do
    submit e 1
  done;
  let before = Engine.log_size e "users" in
  Engine.remove_policy e n2;
  for _ = 1 to 2 do
    submit e 1
  done;
  let after = Engine.log_size e "users" in
  Alcotest.(check bool)
    (Printf.sprintf "log shrank to the narrow window (%d -> %d)" before after)
    true
    (after < before && after <= 5)

let test_witness_filters_by_db_relation () =
  (* Only 'student' members' activity needs keeping (Example 4.2). *)
  let db = mk_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"students"
       "SELECT DISTINCT 'too many students' FROM users u, memberships m, \
        clock c WHERE u.uid = m.uid AND m.gid = 'student' AND u.ts > c.ts - \
        50 HAVING COUNT(DISTINCT u.uid) > 100");
  submit e 1;
  (* student *)
  submit e 3;
  (* staff *)
  submit e 2;
  (* student *)
  submit e 9;
  (* not a member at all *)
  let users = Database.table db "users" in
  let uids =
    List.sort Value.compare (List.map (fun r -> Row.cell r 1) (Table.rows users))
  in
  Alcotest.check (Alcotest.list value) "only student uids retained"
    [ i 1; i 2 ] uids

let test_example_4_3_shape () =
  (* The users witness of Example 4.3: membership join kept, schema in
     the neighborhood, clock relation dropped, and the time predicate
     frozen as a deadline instead of a literal frontier. *)
  let db = mk_db () in
  let e = Engine.create db in
  let p =
    Engine.add_policy e ~name:"p2b"
      "SELECT DISTINCT 'P2b' FROM users u, schema s, memberships g, clock c \
       WHERE u.ts = s.ts AND s.irid = 'items' AND u.uid = g.uid AND g.gid = \
       'student' AND u.ts > c.ts - 14 HAVING COUNT(DISTINCT u.uid) > 10"
  in
  let is_log rel = Catalog.is_log (Database.catalog db) rel in
  match List.assoc_opt "users" (Witness.for_policy ~is_log p) with
  | Some (Witness.Queries [ w ]) -> (
    let sql = Sql_print.select w.Witness.select in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("witness contains " ^ needle) true
          (Test_policy.contains_substring sql needle))
      [ "schema"; "memberships" ];
    Alcotest.(check bool) "clock dropped" false
      (Test_policy.contains_substring sql "clock");
    (* A distinct-value witness: one binding per counted u.uid, whose
       log slots are users (0) and schema (1). *)
    Alcotest.(check (option int)) "keyed by the counted u.uid" (Some 1) w.Witness.keys;
    Alcotest.(check (option (list int))) "tie order over the log slots" (Some [ 1; 0 ])
      w.Witness.latest;
    (* c.ts < u.ts + 14, frozen at now = 100 as 101 < u.ts + 14: a row
       with u.ts + 14 = 102 is kept through tick 100 and no further. *)
    match w.Witness.bounds with
    | [ b ] ->
      Alcotest.(check string) "bound expression" "u.ts + 14" (Sql_print.expr b.Witness.expr);
      Alcotest.(check bool) "strict" true b.Witness.strict;
      Alcotest.(check int) "last kept at 100" 101 (Witness.deadline b (i 102));
      Alcotest.(check int) "gone at 100" 100 (Witness.deadline b (i 101))
    | bs -> Alcotest.failf "expected one bound, got %d" (List.length bs))
  | _ -> Alcotest.fail "expected a single users witness"

let test_ti_only_relations_never_generated () =
  (* A TI policy over schema and a window policy over users: provenance is
     never generated, schema is generated but never stored. *)
  let db = mk_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"ti"
       "SELECT DISTINCT 'no b items' FROM schema s, users u WHERE s.ts = \
        u.ts AND s.irid = 'nonexistent_kind'");
  let n1, s1 = rate_policy ~name:"narrow" ~window:3 in
  ignore (Engine.add_policy e ~name:n1 s1);
  for _ = 1 to 10 do
    submit e 1
  done;
  Alcotest.(check int) "schema never stored" 0 (Engine.log_size e "schema");
  Alcotest.(check int) "provenance untouched" 0 (Engine.log_size e "provenance");
  Alcotest.(check bool) "users window stored" true (Engine.log_size e "users" > 0)

let test_self_join_witness_union () =
  (* A time-dependent self-join policy: both occurrences' witnesses union,
     keeping rows that satisfy either side's predicates. *)
  let db = mk_db () in
  let e = Engine.create db in
  let p =
    Engine.add_policy e ~name:"sj"
      "SELECT DISTINCT 'x' FROM schema s1, schema s2, clock c WHERE s1.ts = \
       s2.ts AND s1.irid = 'items' AND s2.irid != 'items' AND s1.ts > c.ts - 9"
  in
  let is_log rel = Catalog.is_log (Database.catalog db) rel in
  (match List.assoc_opt "schema" (Witness.for_policy ~is_log p) with
  | Some (Witness.Queries qs) ->
    Alcotest.(check int) "two witness queries" 2 (List.length qs)
  | _ -> Alcotest.fail "expected queries");
  (* semantically: rows of both polarities inside the window are retained *)
  let sch = Database.table db "schema" in
  let add ts irid =
    ignore
      (Table.insert sch [| i ts; Value.Null; s irid; Value.Null; b false |])
  in
  add 45 "items";
  add 45 "other";
  add 30 "items";
  (* out of window *)
  let retained =
    Test_support.witness_retained db ~now:50
      (List.assoc "schema" (Witness.for_policy ~is_log p))
  in
  Alcotest.(check int) "both in-window rows retained" 2 (Hashtbl.length retained)

(* A fixed Table 2 script with policy changes and base DML between
   commits: after every step, each log relation's row count and a digest
   of its tids. *)
let tab2_trace () =
  let s =
    Workload.Runner.make
      ~mimic:
        { Mimic.Generate.small_config with n_patients = 30; events_per_patient = 4 }
      ~params:
        {
          Workload.Policies.default_params with
          p1_window = 8;
          p1_max_users = 3;
          p5_window = 12;
          p5_max_fraction = 0.9;
          p6_window = 10;
          p6_max_uses = 1000;
        }
      ()
  in
  let e = s.Workload.Runner.engine in
  let db = s.Workload.Runner.db in
  let sub uid w = `Sub (uid, w) in
  let ops =
    [ sub 1 "W1"; sub 1 "W2"; sub 1 "W1"; sub 1 "W3"; sub 1 "W1"; sub 1 "W2";
      sub 1 "W1"; sub 1 "W1"; sub 2 "W1"; sub 1 "W2"; sub 1 "W1"; sub 1 "W3";
      sub 0 "W1"; sub 1 "W1";
      `Dml "INSERT INTO user_groups VALUES (2, 'X')";
      sub 2 "W1"; sub 1 "W1"; sub 2 "W2"; sub 1 "W1"; sub 1 "W2";
      `Add
        ( "lte",
          "SELECT DISTINCT 'lte' FROM users u, clock c WHERE u.uid = 2 AND \
           c.ts <= u.ts + 3 HAVING COUNT(DISTINCT u.ts) > 100" );
      `Add
        ( "flt",
          "SELECT DISTINCT 'flt' FROM users u, clock c WHERE u.ts > c.ts - \
           2.5 HAVING COUNT(*) > 100" );
      `Add
        ( "eq",
          "SELECT DISTINCT 'eq' FROM provenance p, clock c WHERE c.ts = p.ts \
           + 2 AND p.irid = 'd_patients' HAVING COUNT(*) > 100" );
      `Add
        ( "bool",
          "SELECT DISTINCT 'bool' FROM users u, schema s, clock c WHERE u.ts \
           = s.ts AND s.irid = 'd_patients' AND u.uid = 2 AND c.ts > u.ts + 6 \
           AND c.ts <= u.ts + 7" );
      sub 1 "W1"; sub 2 "W1"; sub 1 "W2"; sub 2 "W2"; sub 1 "W1"; sub 1 "W3";
      sub 2 "W1"; sub 1 "W1";
      `Remove "P1";
      sub 1 "W1"; sub 2 "W1"; sub 1 "W2"; sub 1 "W1"; sub 2 "W1";
      `Dml "DELETE FROM user_groups WHERE uid = 2";
      `Remove "bool";
      sub 2 "W1"; sub 1 "W1"; sub 2 "W2"; sub 1 "W1" ]
  in
  let digest rel =
    let tids =
      List.rev
        (Table.fold
           (fun acc row -> string_of_int (Row.tid row) :: acc)
           [] (Database.table db rel))
    in
    Printf.sprintf "%s=%d:%s" rel (List.length tids)
      (String.sub (Digest.to_hex (Digest.string (String.concat "," tids))) 0 8)
  in
  List.map
    (fun op ->
      let label =
        match op with
        | `Sub (uid, w) -> (
          match
            Engine.submit e ~uid (Workload.Runner.query s w).Workload.Queries.sql
          with
          | Engine.Accepted _ -> Printf.sprintf "%d %s A" uid w
          | Engine.Rejected _ -> Printf.sprintf "%d %s R" uid w)
        | `Dml sql ->
          ignore (Database.exec db sql);
          "dml"
        | `Add (name, sql) ->
          ignore (Engine.add_policy e ~name sql);
          "add " ^ name
        | `Remove name ->
          Engine.remove_policy e name;
          "remove " ^ name
      in
      String.concat " "
        (label :: List.map digest [ "users"; "schema"; "provenance" ]))
    ops

(* [tab2_trace]'s output under a full mark at every commit: each witness
   run over the whole log (the engine re-planned before every step). *)
let full_mark_trace =
  [
    "1 W1 A users=1:cfcd2084 schema=0:d41d8cd9 provenance=1:cfcd2084";
    "1 W2 R users=1:cfcd2084 schema=0:d41d8cd9 provenance=1:cfcd2084";
    "1 W1 A users=2:d192e0c4 schema=0:d41d8cd9 provenance=2:d192e0c4";
    "1 W3 A users=3:432bbe43 schema=0:d41d8cd9 provenance=2:d192e0c4";
    "1 W1 A users=3:08eb5465 schema=0:d41d8cd9 provenance=3:432bbe43";
    "1 W2 R users=3:08eb5465 schema=0:d41d8cd9 provenance=3:432bbe43";
    "1 W1 A users=4:aab211df schema=0:d41d8cd9 provenance=4:37770ad1";
    "1 W1 A users=5:073bd42a schema=0:d41d8cd9 provenance=5:b1959cea";
    "2 W1 A users=6:3efb13de schema=0:d41d8cd9 provenance=5:b1959cea";
    "1 W2 R users=6:3efb13de schema=0:d41d8cd9 provenance=5:b1959cea";
    "1 W1 A users=6:e8d242ad schema=0:d41d8cd9 provenance=5:afe805e5";
    "1 W3 A users=6:785b4b91 schema=0:d41d8cd9 provenance=4:a4618027";
    "0 W1 A users=6:785b4b91 schema=0:d41d8cd9 provenance=4:a4618027";
    "1 W1 A users=5:b9b5f5de schema=0:d41d8cd9 provenance=4:a209698a";
    "dml users=5:b9b5f5de schema=0:d41d8cd9 provenance=4:a209698a";
    "2 W1 A users=5:da9feb97 schema=0:d41d8cd9 provenance=4:a209698a";
    "1 W1 A users=5:82322fd5 schema=0:d41d8cd9 provenance=4:8dada30b";
    "2 W2 A users=4:68404529 schema=0:d41d8cd9 provenance=3:ca021074";
    "1 W1 A users=5:bb898afd schema=0:d41d8cd9 provenance=4:cfb090fa";
    "1 W2 R users=5:bb898afd schema=0:d41d8cd9 provenance=4:cfb090fa";
    "add lte users=5:bb898afd schema=0:d41d8cd9 provenance=4:cfb090fa";
    "add flt users=5:bb898afd schema=0:d41d8cd9 provenance=4:cfb090fa";
    "add eq users=5:bb898afd schema=0:d41d8cd9 provenance=4:cfb090fa";
    "add bool users=5:bb898afd schema=0:d41d8cd9 provenance=4:cfb090fa";
    "1 W1 A users=5:4cfd59de schema=0:d41d8cd9 provenance=4:58b450aa";
    "2 W1 A users=5:59b1a807 schema=1:cfcd2084 provenance=5:a3cb039f";
    "1 W2 R users=5:59b1a807 schema=1:cfcd2084 provenance=5:a3cb039f";
    "2 W2 A users=5:ac38a6b5 schema=2:d192e0c4 provenance=4:933506ab";
    "1 W1 A users=6:342da6f2 schema=2:d192e0c4 provenance=5:8d704777";
    "1 W3 A users=6:a23ebc39 schema=2:d192e0c4 provenance=3:287ccd1b";
    "2 W1 A users=7:9260a457 schema=3:432bbe43 provenance=4:37a790f6";
    "1 W1 A users=6:89e8fc5b schema=3:432bbe43 provenance=4:76e1e306";
    "remove P1 users=6:89e8fc5b schema=3:432bbe43 provenance=4:76e1e306";
    "1 W1 A users=6:1da81174 schema=2:05cf281c provenance=4:9efe615d";
    "2 W1 A users=6:3eb0d3c8 schema=3:55b84a9d provenance=4:ce069b2b";
    "1 W2 R users=6:3eb0d3c8 schema=3:55b84a9d provenance=4:ce069b2b";
    "1 W1 A users=6:e97a8123 schema=2:624d8292 provenance=4:f9210080";
    "2 W1 A users=7:3c7e7dd3 schema=3:9113fc71 provenance=5:527f456a";
    "dml users=7:3c7e7dd3 schema=3:9113fc71 provenance=5:527f456a";
    "remove bool users=7:3c7e7dd3 schema=3:9113fc71 provenance=5:527f456a";
    "2 W1 A users=5:b41adf34 schema=3:9113fc71 provenance=5:a2ea6666";
    "1 W1 A users=6:b1a9557a schema=3:9113fc71 provenance=5:e43af63a";
    "2 W2 A users=6:39d2494e schema=3:9113fc71 provenance=5:ced81cd8";
    "1 W1 A users=5:083947c5 schema=3:9113fc71 provenance=5:141338cd";
  ]

let test_trace_pinned () =
  List.iter2
    (fun expected actual -> Alcotest.(check string) "after step" expected actual)
    full_mark_trace (tab2_trace ())

(* Fallback pins ------------------------------------------------------------ *)

let counter = Test_support.counter

let dump db rel =
  List.rev
    (Table.fold
       (fun acc row ->
         Printf.sprintf "%d:%s" (Row.tid row)
           (String.concat "," (Array.to_list (Array.map Value.to_string (Row.cells row))))
         :: acc)
       [] (Database.table db rel))

(* Run [steps] on two engines over identical databases: one as is, the
   other re-planned before every step, which drops its deadlines so every
   commit marks in full. After every step the logs must agree tid for
   tid. Returns the first engine. *)
let agree_with_full_mark ~policies steps =
  let make () =
    let db =
      db_of_script
        {|
        CREATE TABLE grants (uid INT, grace INT);
        INSERT INTO grants VALUES (1, 3), (2, 5)
        |}
    in
    let e = Engine.create db in
    List.iter (fun (name, sql) -> ignore (Engine.add_policy e ~name sql)) policies;
    (db, e)
  in
  let db_a, a = make () in
  let db_b, b = make () in
  List.iteri
    (fun k step ->
      Engine.set_config b Engine.default_config;
      step db_a a;
      step db_b b;
      List.iter
        (fun rel ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s after step %d" rel k)
            (dump db_b rel) (dump db_a rel))
        [ "users"; "schema"; "provenance" ])
    steps;
  Alcotest.(check int) "the twin never marks incrementally" 0
    (counter b "witness-delta-marks");
  a

let query uid _db e =
  ignore (Engine.submit e ~uid "SELECT uid FROM grants WHERE uid = 1")

let window_policy clause =
  ( "w",
    Printf.sprintf
      "SELECT DISTINCT 'w' FROM users u, clock c WHERE u.uid = 1 AND %s \
       HAVING COUNT(*) > 1000"
      clause )

(* Each clock bound kind, as an off-by-one pin: after a commit at tick
   [now], the rows still kept are those whose deadline is above [now]. *)
let test_bound_kinds () =
  List.iter
    (fun (clause, kept) ->
      let e =
        agree_with_full_mark ~policies:[ window_policy clause ]
          (List.init 12 (fun _ -> query 1))
      in
      Alcotest.(check int) (clause ^ ": rows kept") kept (Engine.log_size e "users");
      Alcotest.(check int) (clause ^ ": one full mark") 1
        (counter e "witness-full-marks");
      Alcotest.(check int) (clause ^ ": then increments") 11
        (counter e "witness-delta-marks"))
    [
      ("u.ts > c.ts - 3", 2);
      ("c.ts <= u.ts + 3", 3);
      ("c.ts = u.ts + 3", 3);
      ("u.ts > c.ts - 2.5", 2);
      ("u.ts + 3.5 > c.ts", 3);
    ]

(* Base DML between commits moves a witnessed join: extending a grace
   period must keep rows the recorded deadlines would expire, and
   deleting the grant must drop them. Each DML forces one full mark. *)
let test_base_dml_falls_back () =
  let dml sql db _e = ignore (Database.exec db sql) in
  let e =
    agree_with_full_mark
      ~policies:
        [
          ( "grace",
            "SELECT DISTINCT 'g' FROM users u, grants g, clock c WHERE u.uid = \
             g.uid AND u.ts > c.ts - g.grace HAVING COUNT(*) > 1000" );
        ]
      ([ query 1; query 2; query 1; query 1 ]
      @ [ dml "UPDATE grants SET grace = 8 WHERE uid = 1" ]
      @ List.init 6 (fun _ -> query 1)
      @ [ dml "DELETE FROM grants WHERE uid = 1"; query 2; query 1 ])
  in
  Alcotest.(check int) "full marks: first commit and after each DML" 3
    (counter e "witness-full-marks");
  Alcotest.(check int) "incremental otherwise" 9 (counter e "witness-delta-marks")

(* A Boolean policy's witness keeps one representative per key (Lemma
   4.2), which can change from commit to commit: its relations always
   mark in full. *)
let test_distinct_on_marks_in_full () =
  let e =
    agree_with_full_mark
      ~policies:
        [
          ( "b",
            "SELECT DISTINCT 'b' FROM users u, schema s, clock c WHERE u.ts = \
             s.ts AND s.irid = 'grants' AND u.uid = 1 AND c.ts > u.ts + 100 \
             AND c.ts <= u.ts + 104" );
        ]
      (List.init 8 (fun k -> query (1 + (k mod 2))))
  in
  Alcotest.(check bool) "schema kept" true (Engine.log_size e "schema" > 0);
  Alcotest.(check int) "both relations marked in full at every commit" 16
    (counter e "witness-full-marks")

(* A Boolean policy without an upper clock bound keys its witness on a
   column of the target. The preemptive probe for a target that has not
   been generated drops the target's alias, so nothing it keeps may name
   that alias: the probe must lower and run. Both policies are
   time-dependent: users is not ts-joined to provenance, and the second
   has only a lower clock bound. *)
let test_keyed_probe_without_target () =
  let db = db_of_script "CREATE TABLE grants (uid INT, grace INT)" in
  let e = Engine.create db in
  let is_log rel = Catalog.is_log (Database.catalog db) rel in
  let probes name sql rel ~available =
    let p = Engine.add_policy e ~name sql in
    match List.assoc_opt rel (Witness.for_policy ~is_log p) with
    | Some (Witness.Queries qs) ->
      List.iter
        (fun (q : Witness.query) ->
          Alcotest.(check bool) (name ^ ": keyed") true (q.Witness.keys <> None);
          match Witness.probe ~is_log ~available q with
          | Some pq ->
            Usage_log.set_clock db 7;
            let r = Executor.run (Database.catalog db) (Ast.Select pq) in
            Alcotest.(check int) (name ^ ": empty logs, empty probe") 0
              (List.length r.Executor.out_rows)
          | None -> Alcotest.fail (name ^ ": expected a probe"))
        qs
    | _ -> Alcotest.fail (name ^ ": expected witness queries")
  in
  probes "keyed"
    "SELECT DISTINCT 'x' FROM users u, provenance p, grants g WHERE u.uid = \
     g.uid AND p.itid = g.uid"
    "provenance" ~available:[ "users" ];
  probes "lower"
    "SELECT DISTINCT 'y' FROM users u, schema s, clock c WHERE u.ts = s.ts \
     AND s.irid = 'grants' AND c.ts > u.ts + 5"
    "users" ~available:[ "schema" ]

(* Registering or removing a policy re-plans: the next commit marks in
   full against the new witnesses. *)
let test_policy_change_falls_back () =
  let add (name, sql) _db e = ignore (Engine.add_policy e ~name sql) in
  let remove name _db e = Engine.remove_policy e name in
  let e =
    agree_with_full_mark ~policies:[ window_policy "u.ts > c.ts - 2" ]
      ([ query 1; query 1; query 1 ]
      @ [ add (rate_policy ~name:"wide" ~window:6) ]
      @ [ query 1; query 1; query 1; query 1 ]
      @ [ remove "wide"; query 1; query 1 ])
  in
  Alcotest.(check int) "full marks: first commit and after each change" 3
    (counter e "witness-full-marks");
  Alcotest.(check int) "rows kept" 1 (Engine.log_size e "users")

(* An increment mark reaches the increment through the log's [ts]
   index: the clock-pinned equality wins over the policy's constant
   [uid] equality, which would fetch the user's whole history. *)
let test_increment_mark_probes_ts () =
  let db = mk_db () in
  let e = Engine.create db in
  let p = Engine.add_policy e ~name:"w" (snd (window_policy "u.ts > c.ts - 5")) in
  let is_log rel = Catalog.is_log (Database.catalog db) rel in
  match List.assoc "users" (Witness.for_policy ~is_log p) with
  | Witness.Queries [ q ] -> (
    let cat = Database.catalog db in
    match
      Optimizer.eliminate_clock cat ~clock_rel:Usage_log.clock_relation
        (Plan.of_query cat (Ast.Select (Witness.at_clock_tick q)))
    with
    | Some eliminated -> (
      match Optimizer.optimize cat eliminated with
      | Plan.Select sp -> (
        match sp.Plan.slots.(0).Plan.source with
        | Plan.Scan (_, Plan.Index_eq { index; _ }) ->
          Alcotest.(check string) "probed index" "dl_ix_users_ts" index
        | _ -> Alcotest.fail "slot 0 is not an index probe")
      | Plan.Union _ -> Alcotest.fail "expected one select")
    | None -> Alcotest.fail "expected the clock to be eliminated")
  | _ -> Alcotest.fail "expected one users witness"

(* Once a fixed Table 2 script has committed twice (a full mark, then
   the first mark from an increment), every policy, witness and probe
   plan is a cache hit. One domain: pool workers keep shards of their
   own, each compiling on first use. *)
let test_plans_cached_across_commits () =
  let s =
    Workload.Runner.make
      ~mimic:
        { Mimic.Generate.small_config with n_patients = 30; events_per_patient = 4 }
      ~params:{ Workload.Policies.default_params with p5_window = 6; p6_window = 5 }
      ~config:{ Engine.default_config with Engine.domains = 1 }
      ()
  in
  let e = s.Workload.Runner.engine in
  let w1 = (Workload.Runner.query s "W1").Workload.Queries.sql in
  let commit () =
    match Engine.submit e ~uid:1 w1 with
    | Engine.Accepted _ -> ()
    | Engine.Rejected (ms, _) -> Alcotest.failf "rejected: %s" (String.concat "; " ms)
  in
  commit ();
  commit ();
  let _, misses = Engine.plan_cache_stats e in
  for _ = 1 to 50 do
    commit ()
  done;
  let hits, misses' = Engine.plan_cache_stats e in
  Alcotest.(check int) "no miss after the second commit" misses misses';
  Alcotest.(check bool) "hits" true (hits > 0);
  Alcotest.(check bool) "marked from increments" true
    (counter e "witness-delta-marks" >= 100)

(* Distinct-value witnesses ---------------------------------------------- *)

(* P5's shape over six items: uid 1 reads one item per submission, each
   item many times, under a never-firing COUNT(DISTINCT p.itid) over a
   window. Each counted value keeps one (provenance, users) binding, the
   latest; an uncompacted twin on the same stream says how many distinct
   values the window holds. After the first commit's full mark, every
   commit marks only its increment. *)
let test_distinct_value_counts () =
  let window = 8 in
  let make compaction =
    let db =
      db_of_script
        "CREATE TABLE items (id INT, kind TEXT); INSERT INTO items VALUES (1, \
         'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, 'e'), (6, 'f')"
    in
    let e =
      Engine.create ~config:{ Engine.default_config with Engine.log_compaction = compaction } db
    in
    ignore
      (Engine.add_policy e ~name:"p5"
         (Printf.sprintf
            "SELECT DISTINCT 'p5' FROM provenance p, users u, clock c WHERE p.ts \
             = u.ts AND u.uid = 1 AND p.irid = 'items' AND p.ts > c.ts - %d \
             HAVING COUNT(DISTINCT p.itid) > 100"
            window));
    (db, e)
  in
  let _, e = make true and twin_db, twin = make false in
  let n = 40 in
  for k = 0 to n - 1 do
    (* ids 1-3 in the first half, 4-6 in the second: the window sees
       values enter and leave *)
    let id = if k < n / 2 then 1 + (k * 7 mod 3) else 4 + (k * 5 mod 3) in
    let sql = Printf.sprintf "SELECT kind FROM items WHERE id = %d" id in
    List.iter (fun e -> ignore (Engine.submit e ~uid:1 sql)) [ e; twin ];
    (* At the commit of tick [now], a row stamped [ts] is kept iff its
       deadline [ts + window - 1] is above [now]. *)
    let distinct =
      match
        Database.query twin_db
          (Printf.sprintf
             "SELECT COUNT(DISTINCT p.itid) FROM provenance p, clock c WHERE \
              p.ts > c.ts - %d"
             (window - 1))
      with
      | { Executor.out_rows = [ { Executor.values = [| Value.Int d |]; _ } ]; _ } -> d
      | _ -> Alcotest.fail "expected one count"
    in
    Alcotest.(check int)
      (Printf.sprintf "provenance rows after submission %d" k)
      distinct (Engine.log_size e "provenance");
    Alcotest.(check bool) "one users row per kept binding at most" true
      (Engine.log_size e "users" <= distinct)
  done;
  Alcotest.(check int) "the twin keeps every row" n (Engine.log_size twin "provenance");
  Alcotest.(check int) "three values in the last window" 3 (Engine.log_size e "provenance");
  (* provenance and users each: one full mark, then increments *)
  Alcotest.(check int) "full marks: the first commit" 2 (counter e "witness-full-marks");
  Alcotest.(check int) "increment marks after it" (2 * (n - 1))
    (counter e "witness-delta-marks")

(* Every shape the distinct-value proof leaves out keeps Lemma 4.1's
   witness, every joined row: a lower clock bound, an equality on the
   clock, a FROM subquery, and any aggregate other than COUNT(DISTINCT). *)
let test_distinct_value_fallbacks () =
  let db = mk_db () in
  let e = Engine.create db in
  let is_log rel = Catalog.is_log (Database.catalog db) rel in
  let window = "u.ts > c.ts - 9" in
  List.iter
    (fun (what, from, where, having) ->
      let p =
        Engine.add_policy e ~name:what
          (Printf.sprintf "SELECT DISTINCT 'x' FROM %s WHERE %s HAVING %s" from where having)
      in
      match List.assoc_opt "users" (Witness.for_policy ~is_log p) with
      | Some (Witness.Queries qs) ->
        List.iter
          (fun (q : Witness.query) ->
            Alcotest.(check (option int)) (what ^ ": every joined row") None q.Witness.keys;
            Alcotest.(check (option (list int))) (what ^ ": no pick") None q.Witness.latest)
          qs
      | _ -> Alcotest.failf "%s: expected witness queries" what)
    [
      ("lower bound", "users u, clock c", window ^ " AND c.ts > u.ts + 2", "COUNT(DISTINCT u.uid) > 3");
      ("equality", "users u, clock c", "c.ts = u.ts + 4", "COUNT(DISTINCT u.uid) > 3");
      ( "subquery",
        "users u, (SELECT uid FROM memberships) m, clock c",
        window ^ " AND u.uid = m.uid",
        "COUNT(DISTINCT u.uid) > 3" );
      ("count star", "users u, clock c", window, "COUNT(*) > 3");
      ("count", "users u, clock c", window, "COUNT(u.uid) > 3");
      ("sum distinct", "users u, clock c", window, "SUM(DISTINCT u.uid) > 3");
      ("mixed", "users u, clock c", window, "COUNT(DISTINCT u.uid) > 3 AND MAX(u.ts) > 2");
    ]

let suite =
  [
    tc "union of witnesses across policies" test_union_of_witnesses;
    tc "policy removal shrinks the log" test_removal_shrinks_log;
    tc "witness filters via database relation" test_witness_filters_by_db_relation;
    tc "Example 4.3 witness shape" test_example_4_3_shape;
    tc "TI-only relations never stored" test_ti_only_relations_never_generated;
    tc "self-join witness union" test_self_join_witness_union;
    tc "per-commit retained tids pinned" test_trace_pinned;
    tc "clock bound kinds agree with the full mark" test_bound_kinds;
    tc "base DML falls back to the full mark" test_base_dml_falls_back;
    tc "DISTINCT ON witnesses mark in full" test_distinct_on_marks_in_full;
    tc "policy changes fall back to the full mark" test_policy_change_falls_back;
    tc "keyed witness probed without its target" test_keyed_probe_without_target;
    tc "increment marks probe the ts index" test_increment_mark_probes_ts;
    tc "plans stay cached across commits" test_plans_cached_across_commits;
    tc "distinct-value witness keeps one row per counted value" test_distinct_value_counts;
    tc "distinct-value fallbacks keep every joined row" test_distinct_value_fallbacks;
  ]
