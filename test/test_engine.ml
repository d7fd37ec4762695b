open Relational
open Datalawyer
open Test_support

(* A tiny data-market database in the spirit of Table 1: a licensed
   provider table plus an in-house table. *)
let market_db () =
  db_of_script
    {|
    CREATE TABLE navteq (poi_id INT, name TEXT, lat FLOAT, lon FLOAT);
    CREATE TABLE inhouse (poi_id INT, revenue INT);
    INSERT INTO navteq VALUES (1, 'cafe', 47.6, -122.3), (2, 'museum', 47.61, -122.33);
    INSERT INTO inhouse VALUES (1, 100), (2, 250)
    |}

let no_join_policy =
  (* Table 1's P1 / Example 4.1: never join navteq with anything else. *)
  "SELECT DISTINCT 'no external joins allowed' AS errorMessage \
   FROM schema s1, schema s2 \
   WHERE s1.ts = s2.ts AND s1.irid = 'navteq' AND s2.irid != 'navteq'"

let accepted = function Engine.Accepted _ -> true | Engine.Rejected _ -> false
let messages = function Engine.Rejected (ms, _) -> ms | Engine.Accepted _ -> []

let test_accept_and_reject () =
  let db = market_db () in
  let e = Engine.create db in
  ignore (Engine.add_policy e ~name:"no_join" no_join_policy);
  Alcotest.(check bool) "plain navteq query accepted" true
    (accepted (Engine.submit e ~uid:0 "SELECT name FROM navteq"));
  Alcotest.(check bool) "inhouse query accepted" true
    (accepted (Engine.submit e ~uid:0 "SELECT revenue FROM inhouse"));
  let r =
    Engine.submit e ~uid:0
      "SELECT n.name, i.revenue FROM navteq n, inhouse i WHERE n.poi_id = i.poi_id"
  in
  Alcotest.(check bool) "join rejected" false (accepted r);
  Alcotest.(check (list string)) "error message surfaces"
    [ "no external joins allowed" ] (messages r)

let test_rejection_reverts_log () =
  let db = market_db () in
  let e = Engine.create ~config:Engine.noopt_config db in
  ignore (Engine.add_policy e ~name:"no_join" no_join_policy);
  ignore (Engine.submit e ~uid:0 "SELECT name FROM navteq");
  let before = Engine.log_size e "schema" in
  let r =
    Engine.submit e ~uid:0
      "SELECT n.name, i.revenue FROM navteq n, inhouse i WHERE n.poi_id = i.poi_id"
  in
  Alcotest.(check bool) "rejected" false (accepted r);
  Alcotest.(check int) "log reverted after rejection" before
    (Engine.log_size e "schema")

let test_query_results_returned () =
  let db = market_db () in
  let e = Engine.create db in
  ignore (Engine.add_policy e ~name:"no_join" no_join_policy);
  match Engine.submit e ~uid:0 "SELECT name FROM navteq WHERE poi_id = 2" with
  | Engine.Accepted (r, _) ->
    Alcotest.(check int) "one row" 1 (List.length r.Executor.out_rows)
  | Engine.Rejected _ -> Alcotest.fail "should be accepted"

(* Rate limiting (Table 1's P4): at most 3 queries per user in any window
   of 5 ticks. Exercises clock, window semantics and log persistence. *)
let rate_limit_policy =
  "SELECT DISTINCT 'rate limit exceeded' FROM users u, clock c \
   WHERE u.uid = 1 AND u.ts > c.ts - 5 \
   HAVING COUNT(DISTINCT u.ts) > 3"

let test_rate_limiting config =
  let db = market_db () in
  let e = Engine.create ~config db in
  ignore (Engine.add_policy e ~name:"rate" rate_limit_policy);
  let submit () = accepted (Engine.submit e ~uid:1 "SELECT name FROM navteq") in
  (* ticks 1,2,3 accepted; tick 4 would be the 4th in window -> rejected *)
  Alcotest.(check bool) "q1" true (submit ());
  Alcotest.(check bool) "q2" true (submit ());
  Alcotest.(check bool) "q3" true (submit ());
  Alcotest.(check bool) "q4 rejected" false (submit ());
  (* rejected queries also consume ticks; once the early queries age out
     of the window, submissions succeed again *)
  Alcotest.(check bool) "q5 rejected" false (submit ());
  Alcotest.(check bool) "q6 ok (window slid)" true (submit ());
  (* other users unaffected *)
  Alcotest.(check bool) "uid 2 ok" true
    (accepted (Engine.submit e ~uid:2 "SELECT name FROM navteq"))

let test_rate_limiting_optimized () = test_rate_limiting Engine.default_config
let test_rate_limiting_noopt () = test_rate_limiting Engine.noopt_config

let test_compaction_bounds_log () =
  let db = market_db () in
  let e = Engine.create ~config:Engine.default_config db in
  ignore (Engine.add_policy e ~name:"rate" rate_limit_policy);
  for _ = 1 to 40 do
    ignore (Engine.submit e ~uid:1 "SELECT name FROM navteq")
  done;
  (* the witness keeps at most the 5-tick window (plus the increment) *)
  Alcotest.(check bool) "users log bounded"
    true
    (Engine.log_size e "users" <= 8);
  let db2 = market_db () in
  let e2 = Engine.create ~config:Engine.noopt_config db2 in
  ignore (Engine.add_policy e2 ~name:"rate" rate_limit_policy);
  for _ = 1 to 40 do
    ignore (Engine.submit e2 ~uid:1 "SELECT name FROM navteq")
  done;
  Alcotest.(check bool) "noopt log grows" true (Engine.log_size e2 "users" > 20)

let test_ti_policy_stores_nothing () =
  let db = market_db () in
  let e = Engine.create ~config:Engine.default_config db in
  (* no_join is time-independent: with TI + compaction nothing persists *)
  ignore (Engine.add_policy e ~name:"no_join" no_join_policy);
  for _ = 1 to 10 do
    ignore (Engine.submit e ~uid:0 "SELECT name FROM navteq")
  done;
  Alcotest.(check int) "schema log empty" 0 (Engine.log_size e "schema")

let test_multiple_policies_all_messages () =
  let db = market_db () in
  let e = Engine.create ~config:{ Engine.default_config with strategy = Engine.Serial } db in
  ignore (Engine.add_policy e ~name:"no_join" no_join_policy);
  ignore
    (Engine.add_policy e ~name:"no_inhouse"
       "SELECT DISTINCT 'inhouse is off-limits' FROM schema s WHERE s.irid = 'inhouse'");
  let r =
    Engine.submit e ~uid:0
      "SELECT n.name FROM navteq n, inhouse i WHERE n.poi_id = i.poi_id"
  in
  Alcotest.(check (slist string compare)) "both violations reported"
    [ "inhouse is off-limits"; "no external joins allowed" ]
    (messages r)

let test_policy_added_mid_stream () =
  let db = market_db () in
  let e = Engine.create db in
  Alcotest.(check bool) "unrestricted at first" true
    (accepted
       (Engine.submit e ~uid:0
          "SELECT n.name FROM navteq n, inhouse i WHERE n.poi_id = i.poi_id"));
  ignore (Engine.add_policy e ~name:"no_join" no_join_policy);
  Alcotest.(check bool) "restricted after registration" false
    (accepted
       (Engine.submit e ~uid:0
          "SELECT n.name FROM navteq n, inhouse i WHERE n.poi_id = i.poi_id"));
  Engine.remove_policy e "no_join";
  Alcotest.(check bool) "unrestricted after removal" true
    (accepted
       (Engine.submit e ~uid:0
          "SELECT n.name FROM navteq n, inhouse i WHERE n.poi_id = i.poi_id"))

(* Footnote 7 below the top level: a policy registered after uid 2's
   submission must not see it, whether the uid 2 test sits in a UNION
   arm or over a FROM subquery of the log. NoOpt (full history, no
   compaction) and the optimized stack must agree. *)
let test_footnote7_nested_shapes () =
  List.iter
    (fun (config_name, config) ->
      List.iter
        (fun shape ->
          let e = Engine.create ~config (Test_oracle.fresh_db ()) in
          ignore
            (Engine.add_policy e ~name:"never"
               "SELECT DISTINCT 'never' FROM users u WHERE u.uid = 99");
          let query = "SELECT v FROM data WHERE k = 1" in
          Alcotest.(check bool) "uid 2 accepted" true
            (accepted (Engine.submit e ~uid:2 query));
          ignore (Engine.add_policy e ~name:shape (Test_oracle.template shape));
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s policy ignores uid 2's earlier row" config_name shape)
            true
            (accepted (Engine.submit e ~uid:3 query));
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s policy still fires for uid 2" config_name shape)
            [ "uid 2 seen" ]
            (messages (Engine.submit e ~uid:2 query)))
        [ "union"; "subquery" ])
    [
      ("noopt", { Engine.noopt_config with Engine.domains = 1 });
      ("default", { Engine.default_config with Engine.domains = 1 });
    ]

(* The paper's P5b (Example 3.1): k-anonymity-flavoured output check. *)
let test_p5b_output_privacy () =
  let db =
    db_of_script
      {|
      CREATE TABLE patients (pid INT, dob INT, sex TEXT);
      INSERT INTO patients VALUES
        (1, 1960, 'M'), (2, 1960, 'M'), (3, 1960, 'M'), (4, 1961, 'F')
      |}
  in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"P5b"
       "SELECT DISTINCT 'P5b violated: fewer than 3 patients contribute to an \
        answer' AS errorMessage FROM provenance p WHERE p.irid = 'patients' \
        GROUP BY p.ts, p.otid HAVING COUNT(DISTINCT p.itid) < 3");
  (* aggregate over 3 patients: fine *)
  Alcotest.(check bool) "coarse aggregate ok" true
    (accepted
       (Engine.submit e ~uid:1
          "SELECT dob, COUNT(*) FROM patients WHERE dob = 1960 GROUP BY dob"));
  (* singling out one patient: each output tuple has 1 contributor *)
  Alcotest.(check bool) "identifying query rejected" false
    (accepted (Engine.submit e ~uid:1 "SELECT sex FROM patients WHERE pid = 4"))

(* Cross-configuration equivalence: every optimization must preserve
   accept/reject decisions. Runs a mixed stream under NoOpt and under the
   fully optimized engine and compares outcomes query by query. *)
let test_noopt_equivalence () =
  let mimic = { Mimic.Generate.small_config with n_patients = 60; events_per_patient = 6 } in
  let params =
    {
      Workload.Policies.default_params with
      p1_window = 6;
      p1_max_users = 2;
      p3_max_output = 20;
      p5_window = 10;
      p5_max_fraction = 0.4;
      p6_window = 8;
      p6_max_uses = 3;
    }
  in
  let stream =
    (* (uid, query name) pairs mixing users and query sizes *)
    [ (0, "W1"); (1, "W1"); (1, "W2"); (0, "W4"); (1, "W3"); (1, "W4");
      (2, "W1"); (1, "W1"); (3, "W2"); (1, "W4"); (4, "W1"); (1, "W3");
      (1, "W2"); (0, "W2"); (1, "W4"); (5, "W1"); (1, "W1"); (1, "W3") ]
  in
  let run config =
    let s = Workload.Runner.make ~mimic ~params ~config () in
    List.map
      (fun (uid, qname) ->
        let q = Workload.Runner.query s qname in
        match Engine.submit s.Workload.Runner.engine ~uid q.Workload.Queries.sql with
        | Engine.Accepted _ -> "A"
        | Engine.Rejected (ms, _) -> "R:" ^ String.concat "," (List.sort compare ms))
      stream
  in
  let noopt = run Engine.noopt_config in
  let full = run Engine.default_config in
  Alcotest.(check (list string)) "optimizations preserve decisions" noopt full;
  (* and each optimization alone *)
  let base = Engine.noopt_config in
  List.iter
    (fun (label, config) ->
      Alcotest.(check (list string)) label noopt (run config))
    [
      ("ti only", { base with Engine.time_independent = true });
      ("compaction only", { base with Engine.log_compaction = true });
      ("serial strategy", { base with Engine.strategy = Engine.Serial });
      ( "interleaved only",
        { base with Engine.strategy = Engine.Interleaved } );
      ( "interleaved+improved",
        {
          base with
          Engine.strategy = Engine.Interleaved;
          improved_partial = true;
        } );
      ( "compaction+preemptive+ti",
        {
          base with
          Engine.log_compaction = true;
          preemptive = true;
          time_independent = true;
        } );
      ("unification only", { base with Engine.unification = true });
    ]

(* SQL [=] never matches NULL, hash joins included. [SELECT COUNT( * )
   FROM a, b] logs one schema row per relation, both with a NULL [icid];
   a self-join on [icid] must not pair them, as the naive reference's
   [=] does not. *)
let test_null_join_keys_never_match () =
  let policy =
    "SELECT DISTINCT 'two relations share a column' FROM schema s1, schema s2 \
     WHERE s1.ts = s2.ts AND s1.icid = s2.icid AND s1.irid <> s2.irid"
  in
  List.iter
    (fun (label, config) ->
      let db =
        db_of_script
          "CREATE TABLE a (x INT); CREATE TABLE b (y INT); \
           INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (3)"
      in
      let e = Engine.create ~config db in
      ignore (Engine.add_policy e ~name:"shared_column" policy);
      let accepted sql =
        match Engine.submit e ~uid:1 sql with
        | Engine.Accepted _ -> true
        | Engine.Rejected _ -> false
      in
      Alcotest.(check bool) (label ^ ": single relation accepted") true
        (accepted "SELECT x FROM a");
      Alcotest.(check bool) (label ^ ": NULL icids do not join") true
        (accepted "SELECT COUNT(*) FROM a, b");
      Engine.close e)
    [ ("default", Engine.default_config); ("noopt", Engine.noopt_config) ]

(* A query that fails to bind raises before anything is generated: the
   log and the clock stay as they were. *)
let test_unbound_query_not_logged () =
  let e = Engine.create (sample_db ()) in
  ignore
    (Engine.add_policy e ~name:"quota"
       "SELECT DISTINCT 'quota' FROM users u, clock c WHERE u.uid = 1 AND \
        u.ts > c.ts - 5 HAVING COUNT(*) > 100");
  (match Engine.submit e ~uid:1 "SELECT nosuch FROM emp" with
  | exception Errors.Sql_error (Errors.Bind_error, _) -> ()
  | _ -> Alcotest.fail "an unbound query must raise");
  Alcotest.(check int) "users log untouched" 0 (Engine.log_size e "users");
  Alcotest.(check int) "clock untouched" 0
    (Usage_log.current_time (Engine.database e));
  Engine.close e

(* The schema log names the columns the binder resolves, so a column
   restriction holds however the query spells the column and whichever
   clause reads it. *)
let test_column_case_cannot_evade () =
  let e = Engine.create (sample_db ()) in
  ignore
    (Engine.add_policy e ~name:"salary"
       "SELECT DISTINCT 'salary is off-limits' FROM schema s WHERE s.irid = \
        'emp' AND s.icid = 'salary'");
  List.iter
    (fun sql ->
      Alcotest.(check (list string)) sql [ "salary is off-limits" ]
        (messages (Engine.submit e ~uid:1 sql)))
    [
      "SELECT salary FROM emp";
      "SELECT SALARY FROM emp";
      "SELECT e.Salary FROM emp e";
      "SELECT name FROM emp WHERE SALARY > 10";
      "SELECT name FROM emp ORDER BY salary";
      "SELECT DISTINCT ON (salary) name FROM emp";
    ];
  Alcotest.(check bool) "other columns pass" true
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp"));
  Engine.close e

(* Only the engine writes its log relations and clock. Each write below
   once went through as SQL and changed verdicts, differently per
   configuration (the strings below: default, relevance off, TI off,
   NoOpt); now it raises, and five submissions as uid 1 read the same
   verdicts under every configuration. *)
let refused_write_keeps_verdicts ~policy ?(prelude = []) ~write ~query () =
  List.iter
    (fun (name, config) ->
      let db = sample_db () in
      let e = Engine.create ~config db in
      ignore (Engine.add_policy e ~name:"p" policy);
      List.iter (fun (uid, q) -> ignore (Engine.submit e ~uid q)) prelude;
      (match Database.exec db write with
      | exception Errors.Sql_error _ -> ()
      | _ -> Alcotest.failf "%s: %s must be refused" name write);
      let verdict () = if accepted (Engine.submit e ~uid:1 query) then "A" else "R" in
      Alcotest.(check string) (name ^ ": verdicts") "AAAAA"
        (String.concat "" (List.init 5 (fun _ -> verdict ()))))
    [
      ("default", Engine.default_config);
      ("relevance off", { Engine.default_config with Engine.relevance = false });
      ("TI off", { Engine.default_config with Engine.time_independent = false });
      ("noopt", Engine.noopt_config);
    ]

(* A committed uid 2 row at a future tick: AAAAA, AAARA, AAAAA, RRRRR. *)
let test_refused_future_tick_insert =
  refused_write_keeps_verdicts
    ~policy:"SELECT DISTINCT 'uid 2 blocked' FROM users u WHERE u.uid = 2"
    ~write:"INSERT INTO users VALUES (4, 2)" ~query:"SELECT name FROM emp WHERE id = 1"

(* Deleting a committed row breaks Eq. 1's precondition for a
   non-monotone policy, leaving the admitted query's output row one
   input: AAAAA, AAAAA, RRRRR, RRRRR. *)
let test_refused_provenance_delete =
  refused_write_keeps_verdicts
    ~policy:
      "SELECT DISTINCT 'thin aggregate' FROM provenance p GROUP BY p.ts, p.otid \
       HAVING COUNT(DISTINCT p.itid) <= 1"
    ~prelude:[ (1, "SELECT COUNT(*) FROM emp WHERE id <= 2") ]
    ~write:"DELETE FROM provenance WHERE itid = 1" ~query:"SELECT COUNT(*) FROM emp"

(* Rewinding the clock stamps uid 1 rows at the ticks of committed uid 2
   rows: AAAAA, AAAAA, AAAAA, RRAAA. *)
let test_refused_clock_rewind =
  refused_write_keeps_verdicts
    ~policy:
      "SELECT DISTINCT 'two uids at one tick' FROM users u, users v WHERE u.ts = v.ts \
       AND u.uid < v.uid"
    ~prelude:[ (2, "SELECT name FROM emp WHERE id = 1"); (2, "SELECT name FROM emp WHERE id = 2") ]
    ~write:"UPDATE clock SET ts = 0" ~query:"SELECT name FROM emp WHERE id = 3"

(* A pre-existing base table named like the clock or a log relation is
   refused, not adopted; an engine's own relations are adopted by the
   next engine over the same database. *)
let test_create_refuses_look_alikes () =
  List.iter
    (fun (rel, script) ->
      match Engine.create (db_of_script script) with
      | exception Errors.Sql_error (_, msg) ->
        Alcotest.(check bool) (rel ^ " named") true
          (String.starts_with ~prefix:("table " ^ rel ^ " ") msg)
      | _ -> Alcotest.failf "a base table %s must not be adopted" rel)
    [
      ("users", "CREATE TABLE users (ts INT, uid INT)");
      ("clock", "CREATE TABLE clock (ts INT); INSERT INTO clock VALUES (0)");
    ];
  let db = sample_db () in
  let e = Engine.create ~config:Engine.noopt_config db in
  ignore (Engine.add_policy e ~name:"never" "SELECT DISTINCT 'never' FROM users u WHERE u.uid < 0");
  ignore (Engine.submit e ~uid:2 "SELECT name FROM emp WHERE id = 1");
  Alcotest.(check int) "the next engine adopts the log" 1
    (Engine.log_size (Engine.create db) "users")

(* The tick premise, checked under [Table.debug_checks] (on in this
   suite): a committed log row at or above the next tick, which only a
   write past the engine can leave, stops the next admission. *)
let test_tick_premise_checked () =
  let db = sample_db () in
  let e = Engine.create ~config:{ Engine.default_config with Engine.time_independent = false } db in
  ignore (Engine.add_policy e ~name:"blocked" "SELECT DISTINCT 'uid 2 blocked' FROM users u WHERE u.uid = 2");
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp WHERE id = 1");
  ignore (Table.insert (Database.table db "users") [| i 2; i 1 |]);
  let raises f =
    match f () with
    | exception Errors.Sql_error (Errors.Runtime_error, _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "submit raises" true
    (raises (fun () -> Engine.submit e ~uid:1 "SELECT name FROM emp WHERE id = 2"));
  let members =
    List.map
      (fun id ->
        {
          Engine.batch_uid = 1;
          batch_extra = [];
          batch_query = Parser.query (Printf.sprintf "SELECT name FROM emp WHERE id = %d" id);
        })
      [ 2; 3 ]
  in
  Alcotest.(check bool) "every batch member fails" true
    (List.for_all
       (function Error (Errors.Sql_error (Errors.Runtime_error, _)) -> true | _ -> false)
       (Engine.submit_batch e members));
  Alcotest.(check int) "the clock did not move" 1 (Usage_log.current_time db)

(* One run per admission: when [provenance] is generated, the answer of
   an admitted query that reads no log relation and no clock is that
   generator's lineage run. Pinned by join rows examined, not times: the
   user query is a W2-shaped join, while every policy, partial-policy
   and witness query here scans a single relation, so the rows a
   submission examines are those of its user-query runs. *)
let w2_db () =
  db_of_script
    {|
    CREATE TABLE d_patients (subject_id INT, sex TEXT);
    CREATE TABLE chartevents (subject_id INT, itemid INT, value INT);
    INSERT INTO d_patients VALUES (1, 'F'), (2, 'M'), (3, 'F');
    INSERT INTO chartevents VALUES (1, 211, 70), (1, 211, 72), (1, 100, 5),
      (2, 211, 80), (2, 211, 81), (2, 211, 83), (3, 100, 1)
    |}

let w2_sql =
  "SELECT c.subject_id, p.sex, COUNT(c.subject_id) FROM chartevents c, \
   d_patients p WHERE c.subject_id = 2 AND p.subject_id = c.subject_id AND \
   c.itemid = 211 GROUP BY c.subject_id, p.sex HAVING COUNT(c.subject_id) > 1"

(* A policy reading [provenance] (so it is generated) and one reading
   [users] that rejects uid 9; neither joins. *)
let single_run_engine config =
  let db = w2_db () in
  let e = Engine.create ~config db in
  ignore
    (Engine.add_policy e ~name:"prov"
       "SELECT DISTINCT 'nowhere read' FROM provenance p WHERE p.irid = 'nowhere'");
  ignore
    (Engine.add_policy e ~name:"ban"
       "SELECT DISTINCT 'uid 9 banned' FROM users u WHERE u.uid = 9");
  (db, e)

(* [f ()] and the join rows it examined. The debug cross-check of a
   handed-back answer runs the compiled plan as well, so it is off
   meanwhile. *)
let examined f =
  let debug = !Table.debug_checks in
  Table.debug_checks := false;
  Fun.protect
    ~finally:(fun () -> Table.debug_checks := debug)
    (fun () ->
      let before = Atomic.get Executor.rows_examined in
      let r = f () in
      (r, Atomic.get Executor.rows_examined - before))

let result_rows (r : Executor.result) =
  List.map (fun (o : Executor.row_out) -> Array.to_list o.Executor.values) r.Executor.out_rows

let log_sizes e = List.map (Engine.log_size e) [ "users"; "schema"; "provenance" ]

let test_single_run config () =
  let db, e = single_run_engine config in
  let plain, once = examined (fun () -> Database.rows db w2_sql) in
  Alcotest.(check bool) "the user query joins" true (once > 0);
  match examined (fun () -> Engine.submit e ~uid:1 w2_sql) with
  | Engine.Accepted (r, _), n ->
    Alcotest.(check int) "the user query ran once" once n;
    check_rows_ordered "the plain answer" plain (result_rows r);
    Alcotest.(check bool) "no lineage handed back" true
      (List.for_all (fun (o : Executor.row_out) -> o.Executor.lineage = []) r.Executor.out_rows)
  | Engine.Rejected _, _ -> Alcotest.fail "should be accepted"

(* A query reading the log or the clock is answered over the committed
   state: the lineage run saw the tentative log, before compaction and,
   for [provenance], before its own increment. *)
let test_log_reads_post_commit config () =
  let db, e = single_run_engine config in
  ignore (Engine.submit e ~uid:1 w2_sql);
  List.iter
    (fun sql ->
      match Engine.submit e ~uid:1 sql with
      | Engine.Accepted (r, _) ->
        check_rows_ordered sql (Database.rows db sql) (result_rows r)
      | Engine.Rejected _ -> Alcotest.fail (sql ^ " should be accepted"))
    [ "SELECT COUNT(*) FROM provenance"; "SELECT COUNT(*) FROM users"; "SELECT ts FROM clock" ]

let test_rejected_and_raising config () =
  let _, e = single_run_engine config in
  ignore (Engine.submit e ~uid:1 w2_sql);
  let before = log_sizes e in
  Alcotest.(check (list string)) "uid 9 rejected" [ "uid 9 banned" ]
    (messages (Engine.submit e ~uid:9 w2_sql));
  Alcotest.(check (list int)) "a rejection leaves the log" before (log_sizes e);
  (match Engine.submit e ~uid:1 "SELECT subject_id / 0 FROM d_patients" with
  | exception Errors.Sql_error (Errors.Runtime_error, _) -> ()
  | _ -> Alcotest.fail "division by zero must raise");
  Alcotest.(check (list int)) "a raising query leaves the log" before (log_sizes e)

let suite =
  [
    tc "accept and reject" test_accept_and_reject;
    tc "rejection reverts log" test_rejection_reverts_log;
    tc "query results returned" test_query_results_returned;
    tc "rate limiting (optimized)" test_rate_limiting_optimized;
    tc "rate limiting (noopt)" test_rate_limiting_noopt;
    tc "compaction bounds log" test_compaction_bounds_log;
    tc "TI policy stores nothing" test_ti_policy_stores_nothing;
    tc "multiple policies report all messages" test_multiple_policies_all_messages;
    tc "policy added mid-stream" test_policy_added_mid_stream;
    tc "footnote 7 restricts UNION arms and FROM subqueries"
      test_footnote7_nested_shapes;
    tc "P5b output privacy" test_p5b_output_privacy;
    tc "NULL join keys never match" test_null_join_keys_never_match;
    tc "unbound query is not logged" test_unbound_query_not_logged;
    tc "column case cannot evade a restriction" test_column_case_cannot_evade;
    tc "refused: a future-tick INSERT INTO users" test_refused_future_tick_insert;
    tc "refused: a DELETE FROM provenance" test_refused_provenance_delete;
    tc "refused: UPDATE clock" test_refused_clock_rewind;
    tc "create refuses look-alike tables" test_create_refuses_look_alikes;
    tc "the tick premise is checked" test_tick_premise_checked;
    tc "one user-query run per admission" (test_single_run Engine.default_config);
    tc "one user-query run per admission (noopt)" (test_single_run Engine.noopt_config);
    tc "log and clock reads answer post-commit"
      (test_log_reads_post_commit Engine.default_config);
    tc "log and clock reads answer post-commit (noopt)"
      (test_log_reads_post_commit Engine.noopt_config);
    tc "rejected and raising submissions" (test_rejected_and_raising Engine.default_config);
    tc "rejected and raising submissions (noopt)"
      (test_rejected_and_raising Engine.noopt_config);
    Alcotest.test_case "noopt equivalence" `Slow test_noopt_equivalence;
  ]
