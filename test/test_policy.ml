open Relational
open Datalawyer
open Test_support

(* A database with installed log relations so policies can be created. *)
let policy_db () =
  let db = sample_db () in
  let engine = Engine.create db in
  (db, engine)

let mk engine name sql = Engine.add_policy engine ~name sql

let test_message_extraction () =
  let _, e = policy_db () in
  let p = mk e "m1" "SELECT DISTINCT 'custom error' AS errorMessage FROM users u WHERE u.uid = 99" in
  Alcotest.(check string) "message" "custom error" p.Policy.message

let test_log_rels () =
  let _, e = policy_db () in
  let p =
    mk e "r1"
      "SELECT DISTINCT 'x' FROM users u, schema s, provenance p \
       WHERE u.ts = s.ts AND s.ts = p.ts"
  in
  Alcotest.(check (slist string compare)) "log rels"
    [ "provenance"; "schema"; "users" ]
    p.Policy.log_rels

let test_monotone_classification () =
  let _, e = policy_db () in
  let spju = mk e "c1" "SELECT DISTINCT 'x' FROM users u WHERE u.uid = 1" in
  Alcotest.(check bool) "SPJ is monotone" true spju.Policy.monotone;
  let count_gt =
    mk e "c2" "SELECT DISTINCT 'x' FROM users u HAVING COUNT(DISTINCT u.uid) > 5"
  in
  Alcotest.(check bool) "count > k is monotone" true count_gt.Policy.monotone;
  Alcotest.(check bool) "count distinct > k interleavable" true
    count_gt.Policy.interleavable;
  let count_lt =
    mk e "c3" "SELECT DISTINCT 'x' FROM users u GROUP BY u.ts HAVING COUNT(*) < 5"
  in
  Alcotest.(check bool) "count < k not monotone" false count_lt.Policy.monotone;
  let count_star =
    mk e "c4" "SELECT DISTINCT 'x' FROM users u GROUP BY u.uid HAVING COUNT(*) > 5"
  in
  Alcotest.(check bool) "count(*) > k monotone" true count_star.Policy.monotone;
  Alcotest.(check bool) "count(*) not interleavable (multiplicity-unsafe)" false
    count_star.Policy.interleavable

let test_time_independent_classification () =
  let _, e = policy_db () in
  let ti =
    mk e "t1"
      "SELECT DISTINCT 'x' FROM users u, schema s WHERE u.ts = s.ts AND u.uid = 1"
  in
  Alcotest.(check bool) "ts-joined SPJ is TI" true ti.Policy.time_independent;
  let not_joined =
    mk e "t2" "SELECT DISTINCT 'x' FROM users u, schema s WHERE u.uid = 1"
  in
  Alcotest.(check bool) "unjoined ts not TI" false not_joined.Policy.time_independent;
  let agg_with_ts =
    mk e "t3"
      "SELECT DISTINCT 'x' FROM provenance p GROUP BY p.ts HAVING COUNT(DISTINCT p.otid) > 10"
  in
  Alcotest.(check bool) "agg grouped by ts is TI" true agg_with_ts.Policy.time_independent;
  let agg_no_ts =
    mk e "t4" "SELECT DISTINCT 'x' FROM provenance p HAVING COUNT(DISTINCT p.otid) > 10"
  in
  Alcotest.(check bool) "agg without ts group not TI" false
    agg_no_ts.Policy.time_independent;
  let clock_window =
    mk e "t5"
      "SELECT DISTINCT 'x' FROM users u, clock c WHERE u.ts > c.ts - 10 \
       HAVING COUNT(DISTINCT u.uid) > 2"
  in
  Alcotest.(check bool) "clock window not TI" false clock_window.Policy.time_independent;
  (* transitive ts joins count *)
  let transitive =
    mk e "t6"
      "SELECT DISTINCT 'x' FROM users u, schema s, provenance p \
       WHERE u.ts = s.ts AND s.ts = p.ts"
  in
  Alcotest.(check bool) "transitive ts join is TI" true transitive.Policy.time_independent

(* [ts_joined]: one top-level SELECT whose log aliases share one [ts]
   class. It gates §4.3's tick-pinned probe and the relevance index's
   one-blocked-slot rule; TI rewriting keeps it. *)
let test_ts_joined_classification () =
  let _, e = policy_db () in
  let check what expected sql =
    Alcotest.(check bool) what expected (mk e what sql).Policy.ts_joined
  in
  check "single log alias" true "SELECT DISTINCT 'x' FROM users u WHERE u.uid = 1";
  check "transitive ts join" true
    "SELECT DISTINCT 'x' FROM users u, schema s, provenance p WHERE u.ts = \
     s.ts AND s.ts = p.ts";
  check "unjoined ts" false
    "SELECT DISTINCT 'x' FROM users u, schema s WHERE u.uid = 1";
  check "no log alias" false "SELECT DISTINCT 'x' FROM emp e WHERE e.id = 1";
  check "union" false
    "SELECT DISTINCT 'x' FROM users u WHERE u.uid = 1 UNION SELECT DISTINCT \
     'y' FROM users v WHERE v.uid = 2";
  let p =
    mk e "rewritten"
      "SELECT DISTINCT 'x' FROM users u, schema s WHERE u.ts = s.ts AND u.uid = 1"
  in
  let is_log rel = Catalog.is_log (Database.catalog (Engine.database e)) rel in
  let p' = Time_independent.apply ~is_log p in
  Alcotest.(check bool) "kept by TI rewriting" true p'.Policy.ts_joined;
  Alcotest.(check bool) "and still true of the rewritten query" true
    (Policy.with_query ~is_log p' p'.Policy.query).Policy.ts_joined

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_ti_rewriting () =
  let _, e = policy_db () in
  let p =
    mk e "rw"
      "SELECT DISTINCT 'x' FROM users u, schema s WHERE u.ts = s.ts AND u.uid = 1"
  in
  let is_log rel = Catalog.is_log (Database.catalog (Engine.database e)) rel in
  let p' = Time_independent.apply ~is_log p in
  Alcotest.(check bool) "rewritten" true p'.Policy.ti_rewritten;
  let sql = Sql_print.query p'.Policy.query in
  Alcotest.(check bool) "mentions clock" true (contains_substring sql "clock")

let test_workload_policy_classification () =
  let mimic = Mimic.Generate.small_config in
  let db = Mimic.Generate.database ~config:mimic () in
  let e = Engine.create db in
  let add name =
    let p = Workload.Policies.find ~n_patients:mimic.Mimic.Generate.n_patients name in
    mk e name p.Workload.Policies.sql
  in
  let p1 = add "P1" and p2 = add "P2" and p3 = add "P3" in
  let p4 = add "P4" and p5 = add "P5" and p6 = add "P6" in
  Alcotest.(check bool) "P1 monotone" true p1.Policy.monotone;
  Alcotest.(check bool) "P1 time-dependent" false p1.Policy.time_independent;
  Alcotest.(check bool) "P2 TI" true p2.Policy.time_independent;
  Alcotest.(check bool) "P3 TI" true p3.Policy.time_independent;
  Alcotest.(check bool) "P3 interleavable" true p3.Policy.interleavable;
  Alcotest.(check bool) "P4 TI" true p4.Policy.time_independent;
  Alcotest.(check bool) "P4 non-monotone" false p4.Policy.monotone;
  Alcotest.(check bool) "P5 time-dependent" false p5.Policy.time_independent;
  Alcotest.(check bool) "P5 interleavable" true p5.Policy.interleavable;
  Alcotest.(check bool) "P6 interleavable" true p6.Policy.interleavable

let test_duplicate_name_rejected () =
  let _, e = policy_db () in
  ignore (mk e "dup" "SELECT DISTINCT 'x' FROM users u WHERE u.uid = 1");
  match mk e "dup" "SELECT DISTINCT 'y' FROM users u WHERE u.uid = 2" with
  | exception Errors.Sql_error (Errors.Catalog_error, _) -> ()
  | _ -> Alcotest.fail "expected duplicate-name rejection"

let test_bad_policy_sql_rejected () =
  let _, e = policy_db () in
  (match mk e "bad1" "SELECT DISTINCT 'x' FROM nonexistent_table t" with
  | exception Errors.Sql_error (Errors.Catalog_error, _) -> ()
  | _ -> Alcotest.fail "unknown table should fail");
  match mk e "bad2" "SELECT DISTINCT 'x' FROM users u WHERE nocolumn = 1" with
  | exception Errors.Sql_error (Errors.Bind_error, _) -> ()
  | _ -> Alcotest.fail "unknown column should fail"

let suite =
  [
    tc "message extraction" test_message_extraction;
    tc "log relations" test_log_rels;
    tc "monotonicity" test_monotone_classification;
    tc "time independence" test_time_independent_classification;
    tc "ts-joined log aliases" test_ts_joined_classification;
    tc "TI rewriting" test_ti_rewriting;
    tc "workload policy classification" test_workload_policy_classification;
    tc "duplicate name" test_duplicate_name_rejected;
    tc "bad policy sql" test_bad_policy_sql_rejected;
  ]
