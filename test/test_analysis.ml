(* Unit tests for the static-analysis helpers behind the policy rewrites. *)

open Relational
open Datalawyer
open Test_support

let test_qualify () =
  let db = sample_db () in
  let q =
    Analysis.qualify (Database.catalog db)
      (Parser.query "SELECT name FROM emp WHERE salary > 100")
  in
  let sql = Sql_print.query q in
  Alcotest.(check bool) "projection qualified" true
    (Test_policy.contains_substring sql "emp.name");
  Alcotest.(check bool) "predicate qualified" true
    (Test_policy.contains_substring sql "emp.salary")

let test_qualify_through_alias () =
  let db = sample_db () in
  let q =
    Analysis.qualify (Database.catalog db)
      (Parser.query "SELECT name FROM emp e WHERE salary > 100")
  in
  Alcotest.(check bool) "uses alias, not table name" true
    (Test_policy.contains_substring (Sql_print.query q) "e.name")

let test_qualify_ambiguous () =
  let db = sample_db () in
  match
    Analysis.qualify (Database.catalog db)
      (Parser.query "SELECT id FROM emp a, emp b")
  with
  | exception Errors.Sql_error (Errors.Bind_error, _) -> ()
  | _ -> Alcotest.fail "ambiguous column must fail qualification"

let test_qualify_subquery () =
  let db = sample_db () in
  let q =
    Analysis.qualify (Database.catalog db)
      (Parser.query "SELECT x FROM (SELECT name AS x FROM emp) t WHERE x != 'q'")
  in
  let sql = Sql_print.query q in
  Alcotest.(check bool) "outer ref bound to subquery alias" true
    (Test_policy.contains_substring sql "t.x")

let test_output_columns () =
  let db = sample_db () in
  let cols sql = Plan.columns (Plan.of_query (Database.catalog db) (Parser.query sql)) in
  Alcotest.(check (list string)) "star" [ "id"; "name"; "dept"; "salary" ]
    (cols "SELECT * FROM emp");
  Alcotest.(check (list string)) "aliases and defaults"
    [ "k"; "salary"; "count"; "?column?" ]
    (cols "SELECT id AS k, salary, COUNT(*), 1 + 2 FROM emp GROUP BY id, salary")

let test_eq_classes () =
  let conjs =
    Ast.conjuncts (Parser.expr "a.ts = b.ts AND b.ts = c.ts AND a.x = a.x AND d.y = e.z")
  in
  let cls = Analysis.Eq_classes.of_conjuncts conjs in
  Alcotest.(check bool) "transitive" true
    (Analysis.Eq_classes.same cls ("a", "ts") ("c", "ts"));
  Alcotest.(check bool) "separate classes" false
    (Analysis.Eq_classes.same cls ("a", "ts") ("d", "y"));
  Alcotest.(check bool) "pair" true
    (Analysis.Eq_classes.same cls ("d", "y") ("e", "z"))

let test_log_relations () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore e;
  let is_log rel = Catalog.is_log (Database.catalog db) rel in
  let rels sql = List.sort compare (Analysis.log_relations ~is_log (Parser.query sql)) in
  Alcotest.(check (list string)) "direct" [ "schema"; "users" ]
    (rels "SELECT 1 FROM users u, schema s, emp e");
  Alcotest.(check (list string)) "through subquery" [ "provenance" ]
    (rels "SELECT 1 FROM (SELECT otid FROM provenance) q");
  Alcotest.(check bool) "subquery_uses_log" true
    (Analysis.subquery_uses_log ~is_log
       (Parser.query "SELECT 1 FROM (SELECT otid FROM provenance) q"));
  Alcotest.(check bool) "plain query has none" true
    (rels "SELECT 1 FROM emp" = [])

let test_saturation () =
  let conjs =
    Ast.conjuncts (Parser.expr "p.ts = u.ts AND p.ts > c.ts - 500 AND u.uid = 1")
  in
  let saturated = Partial.saturate conjs in
  let has e = List.exists (fun c -> Sql_print.expr c = e) saturated in
  Alcotest.(check bool) "window transferred to u.ts" true
    (has "u.ts > c.ts - 500");
  Alcotest.(check bool) "original kept" true (has "p.ts > c.ts - 500")

let suite =
  [
    tc "qualify" test_qualify;
    tc "qualify through alias" test_qualify_through_alias;
    tc "qualify ambiguous" test_qualify_ambiguous;
    tc "qualify subquery" test_qualify_subquery;
    tc "output columns" test_output_columns;
    tc "equality classes" test_eq_classes;
    tc "log relations" test_log_relations;
    tc "predicate saturation" test_saturation;
  ]
