open Relational
open Test_support

let q db sql = Database.rows db sql

let test_scan_project () =
  let db = sample_db () in
  check_rows "all names"
    [ [ s "ada" ]; [ s "bob" ]; [ s "cyd" ]; [ s "dee" ]; [ s "eli" ] ]
    (q db "SELECT name FROM emp")

let test_filter () =
  let db = sample_db () in
  check_rows "salary filter"
    [ [ s "ada"; i 120 ]; [ s "eli"; i 150 ] ]
    (q db "SELECT name, salary FROM emp WHERE salary > 100");
  check_rows "conjunction"
    [ [ s "bob" ] ]
    (q db "SELECT name FROM emp WHERE dept = 'eng' AND salary < 110");
  check_rows "disjunction"
    [ [ s "ada" ]; [ s "cyd" ] ]
    (q db "SELECT name FROM emp WHERE name = 'ada' OR name = 'cyd'")

let test_expressions_in_select () =
  let db = sample_db () in
  check_rows "arithmetic"
    [ [ i 240 ] ]
    (q db "SELECT salary * 2 FROM emp WHERE id = 1");
  check_rows "concat"
    [ [ s "ada!" ] ]
    (q db "SELECT name || '!' FROM emp WHERE id = 1");
  check_rows "int division truncates"
    [ [ i 2 ] ] (q db "SELECT 5 / 2");
  check_rows "float division"
    [ [ f 2.5 ] ] (q db "SELECT 5.0 / 2");
  check_rows "modulo" [ [ i 1 ] ] (q db "SELECT 5 % 2")

let test_join_hash () =
  let db = sample_db () in
  check_rows "equi join"
    [
      [ s "ada"; i 1000 ]; [ s "bob"; i 1000 ];
      [ s "cyd"; i 500 ]; [ s "dee"; i 500 ]; [ s "eli"; i 800 ];
    ]
    (q db "SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.dname")

let test_join_nested_loop () =
  let db = sample_db () in
  (* Non-equi join forces the nested-loop path. *)
  check_rows "theta join"
    [ [ s "bob" ] ]
    (q db
       "SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname AND e.salary * 9 < d.budget")

let test_cross_product () =
  let db = sample_db () in
  Alcotest.(check int)
    "5 x 3 rows" 15
    (List.length (q db "SELECT e.id, d.dname FROM emp e, dept d"))

let test_self_join () =
  let db = sample_db () in
  check_rows "pairs in same dept"
    [ [ s "ada"; s "bob" ]; [ s "cyd"; s "dee" ] ]
    (q db
       "SELECT a.name, b.name FROM emp a, emp b WHERE a.dept = b.dept AND a.id < b.id")

let test_three_way_join () =
  let db =
    db_of_script
      {|
      CREATE TABLE a (x INT); CREATE TABLE b (x INT, y INT); CREATE TABLE c (y INT);
      INSERT INTO a VALUES (1), (2);
      INSERT INTO b VALUES (1, 10), (2, 20), (3, 30);
      INSERT INTO c VALUES (10), (30)
      |}
  in
  check_rows "chain"
    [ [ i 1; i 10 ] ]
    (q db "SELECT a.x, c.y FROM a, b, c WHERE a.x = b.x AND b.y = c.y")

let test_group_by () =
  let db = sample_db () in
  check_rows "count per dept"
    [ [ s "eng"; i 2 ]; [ s "ops"; i 2 ]; [ s "mgmt"; i 1 ] ]
    (q db "SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  check_rows "sum per dept"
    [ [ s "eng"; i 220 ]; [ s "ops"; i 170 ]; [ s "mgmt"; i 150 ] ]
    (q db "SELECT dept, SUM(salary) FROM emp GROUP BY dept")

let test_aggregates () =
  let db = sample_db () in
  check_rows "min max avg"
    [ [ i 80; i 150; f 108.0 ] ]
    (q db "SELECT MIN(salary), MAX(salary), AVG(salary) FROM emp");
  check_rows "count distinct"
    [ [ i 3 ] ]
    (q db "SELECT COUNT(DISTINCT dept) FROM emp")

let test_aggregate_empty_input () =
  let db = sample_db () in
  (* No GROUP BY: one row even over empty input. *)
  check_rows "count of nothing"
    [ [ i 0 ] ]
    (q db "SELECT COUNT(*) FROM emp WHERE salary > 1000");
  check_rows "sum of nothing is NULL"
    [ [ null ] ]
    (q db "SELECT SUM(salary) FROM emp WHERE salary > 1000");
  (* With GROUP BY: zero rows. *)
  check_rows "no groups" []
    (q db "SELECT dept, COUNT(*) FROM emp WHERE salary > 1000 GROUP BY dept")

let test_having () =
  let db = sample_db () in
  check_rows "having count > 1"
    [ [ s "eng" ]; [ s "ops" ] ]
    (q db "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1");
  (* HAVING without GROUP BY forms a single group (paper's P2b shape). *)
  check_rows "global having true"
    [ [ i 1 ] ]
    (q db "SELECT DISTINCT 1 FROM emp HAVING COUNT(DISTINCT dept) > 2");
  check_rows "global having false" []
    (q db "SELECT DISTINCT 1 FROM emp HAVING COUNT(DISTINCT dept) > 5")

let test_distinct () =
  let db = sample_db () in
  check_rows "distinct depts"
    [ [ s "eng" ]; [ s "ops" ]; [ s "mgmt" ] ]
    (q db "SELECT DISTINCT dept FROM emp")

let test_distinct_on () =
  let db = sample_db () in
  let rows = q db "SELECT DISTINCT ON (dept), name FROM emp" in
  Alcotest.(check int) "one per dept" 3 (List.length rows)

let test_order_limit () =
  let db = sample_db () in
  check_rows_ordered "order by salary desc"
    [ [ s "eli" ]; [ s "ada" ]; [ s "bob" ] ]
    (q db "SELECT name FROM emp ORDER BY salary DESC LIMIT 3");
  check_rows_ordered "order by alias"
    [ [ i 80 ]; [ i 90 ] ]
    (q db "SELECT salary AS pay FROM emp ORDER BY pay LIMIT 2")

let test_union () =
  let db = sample_db () in
  check_rows "union dedupes"
    [ [ s "eng" ]; [ s "ops" ]; [ s "mgmt" ] ]
    (q db "SELECT dept FROM emp UNION SELECT dname FROM dept");
  Alcotest.(check int)
    "union all keeps dupes" 8
    (List.length (q db "SELECT dept FROM emp UNION ALL SELECT dname FROM dept"))

let test_subquery () =
  let db = sample_db () in
  check_rows "subquery in from"
    [ [ s "eng" ] ]
    (q db
       "SELECT t.dept FROM (SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept) t \
        WHERE t.n = 2 AND t.dept = 'eng'")

let test_select_without_from () =
  let db = Database.create () in
  check_rows "select constant" [ [ i 42 ] ] (q db "SELECT 42");
  check_rows "false constant filter" [] (q db "SELECT 1 WHERE 1 = 2")

let test_star_variants () =
  let db = sample_db () in
  Alcotest.(check int)
    "star arity" 4
    (List.length (List.hd (q db "SELECT * FROM emp WHERE id = 1")));
  Alcotest.(check int)
    "table star after join" 4
    (List.length
       (List.hd (q db "SELECT e.* FROM emp e, dept d WHERE e.dept = d.dname AND e.id = 1")))

let test_null_semantics () =
  let db = db_of_script "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (NULL), (3)" in
  check_rows "null fails comparisons" [ [ i 1 ] ] (q db "SELECT a FROM t WHERE a < 2");
  check_rows "null = null is false" [] (q db "SELECT a FROM t WHERE NULL = NULL");
  check_rows "count ignores null" [ [ i 2 ] ] (q db "SELECT COUNT(a) FROM t");
  check_rows "count star counts null" [ [ i 3 ] ] (q db "SELECT COUNT(*) FROM t");
  check_rows "sum skips null" [ [ i 4 ] ] (q db "SELECT SUM(a) FROM t")

let test_ambiguity_errors () =
  let db = sample_db () in
  let fails sql =
    match q db sql with
    | exception Errors.Sql_error ((Errors.Bind_error | Errors.Catalog_error), _) -> ()
    | _ -> Alcotest.failf "expected bind error for %S" sql
  in
  fails "SELECT id FROM emp e, emp f";
  (* ambiguous *)
  fails "SELECT nosuch FROM emp";
  fails "SELECT emp.id FROM emp e";
  (* alias hides table name *)
  fails "SELECT * FROM nosuchtable";
  fails "SELECT COUNT(*) FROM emp WHERE COUNT(*) > 1"

let test_division_by_zero () =
  let db = sample_db () in
  Alcotest.check_raises "div by zero"
    (Errors.Sql_error (Errors.Runtime_error, "division by zero"))
    (fun () -> ignore (q db "SELECT 1 / 0"))

let test_dml () =
  let db = sample_db () in
  ignore (Database.exec db "INSERT INTO emp VALUES (6, 'fae', 'eng', 95)");
  Alcotest.(check int) "insert visible" 3
    (List.length (q db "SELECT id FROM emp WHERE dept = 'eng'"));
  ignore (Database.exec db "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'");
  check_rows "update applied" [ [ i 130 ] ] (q db "SELECT salary FROM emp WHERE id = 1");
  ignore (Database.exec db "DELETE FROM emp WHERE dept = 'eng'");
  check_rows "delete applied" [ [ i 0 ] ]
    (q db "SELECT COUNT(*) FROM emp WHERE dept = 'eng'")

(* DML binds its expressions before touching a row, as SELECT does: a
   name error raises even when no row would be evaluated. *)
let test_dml_binds_before_running () =
  let db = db_of_script "CREATE TABLE t (a INT)" in
  Alcotest.check_raises "DELETE WHERE with an unknown column"
    (Errors.Sql_error (Errors.Bind_error, "unknown column \"nosuch\""))
    (fun () -> ignore (Database.exec db "DELETE FROM t WHERE nosuch = 1"));
  Alcotest.check_raises "UPDATE SET with an unknown column"
    (Errors.Sql_error (Errors.Bind_error, "unknown column \"nosuch\""))
    (fun () -> ignore (Database.exec db "UPDATE t SET a = nosuch"));
  ignore (Database.exec db "INSERT INTO t VALUES (1)");
  ignore (Database.exec db "UPDATE t SET a = t.a + 1 WHERE t.a = 1");
  check_rows "qualified names resolve against the table" [ [ i 2 ] ]
    (q db "SELECT a FROM t")

let test_savepoint_rollback () =
  let db = sample_db () in
  let t = Database.table db "emp" in
  let sp = Table.savepoint t in
  ignore (Table.insert t [| i 7; s "gil"; s "eng"; i 99 |]);
  Alcotest.(check int) "visible inside" 6 (Table.row_count t);
  Alcotest.(check int) "increment" 1 (Table.fold_since (fun n _ -> n + 1) 0 t sp);
  Table.rollback_to t sp;
  Alcotest.(check int) "rolled back" 5 (Table.row_count t)

let suite =
  [
    tc "scan and project" test_scan_project;
    tc "filter" test_filter;
    tc "expressions in select" test_expressions_in_select;
    tc "hash join" test_join_hash;
    tc "nested loop join" test_join_nested_loop;
    tc "cross product" test_cross_product;
    tc "self join" test_self_join;
    tc "three-way join" test_three_way_join;
    tc "group by" test_group_by;
    tc "aggregates" test_aggregates;
    tc "aggregate over empty input" test_aggregate_empty_input;
    tc "having" test_having;
    tc "distinct" test_distinct;
    tc "distinct on" test_distinct_on;
    tc "order by / limit" test_order_limit;
    tc "union" test_union;
    tc "subquery in from" test_subquery;
    tc "select without from" test_select_without_from;
    tc "star variants" test_star_variants;
    tc "null semantics" test_null_semantics;
    tc "bind errors" test_ambiguity_errors;
    tc "division by zero" test_division_by_zero;
    tc "dml" test_dml;
    tc "dml binds before it runs" test_dml_binds_before_running;
    tc "savepoint rollback" test_savepoint_rollback;
  ]
