(* Edge cases of the storage and execution substrate. *)

open Relational
open Test_support

let test_insert_type_checking () =
  let db = db_of_script "CREATE TABLE t (a INT, b FLOAT, c TEXT)" in
  let t = Database.table db "t" in
  (* int widens into float columns *)
  ignore (Table.insert t [| i 1; i 2; s "x" |]);
  (* NULL fits anywhere *)
  ignore (Table.insert t [| null; null; null |]);
  Alcotest.check_raises "text into int"
    (Errors.Sql_error
       (Errors.Type_error, "table t column a: expected INT, got TEXT (oops)"))
    (fun () -> ignore (Table.insert t [| s "oops"; f 1.; s "x" |]));
  (match Table.insert t [| i 1; f 2. |] with
  | exception Errors.Sql_error (Errors.Runtime_error, _) -> ()
  | _ -> Alcotest.fail "arity mismatch must fail");
  Alcotest.(check int) "failed inserts left no rows" 2 (Table.row_count t)

let test_savepoint_guards () =
  let db = db_of_script "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)" in
  let t = Database.table db "t" in
  let sp = Table.savepoint t in
  (match Table.delete_where t (fun _ -> true) with
  | exception Errors.Sql_error (Errors.Runtime_error, _) -> ()
  | _ -> Alcotest.fail "delete during savepoint must fail");
  (match Table.update_where t (fun _ -> true) (fun c -> c) with
  | exception Errors.Sql_error (Errors.Runtime_error, _) -> ()
  | _ -> Alcotest.fail "update during savepoint must fail");
  Table.release t sp;
  Alcotest.(check int) "deletes allowed after release" 1
    (Table.delete_where t (fun _ -> true))

(* The version counter the commit record reads on base relations: every
   mutation moves [ver_mut]; keeping a savepoint's increment does not. *)
let test_version_counters () =
  let db = db_of_script "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3)" in
  let t = Database.table db "t" in
  let tids l =
    let h = Hashtbl.create 4 in
    List.iter (fun tid -> Hashtbl.replace h tid ()) l;
    h
  in
  let moves what ~mut op =
    let m0 = Table.ver_mut t in
    op ();
    Alcotest.(check bool) (what ^ ": ver_mut moved") mut (Table.ver_mut t <> m0)
  in
  moves "insert" ~mut:true (fun () -> ignore (Table.insert t [| i 4 |]));
  let sp = Table.savepoint t in
  moves "tentative insert" ~mut:true (fun () -> ignore (Table.insert t [| i 5 |]));
  moves "rollback_to" ~mut:true (fun () -> Table.rollback_to t sp);
  let sp = Table.savepoint t in
  ignore (Table.insert t [| i 5 |]);
  (* Keeping the increment is no mutation. *)
  moves "release" ~mut:false (fun () -> Table.release t sp);
  moves "retain_tids" ~mut:true (fun () -> ignore (Table.retain_tids t (tids [ 0; 1; 2; 3 ])));
  moves "drop_tids" ~mut:true (fun () -> ignore (Table.drop_tids t (tids [ 0 ])));
  moves "delete_where" ~mut:true (fun () ->
      ignore (Table.delete_where t (fun r -> Value.equal (Row.cell r 0) (i 2))));
  moves "update_where" ~mut:true (fun () ->
      ignore (Table.update_where t (fun _ -> true) (fun c -> c)));
  moves "clear" ~mut:true (fun () -> Table.clear t);
  moves "bulk_load" ~mut:true (fun () -> Table.bulk_load t [ [| i 7 |] ]);
  Alcotest.(check int) "rows after the sequence" 1 (Table.row_count t)

let test_find_by_tid_after_deletion () =
  let db = db_of_script "CREATE TABLE t (a INT); INSERT INTO t VALUES (10), (20), (30)" in
  let t = Database.table db "t" in
  ignore
    (Table.delete_where t (fun r -> Value.equal (Row.cell r 0) (i 20)));
  Alcotest.(check bool) "tid 0 present" true (Table.find_by_tid t 0 <> None);
  Alcotest.(check bool) "tid 1 deleted" true (Table.find_by_tid t 1 = None);
  Alcotest.(check bool) "tid 2 present" true (Table.find_by_tid t 2 <> None);
  (* tids are not reused after deletion *)
  let tid = Table.insert t [| i 40 |] in
  Alcotest.(check int) "fresh tid" 3 tid

let test_catalog_kinds () =
  let cat = Catalog.create () in
  let schema = Schema.make [ ("x", Ty.Int) ] in
  ignore (Catalog.create_table cat ~name:"base_t" ~schema);
  ignore (Catalog.create_table ~kind:Catalog.Log cat ~name:"log_t" ~schema);
  Alcotest.(check bool) "base not log" false (Catalog.is_log cat "base_t");
  Alcotest.(check bool) "log is log" true (Catalog.is_log cat "LOG_T");
  Alcotest.(check (list string)) "log names" [ "log_t" ] (Catalog.log_table_names cat);
  (match Catalog.create_table cat ~name:"BASE_T" ~schema with
  | exception Errors.Sql_error (Errors.Catalog_error, _) -> ()
  | _ -> Alcotest.fail "case-insensitive duplicate must fail");
  match Catalog.drop cat "nope" with
  | exception Errors.Sql_error (Errors.Catalog_error, _) -> ()
  | _ -> Alcotest.fail "dropping unknown table must fail"

(* Every SQL write path refuses log and system relations, naming the
   relation, and writes nothing; CREATE INDEX on them stays allowed. *)
let test_sql_writes_base_tables_only () =
  let db = Database.create () in
  let cat = Database.catalog db in
  let schema = Schema.make [ ("ts", Ty.Int) ] in
  let log = Catalog.create_table ~kind:Catalog.Log cat ~name:"log_t" ~schema in
  let clock = Catalog.create_table ~kind:Catalog.System cat ~name:"clock" ~schema in
  List.iter (fun t -> ignore (Table.insert t [| i 1 |])) [ log; clock ];
  let refused what write =
    match write () with
    | exception Errors.Sql_error (Errors.Catalog_error, msg) ->
      Alcotest.(check bool) (what ^ ": names the relation") true
        (List.exists (fun n -> String.starts_with ~prefix:n msg) [ "log_t is a usage-log"; "clock is a system" ])
    | _ -> Alcotest.failf "%s must be refused" what
  in
  List.iter
    (fun rel ->
      List.iter
        (fun sql -> refused sql (fun () -> ignore (Database.exec db sql)))
        [
          Printf.sprintf "INSERT INTO %s VALUES (2)" rel;
          Printf.sprintf "UPDATE %s SET ts = 0" rel;
          Printf.sprintf "DELETE FROM %s" (String.uppercase_ascii rel);
          Printf.sprintf "DROP TABLE %s" rel;
          Printf.sprintf "DROP TABLE IF EXISTS %s" rel;
        ];
      refused ("CSV import into " ^ rel) (fun () -> ignore (Csv_io.import db ~table:rel "ts\n2\n")))
    [ "log_t"; "clock" ];
  List.iter
    (fun t -> Alcotest.(check int) (Table.name t ^ " rows") 1 (Table.row_count t))
    [ log; clock ];
  ignore (Database.exec db "CREATE INDEX log_t_ts ON log_t USING sorted (ts)");
  Alcotest.(check int) "index on a log relation" 1 (List.length (Table.indexes log))

let test_order_by_multi_key () =
  let db =
    db_of_script
      "CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 9), (2, 1), (1, 3), (2, 7)"
  in
  check_rows_ordered "a asc, b desc"
    [ [ i 1; i 9 ]; [ i 1; i 3 ]; [ i 2; i 7 ]; [ i 2; i 1 ] ]
    (Database.rows db "SELECT a, b FROM t ORDER BY a, b DESC")

let test_limit_zero () =
  let db = sample_db () in
  check_rows "limit 0" [] (Database.rows db "SELECT name FROM emp LIMIT 0")

let test_nested_subqueries () =
  let db = sample_db () in
  check_rows "three levels"
    [ [ s "eng"; i 2 ] ]
    (Database.rows db
       "SELECT q2.dept, q2.n FROM (SELECT q1.dept, q1.n FROM (SELECT dept, \
        COUNT(*) AS n FROM emp GROUP BY dept) q1 WHERE q1.n > 1) q2 WHERE \
        q2.dept = 'eng'")

let test_union_of_unions () =
  let db = sample_db () in
  check_rows "nested unions dedupe"
    [ [ s "eng" ]; [ s "ops" ]; [ s "mgmt" ] ]
    (Database.rows db
       "SELECT dept FROM emp UNION SELECT dname FROM dept UNION SELECT dept \
        FROM emp WHERE salary > 100")

let test_case_is_lazy () =
  let db = sample_db () in
  (* the ELSE branch would divide by zero but is never taken *)
  check_rows "case short-circuits"
    [ [ i 1 ] ]
    (Database.rows db "SELECT CASE WHEN 1 = 1 THEN 1 ELSE 1 / 0 END")

let test_and_or_short_circuit_semantics () =
  let db = db_of_script "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)" in
  (* no short-circuit guarantee needed for correctness of results *)
  check_rows "or with comparison" [ [ i 1 ]; [ i 2 ] ]
    (Database.rows db "SELECT a FROM t WHERE a = 1 OR a >= 2")

let test_like_type_error () =
  let db = sample_db () in
  match Database.rows db "SELECT name FROM emp WHERE name LIKE 5" with
  | exception Errors.Sql_error (Errors.Type_error, _) -> ()
  | _ -> Alcotest.fail "non-string LIKE pattern must fail"

let test_float_division_by_zero () =
  let db = sample_db () in
  match Database.rows db "SELECT 1.0 / 0.0" with
  | exception Errors.Sql_error (Errors.Runtime_error, _) -> ()
  | _ -> Alcotest.fail "float division by zero must fail"

let test_scalar_helper () =
  let db = sample_db () in
  Alcotest.check value "scalar" (i 5) (Database.scalar db "SELECT COUNT(*) FROM emp");
  (match Database.scalar db "SELECT id FROM emp" with
  | exception Errors.Sql_error (Errors.Runtime_error, _) -> ()
  | _ -> Alcotest.fail "multi-row scalar must fail");
  match Database.scalar db "SELECT id FROM emp WHERE id = 99" with
  | exception Errors.Sql_error (Errors.Runtime_error, _) -> ()
  | _ -> Alcotest.fail "empty scalar must fail"

let test_render () =
  let db = sample_db () in
  let out = Database.render (Database.query db "SELECT name FROM emp WHERE id = 1") in
  Alcotest.(check bool) "mentions header" true (Test_policy.contains_substring out "name");
  Alcotest.(check bool) "mentions row" true (Test_policy.contains_substring out "ada");
  Alcotest.(check bool) "mentions count" true (Test_policy.contains_substring out "(1 rows)")

let test_quoted_identifier_table () =
  let db = db_of_script "CREATE TABLE \"select\" (a INT); INSERT INTO \"select\" VALUES (7)" in
  check_rows "keyword table name via quotes" [ [ i 7 ] ]
    (Database.rows db "SELECT a FROM \"select\"")

let suite =
  [
    tc "insert type checking" test_insert_type_checking;
    tc "savepoint guards" test_savepoint_guards;
    tc "find_by_tid after deletion" test_find_by_tid_after_deletion;
    tc "catalog kinds and errors" test_catalog_kinds;
    tc "SQL writes base tables only" test_sql_writes_base_tables_only;
    tc "order by multiple keys" test_order_by_multi_key;
    tc "limit 0" test_limit_zero;
    tc "nested subqueries" test_nested_subqueries;
    tc "union of unions" test_union_of_unions;
    tc "CASE is lazy" test_case_is_lazy;
    tc "boolean predicates" test_and_or_short_circuit_semantics;
    tc "LIKE type error" test_like_type_error;
    tc "float division by zero" test_float_division_by_zero;
    tc "scalar helper" test_scalar_helper;
    tc "result rendering" test_render;
    tc "quoted identifiers" test_quoted_identifier_table;
    tc "version counters" test_version_counters;
  ]
