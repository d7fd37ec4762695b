open Relational
open Datalawyer
open Test_support

let ctx db ?(uid = 1) ?(time = 1) sql =
  { Usage_log.uid; time; query = Parser.query sql; db; extra = []; lineage_run = None }

let has_row rows pred = List.exists pred rows

let str_cell = function Value.Str s -> Some s | _ -> None

let test_schema_projection () =
  let db = sample_db () in
  let rows = Usage_log.schema_rows db (Parser.query "SELECT name FROM emp") in
  Alcotest.(check bool)
    "name derives from emp.name" true
    (has_row rows (fun r ->
         str_cell r.(0) = Some "name"
         && str_cell r.(1) = Some "emp"
         && str_cell r.(2) = Some "name"
         && r.(3) = Value.Bool false))

let test_schema_where_refs () =
  let db = sample_db () in
  let rows =
    Usage_log.schema_rows db (Parser.query "SELECT name FROM emp WHERE salary > 10")
  in
  Alcotest.(check bool)
    "salary recorded with NULL ocid" true
    (has_row rows (fun r ->
         r.(0) = Value.Null && str_cell r.(1) = Some "emp" && str_cell r.(2) = Some "salary"))

let test_schema_join_and_agg () =
  let db = sample_db () in
  let rows =
    Usage_log.schema_rows db
      (Parser.query
         "SELECT e.dept, COUNT(e.id) AS n FROM emp e, dept d WHERE e.dept = d.dname \
          GROUP BY e.dept")
  in
  Alcotest.(check bool)
    "agg flag set for counted column" true
    (has_row rows (fun r ->
         str_cell r.(0) = Some "n" && str_cell r.(2) = Some "id" && r.(3) = Value.Bool true));
  Alcotest.(check bool)
    "joined relation dept recorded" true
    (has_row rows (fun r -> str_cell r.(1) = Some "dept"))

let test_schema_from_only_relation () =
  let db = sample_db () in
  let rows = Usage_log.schema_rows db (Parser.query "SELECT e.name FROM emp e, dept d") in
  Alcotest.(check bool)
    "cross-joined relation recorded even when unreferenced" true
    (has_row rows (fun r -> str_cell r.(1) = Some "dept" && r.(2) = Value.Null))

let test_schema_subquery () =
  let db = sample_db () in
  let rows =
    Usage_log.schema_rows db
      (Parser.query "SELECT t.x FROM (SELECT name AS x FROM emp) t")
  in
  Alcotest.(check bool)
    "derivation traced through subquery" true
    (has_row rows (fun r ->
         str_cell r.(0) = Some "x"
         && str_cell r.(1) = Some "emp"
         && str_cell r.(2) = Some "name"))

let test_schema_star () =
  let db = sample_db () in
  let rows = Usage_log.schema_rows db (Parser.query "SELECT * FROM dept") in
  Alcotest.(check int) "one row per column" 2 (List.length rows)

(* Every icid is the catalog's column name, and an ORDER BY naming an
   output column derives from what that column reads. *)
let test_schema_binder_names () =
  let db = sample_db () in
  let icids rows = List.map (fun r -> (r.(0) = Value.Null, str_cell r.(2))) rows in
  let rows sql = icids (Usage_log.schema_rows db (Parser.query sql)) in
  Alcotest.(check (list (pair bool (option string))))
    "catalog column name" [ (false, Some "name") ] (rows "SELECT NAME FROM emp");
  Alcotest.(check (list (pair bool (option string))))
    "ORDER BY alias sorts by salary"
    [ (false, Some "salary"); (true, Some "salary") ]
    (rows "SELECT salary AS name FROM emp ORDER BY name")

let test_provenance_point () =
  let db = sample_db () in
  let rows =
    Usage_log.provenance_rows db (Parser.query "SELECT name FROM emp WHERE id = 2")
  in
  (* one output tuple, derived from exactly one emp row *)
  Alcotest.(check int) "single lineage record" 1 (List.length rows);
  match rows with
  | [ [| otid; irid; _itid |] ] ->
    Alcotest.check value "otid 0" (i 0) otid;
    Alcotest.check value "from emp" (s "emp") irid
  | _ -> Alcotest.fail "unexpected shape"

let test_provenance_join () =
  let db = sample_db () in
  let rows =
    Usage_log.provenance_rows db
      (Parser.query
         "SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname AND e.id = 1")
  in
  (* the single output tuple has lineage over both emp and dept *)
  let rels = List.map (fun r -> Value.to_string r.(1)) rows in
  Alcotest.(check bool) "emp in lineage" true (List.mem "emp" rels);
  Alcotest.(check bool) "dept in lineage" true (List.mem "dept" rels)

let test_provenance_aggregate () =
  let db = sample_db () in
  let rows =
    Usage_log.provenance_rows db
      (Parser.query "SELECT dept, COUNT(*) FROM emp WHERE dept = 'eng' GROUP BY dept")
  in
  (* group of 2 employees: 2 lineage records for the single output *)
  Alcotest.(check int) "lineage unions group members" 2 (List.length rows)

let test_provenance_distinct_unions () =
  let db = sample_db () in
  let rows =
    Usage_log.provenance_rows db (Parser.query "SELECT DISTINCT dept FROM emp")
  in
  (* 3 output tuples; lineage covers all 5 input rows *)
  let otids = List.sort_uniq compare (List.map (fun r -> r.(0)) rows) in
  Alcotest.(check int) "three outputs" 3 (List.length otids);
  Alcotest.(check int) "five contributing inputs" 5 (List.length rows)

let test_generators_end_to_end () =
  let db = sample_db () in
  let engine = Engine.create db in
  ignore engine;
  let c = ctx db "SELECT name FROM emp WHERE id = 1" in
  Alcotest.(check int) "users emits one row" 1
    (List.length (Usage_log.users.Usage_log.generate c));
  Alcotest.(check bool) "schema emits rows" true
    (Usage_log.schema_gen.Usage_log.generate c <> []);
  Alcotest.(check bool) "provenance emits rows" true
    (Usage_log.provenance.Usage_log.generate c <> [])

let test_clock () =
  let db = sample_db () in
  Usage_log.install_clock db;
  Alcotest.(check int) "initial time" 0 (Usage_log.current_time db);
  Usage_log.set_clock db 7;
  Alcotest.(check int) "after set" 7 (Usage_log.current_time db);
  check_rows "visible via SQL" [ [ i 7 ] ] (Database.rows db "SELECT ts FROM clock")

let test_custom_generator () =
  (* §6 extensibility: a device log populated from the query context. *)
  let g =
    Usage_log.custom ~relation:"devices"
      ~columns:[ ("device", Relational.Ty.Text) ]
      ~rank:0
      ~generate:(fun c ->
        match List.assoc_opt "device" c.Usage_log.extra with
        | Some v -> [ [| v |] ]
        | None -> [ [| Value.Str "unknown" |] ])
  in
  let c =
    { (ctx (sample_db ()) "SELECT 1") with Usage_log.extra = [ ("device", s "mobile") ] }
  in
  Alcotest.(check bool) "reads the context" true
    (g.Usage_log.generate c = [ [| s "mobile" |] ])

let suite =
  [
    tc "schema: projection" test_schema_projection;
    tc "schema: where refs" test_schema_where_refs;
    tc "schema: join + agg flag" test_schema_join_and_agg;
    tc "schema: from-only relation" test_schema_from_only_relation;
    tc "schema: binder's column names" test_schema_binder_names;
    tc "schema: through subquery" test_schema_subquery;
    tc "schema: star" test_schema_star;
    tc "provenance: point query" test_provenance_point;
    tc "provenance: join" test_provenance_join;
    tc "provenance: aggregate" test_provenance_aggregate;
    tc "provenance: distinct" test_provenance_distinct_unions;
    tc "generators end to end" test_generators_end_to_end;
    tc "clock" test_clock;
    tc "custom generator" test_custom_generator;
  ]
