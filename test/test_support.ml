(** Shared helpers for the test suites. *)

open Relational

let value : Value.t Alcotest.testable =
  Alcotest.testable Value.pp (fun a b -> Value.equal a b)

let row = Alcotest.list value
let rows = Alcotest.list row

(* Sort result rows for order-insensitive comparison. *)
let sorted (rs : Value.t list list) =
  List.sort (fun a b -> List.compare Value.compare a b) rs

let check_rows msg expected actual =
  Alcotest.check rows msg (sorted expected) (sorted actual)

let check_rows_ordered msg expected actual = Alcotest.check rows msg expected actual

(* Build a database from a SQL script. *)
let db_of_script script =
  let db = Database.create () in
  ignore (Database.exec_script db script);
  db

let i n : Value.t = Value.Int n
let f x : Value.t = Value.Float x
let s x : Value.t = Value.Str x
let b x : Value.t = Value.Bool x
let null : Value.t = Value.Null

let tc name fn = Alcotest.test_case name `Quick fn

(* A small example database shared by several suites. *)
let sample_db () =
  db_of_script
    {|
    CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary INT);
    CREATE TABLE dept (dname TEXT, budget INT);
    INSERT INTO emp VALUES
      (1, 'ada', 'eng', 120), (2, 'bob', 'eng', 100),
      (3, 'cyd', 'ops', 80), (4, 'dee', 'ops', 90), (5, 'eli', 'mgmt', 150);
    INSERT INTO dept VALUES ('eng', 1000), ('ops', 500), ('mgmt', 800)
    |}

(* A fresh, empty scratch directory named [<prefix>_<pid>_<n>] under
   [parent] (default: the system temp dir). *)
let temp_dir =
  let counter = ref 0 in
  fun ?(parent = Filename.get_temp_dir_name ()) prefix ->
    incr counter;
    let dir =
      Filename.concat parent (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !counter)
    in
    (if Sys.file_exists dir then
       Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f)));
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* Remove a flat directory made by [temp_dir]. *)
let remove_dir dir =
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir

(* The tuples a witness keeps at tick [now]: run each query with
   source-tid tracking and keep the slot-0 tids with a deadline above
   [now] (the engine's full mark, outside the engine). *)
let witness_retained db ~now (w : Datalawyer.Witness.t) : (int, unit) Hashtbl.t =
  let retained = Hashtbl.create 16 in
  (match w with
  | Datalawyer.Witness.Keep_all -> Alcotest.fail "expected witness queries"
  | Datalawyer.Witness.Queries qs ->
    List.iter
      (fun (q : Datalawyer.Witness.query) ->
        let r =
          Executor.run
            ~opts:{ Executor.lineage = false; track_src = true }
            (Database.catalog db) (Ast.Select q.Datalawyer.Witness.select)
        in
        Datalawyer.Witness.scan q ~now r (fun tid d ->
            if d > now then Hashtbl.replace retained tid ()))
      qs);
  retained
