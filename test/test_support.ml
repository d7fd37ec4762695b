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

(* One of [Engine.counters]'s values, as an int. *)
let counter e key = int_of_string (List.assoc key (Datalawyer.Engine.counters e))

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
        Datalawyer.Witness.scan q ~now r (fun _ tid d ->
            if d > now then Hashtbl.replace retained tid ()))
      qs);
  retained

(* The source-tid form of §4.3's improved partial check, the reference
   for the engine's tick-pinned probe: run πS with source-tid tracking
   and keep the policy iff some result row draws on a tentative
   increment, i.e. holds a tid at or above its relation's floor. An
   empty πS prunes. *)
let improved_partial_reference db ~(floors : (string * int) list)
    (pq : Ast.query) : bool =
  let slot_rels =
    match pq with
    | Ast.Select s ->
      Array.of_list
        (List.map
           (function
             | Ast.From_table { name; _ } -> Some (String.lowercase_ascii name)
             | Ast.From_subquery _ -> None)
           s.Ast.from)
    | Ast.Union _ -> [||]
  in
  let r =
    Executor.run
      ~opts:{ Executor.lineage = false; track_src = true }
      (Database.catalog db) pq
  in
  List.exists
    (fun (row : Executor.row_out) ->
      List.exists
        (fun (slot, tid) ->
          match Option.bind slot_rels.(slot) (fun rel -> List.assoc_opt rel floors) with
          | Some floor -> tid >= floor
          | None -> false)
        row.Executor.src_tids)
    r.Executor.out_rows

(* Every increment-probe decision of [f ()], each with the reference's
   verdict: (πS, probe kept, reference kept). Safe under a domain
   pool. *)
let probe_decisions (f : unit -> unit) : (Ast.query * bool * bool) list =
  let lock = Mutex.create () in
  let seen = ref [] in
  Datalawyer.Engine.probe_observer :=
    Some
      (fun db pq ~floors ~kept ->
        let reference = improved_partial_reference db ~floors pq in
        Mutex.protect lock (fun () -> seen := (pq, kept, reference) :: !seen));
  Fun.protect ~finally:(fun () -> Datalawyer.Engine.probe_observer := None) f;
  List.rev !seen
