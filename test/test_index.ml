(** Property tests for the maintained secondary indexes.

    The heap is ground truth: after a random interleaving of inserts,
    deletes, updates, savepoint rollback/release and [retain_tids]
    compaction, every declared index must agree exactly with a full heap
    scan — same tid sets per value under {!Value.equal}, same tid sets
    per range under {!Value.compare} (NULL cells excluded), and an entry
    count equal to the row count. A mid-stream [create_index] exercises
    the build-from-existing-rows path. *)

open Relational
open Test_support

(* Tid-monotonicity assertions on for the whole suite. *)
let () = Table.debug_checks := true

type op =
  | Insert of int * int option  (** (a, b); [None] inserts NULL into b *)
  | Delete_a of int
  | Delete_b_lt of int
  | Update_b of int * int  (** WHERE a = k SET b = v *)
  | Compact  (** retain_tids keeping even tids *)
  | Txn of (int * int option) list * bool  (** savepoint + inserts; commit? *)

let op_gen =
  let open QCheck.Gen in
  let k = int_range 0 8 in
  let cell = frequency [ (4, map (fun b -> Some b) k); (1, return None) ] in
  frequency
    [
      (6, map2 (fun a b -> Insert (a, b)) k cell);
      (2, map (fun a -> Delete_a a) k);
      (2, map (fun b -> Delete_b_lt b) k);
      (2, map2 (fun a v -> Update_b (a, v)) k k);
      (1, return Compact);
      ( 2,
        map2
          (fun rows commit -> Txn (rows, commit))
          (list_size (int_range 0 5) (pair k cell))
          bool );
    ]

let ops_gen = QCheck.Gen.list_size (QCheck.Gen.int_range 0 60) op_gen

let print_op = function
  | Insert (a, b) ->
    Printf.sprintf "ins(%d,%s)" a
      (match b with None -> "null" | Some b -> string_of_int b)
  | Delete_a a -> Printf.sprintf "del_a(%d)" a
  | Delete_b_lt b -> Printf.sprintf "del_b<%d" b
  | Update_b (a, v) -> Printf.sprintf "upd(a=%d,b:=%d)" a v
  | Compact -> "compact"
  | Txn (rows, commit) ->
    Printf.sprintf "txn(%d rows,%s)" (List.length rows)
      (if commit then "commit" else "rollback")

let value_of_b = function None -> Value.Null | Some b -> Value.Int b

let apply table op =
  match op with
  | Insert (a, b) -> ignore (Table.insert table [| Value.Int a; value_of_b b |])
  | Delete_a a ->
    ignore (Table.delete_where table (fun r -> Row.cell r 0 = Value.Int a))
  | Delete_b_lt b ->
    ignore
      (Table.delete_where table (fun r ->
           match Row.cell r 1 with Value.Int x -> x < b | _ -> false))
  | Update_b (a, v) ->
    ignore
      (Table.update_where table
         (fun r -> Row.cell r 0 = Value.Int a)
         (fun cells ->
           let c = Array.copy cells in
           c.(1) <- Value.Int v;
           c))
  | Compact ->
    let keep = Hashtbl.create 16 in
    Table.iter
      (fun r -> if Row.tid r mod 2 = 0 then Hashtbl.replace keep (Row.tid r) ())
      table;
    ignore (Table.retain_tids table keep)
  | Txn (rows, commit) ->
    let sp = Table.savepoint table in
    List.iter
      (fun (a, b) -> ignore (Table.insert table [| Value.Int a; value_of_b b |]))
      rows;
    if commit then Table.release table sp else Table.rollback_to table sp

(* Ground truth: tids of rows whose [col] cell is [Value.equal] to [v]. *)
let heap_eq_tids table col v =
  List.sort compare
    (Table.fold
       (fun acc r ->
         if Value.equal (Row.cell r col) v then Row.tid r :: acc else acc)
       [] table)

let in_bound cmp = function
  | None -> true
  | Some (b, incl) -> if incl then cmp b >= 0 else cmp b > 0

(* Ground truth for ranges: non-NULL cells within the bounds. *)
let heap_range_tids table col ?lo ?hi () =
  List.sort compare
    (Table.fold
       (fun acc r ->
         let v = Row.cell r col in
         if
           (not (Value.is_null v))
           && in_bound (fun b -> Value.compare v b) lo
           && in_bound (fun b -> Value.compare b v) hi
         then Row.tid r :: acc
         else acc)
       [] table)

let probe_values =
  Value.Null :: List.init 10 (fun i -> Value.Int i)

let range_cases : (Index.bound option * Index.bound option) list =
  [
    (None, None);
    (Some (Value.Int 3, true), None);
    (Some (Value.Int 3, false), None);
    (None, Some (Value.Int 5, true));
    (None, Some (Value.Int 5, false));
    (Some (Value.Int 2, true), Some (Value.Int 6, false));
    (Some (Value.Int 4, false), Some (Value.Int 4, true));
    (Some (Value.Int 7, true), Some (Value.Int 1, true));  (* empty *)
  ]

let index_consistent table ix =
  let col = Index.column ix in
  Index.entries ix = Table.row_count table
  && List.for_all
       (fun v ->
         List.sort compare (Index.lookup ix v) = heap_eq_tids table col v)
       probe_values
  && Index.lookup ix (Value.Int 999_999) = []
  &&
  match Index.kind ix with
  | Index.Hash -> true
  | Index.Sorted ->
    List.for_all
      (fun (lo, hi) ->
        List.sort compare (Index.range ix ?lo ?hi ())
        = heap_range_tids table col ?lo ?hi ())
      range_cases

(* Row fetches must come back in tid (= heap scan) order. *)
let lookup_order_ok table ix =
  List.for_all
    (fun v ->
      let tids = List.map Row.tid (Table.index_lookup table ix v) in
      tids = List.sort compare tids)
    probe_values

let fresh_table () =
  Table.create ~name:"t"
    ~schema:(Schema.make [ ("a", Ty.Int); ("b", Ty.Int) ])

let prop_indexes_agree_with_heap =
  QCheck.Test.make
    ~name:"indexes agree with a full heap scan under random mutation"
    ~count:500
    (QCheck.make
       ~print:(fun (pre, post) ->
         String.concat " " (List.map print_op pre)
         ^ " | " ^ String.concat " " (List.map print_op post))
       (QCheck.Gen.pair ops_gen ops_gen))
    (fun (pre, post) ->
      let table = fresh_table () in
      ignore (Table.create_index table ~name:"ix_a" ~column:"a" ~kind:Index.Hash);
      ignore (Table.create_index table ~name:"ix_b" ~column:"b" ~kind:Index.Sorted);
      List.iter (apply table) pre;
      (* Mid-stream declaration: built from the rows already present. *)
      ignore
        (Table.create_index table ~name:"ix_a2" ~column:"a" ~kind:Index.Sorted);
      List.iter (apply table) post;
      List.for_all
        (fun ix -> index_consistent table ix && lookup_order_ok table ix)
        (Table.indexes table))

(* Deterministic edges ----------------------------------------------------- *)

let test_build_from_existing () =
  let table = fresh_table () in
  for i = 0 to 9 do
    ignore (Table.insert table [| Value.Int (i mod 3); Value.Int i |])
  done;
  let ix = Table.create_index table ~name:"ix" ~column:"a" ~kind:Index.Hash in
  Alcotest.(check int) "entries = rows" 10 (Index.entries ix);
  Alcotest.(check int) "bucket size" 4 (List.length (Index.lookup ix (Value.Int 0)))

let test_clear_keeps_definition () =
  let table = fresh_table () in
  let ix = Table.create_index table ~name:"ix" ~column:"a" ~kind:Index.Hash in
  ignore (Table.insert table [| Value.Int 1; Value.Int 2 |]);
  Table.clear table;
  Alcotest.(check int) "entries cleared" 0 (Index.entries ix);
  Alcotest.(check bool) "definition survives" true
    (Table.find_index table "ix" <> None);
  ignore (Table.insert table [| Value.Int 1; Value.Int 2 |]);
  Alcotest.(check int) "maintained after clear" 1 (Index.entries ix)

let test_ddl_errors () =
  let table = fresh_table () in
  ignore (Table.create_index table ~name:"ix" ~column:"a" ~kind:Index.Hash);
  Alcotest.check_raises "duplicate name"
    (Errors.Sql_error (Errors.Catalog_error, "index ix already exists on t"))
    (fun () ->
      ignore (Table.create_index table ~name:"ix" ~column:"b" ~kind:Index.Hash));
  Alcotest.(check bool) "unknown column raises" true
    (try
       ignore (Table.create_index table ~name:"ix2" ~column:"zz" ~kind:Index.Hash);
       false
     with Errors.Sql_error _ -> true);
  Alcotest.(check bool) "range on hash raises" true
    (let ix = Option.get (Table.find_index table "ix") in
     try
       ignore (Index.range ix ());
       false
     with Errors.Sql_error _ -> true);
  Table.drop_index table "ix";
  Alcotest.(check bool) "dropped" true (Table.find_index table "ix" = None)

let test_catalog_generation_bumps () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let g0 = Catalog.generation cat in
  ignore
    (Catalog.create_index cat ~name:"ix_emp_dept" ~table:"emp" ~column:"dept"
       ~kind:Index.Hash);
  let g1 = Catalog.generation cat in
  Alcotest.(check bool) "create bumps generation" true (g1 > g0);
  Catalog.drop_index cat "ix_emp_dept";
  Alcotest.(check bool) "drop bumps generation" true (Catalog.generation cat > g1);
  Alcotest.(check bool) "unregistered after drop" false
    (Catalog.mem_index cat "ix_emp_dept")

let test_drop_table_unregisters_indexes () =
  let db = sample_db () in
  let cat = Database.catalog db in
  ignore
    (Catalog.create_index cat ~name:"ix_tmp" ~table:"dept" ~column:"budget"
       ~kind:Index.Sorted);
  Catalog.drop cat "dept";
  Alcotest.(check bool) "index name freed with its table" false
    (Catalog.mem_index cat "ix_tmp")

let test_sql_ddl_roundtrip () =
  let db = sample_db () in
  ignore
    (Database.exec_script db
       "CREATE INDEX ix_emp_sal ON emp USING sorted (salary)");
  let table = Database.table db "emp" in
  Alcotest.(check bool) "created via SQL" true
    (Table.find_index table "ix_emp_sal" <> None);
  ignore (Database.exec_script db "DROP INDEX ix_emp_sal");
  Alcotest.(check bool) "dropped via SQL" true
    (Table.find_index table "ix_emp_sal" = None);
  ignore (Database.exec_script db "DROP INDEX IF EXISTS ix_emp_sal")

(* Hash buckets follow [Value.equal] at every magnitude: a FLOAT probe
   finds its Int twin beyond 1e15 exactly as the sorted index and the
   heap scan do. *)
let test_big_float_probe_finds_int () =
  List.iter
    (fun index_ddl ->
      let db =
        db_of_script
          ("CREATE TABLE t (k INT); INSERT INTO t VALUES (10000000000000000), (2);"
          ^ index_ddl)
      in
      let r = Database.query db "SELECT k FROM t WHERE k = 10000000000000000.0" in
      Alcotest.(check int)
        (Printf.sprintf "one row with %S" index_ddl)
        1
        (List.length r.Executor.out_rows))
    [
      "CREATE INDEX ix ON t USING hash (k)";
      "CREATE INDEX ix ON t USING sorted (k)";
      "";
    ]

(* One submission's increment shares its indexed keys (uid, ts), and
   rollback removes newest-first: each removal must take the bucket head
   in O(1), or rolling back n rows costs O(n^2). *)
let test_rollback_shared_key_is_linear () =
  List.iter
    (fun kind ->
      let name = Index.kind_to_string kind in
      let table = fresh_table () in
      let ix = Table.create_index table ~name:"ix_a" ~column:"a" ~kind in
      let before =
        List.init 3 (fun b -> Table.insert table [| Value.Int 7; Value.Int b |])
      in
      let sp = Table.savepoint table in
      for b = 1 to 100_000 do
        ignore (Table.insert table [| Value.Int 7; Value.Int b |])
      done;
      let t0 = Unix.gettimeofday () in
      Table.rollback_to table sp;
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 1e5-row rollback under 2 s (took %.3f s)" name dt)
        true (dt < 2.0);
      Alcotest.(check (list int))
        (name ^ ": lookup returns the pre-savepoint tids")
        (List.sort compare before)
        (List.sort compare (Index.lookup ix (Value.Int 7)));
      Alcotest.(check int) (name ^ ": entries") 3 (Index.entries ix))
    [ Index.Hash; Index.Sorted ]

(* Compaction drops rows from the middle of a bucket: on the log
   relations every row of one user shares its uid bucket, so unhooking
   the dropped tids one at a time would cost O(k * b). *)
let test_retain_shared_key_is_linear () =
  List.iter
    (fun kind ->
      let name = Index.kind_to_string kind in
      let table = fresh_table () in
      let ix = Table.create_index table ~name:"ix_a" ~column:"a" ~kind in
      let tids =
        List.init 100_000 (fun b -> Table.insert table [| Value.Int 7; Value.Int b |])
      in
      let survivors = List.filteri (fun i _ -> i mod 2 = 0) tids in
      let keep = Hashtbl.create 50_000 in
      List.iter (fun tid -> Hashtbl.replace keep tid ()) survivors;
      let t0 = Unix.gettimeofday () in
      let removed = List.length (Table.retain_tids table keep) in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 1e5-row retain under 2 s (took %.3f s)" name dt)
        true (dt < 2.0);
      Alcotest.(check int) (name ^ ": removed") 50_000 removed;
      Alcotest.(check (list int))
        (name ^ ": lookup returns exactly the retained tids")
        (List.sort compare survivors)
        (List.sort compare (Index.lookup ix (Value.Int 7)));
      Alcotest.(check int) (name ^ ": entries") 50_000 (Index.entries ix))
    [ Index.Hash; Index.Sorted ]

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_indexes_agree_with_heap ]
  @ [
      tc "index built from existing rows" test_build_from_existing;
      tc "clear keeps definitions, drops entries" test_clear_keeps_definition;
      tc "DDL error cases" test_ddl_errors;
      tc "catalog generation bumps on index DDL" test_catalog_generation_bumps;
      tc "dropping a table frees its index names" test_drop_table_unregisters_indexes;
      tc "CREATE/DROP INDEX via SQL" test_sql_ddl_roundtrip;
      tc "big FLOAT probe finds its INT twin" test_big_float_probe_finds_int;
      tc "rollback of a shared-key increment is linear" test_rollback_shared_key_is_linear;
      tc "compaction of a shared-key bucket is linear" test_retain_shared_key_is_linear;
    ]
