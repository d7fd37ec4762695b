(** Differential tests for the plan pipeline.

    The optimized path (bind → {!Optimizer.optimize} → compile) must be
    observationally equivalent to the naive reference path that compiles
    the binder's output directly: identical output columns and an
    identical multiset of (values, lineage set, source-tid set) rows.
    Rows are compared as multisets because the reference path's
    nested-loop joins can emit matches in a different order than the
    optimized hash joins — the same freedom the SQL semantics give an
    unordered query.

    Also here: regression tests pinning the prepared-plan cache's
    invalidation rules (DDL, [set_config], unification's constants-table
    rebuild), which all flow through the single catalog generation
    counter. *)

open Relational
open Datalawyer
open Test_support

(* Random instances of the two-table schema r(a,b), s(a,c) — NULL-free
   integers, so value comparison is total and aggregation deterministic. *)
let table_rows_gen =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 20)
    (QCheck.Gen.pair (QCheck.Gen.int_range 0 5) (QCheck.Gen.int_range 0 5))

let db_of_rows rows_r rows_s =
  let db = Database.create () in
  (* Indexes on the generator's predicate columns, so the 500-case
     property also exercises [Index_eq]/[Index_range] access paths: the
     optimized plans probe them, the reference path never does. *)
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a INT, b INT); CREATE TABLE s (a INT, c INT); \
        CREATE INDEX ix_r_a ON r USING hash (a); \
        CREATE INDEX ix_r_b ON r USING sorted (b); \
        CREATE INDEX ix_s_c ON s USING sorted (c)");
  let r = Database.table db "r" and s = Database.table db "s" in
  List.iter
    (fun (a, b) -> ignore (Table.insert r [| Value.Int a; Value.Int b |]))
    rows_r;
  List.iter
    (fun (a, c) -> ignore (Table.insert s [| Value.Int a; Value.Int c |]))
    rows_s;
  db

(* Random query SQL. The shapes cover every operator the compiler emits:
   filtered scans, equi- and theta-joins, self-joins, subquery sources,
   grouping/HAVING, DISTINCT (ON), ORDER BY, LIMIT, UNION (ALL).
   Order-sensitive forms (LIMIT, DISTINCT ON) stay on single-table
   queries, where both paths scan in the same order. *)
let query_gen_of (k : string QCheck.Gen.t) : string QCheck.Gen.t =
  let open QCheck.Gen in
  let cmp = oneofl [ "="; "<"; "<="; ">"; ">="; "<>" ] in
  let pred_r =
    oneof
      [
        map2 (fun op c -> Printf.sprintf "r.a %s %s" op c) cmp k;
        map2 (fun op c -> Printf.sprintf "r.b %s %s" op c) cmp k;
        map (fun op -> Printf.sprintf "r.a %s r.b" op) cmp;
        map2 (fun op c -> Printf.sprintf "r.a + r.b %s %s" op c) cmp k;
      ]
  in
  let pred_join =
    oneof
      [
        map (fun op -> Printf.sprintf "r.a %s s.a" op) cmp;
        map2 (fun op c -> Printf.sprintf "s.c %s %s" op c) cmp k;
        map2 (fun op c -> Printf.sprintf "r.b + s.c %s %s" op c) cmp k;
      ]
  in
  let wand preds =
    match List.filter (fun p -> p <> "") preds with
    | [] -> ""
    | ps -> " WHERE " ^ String.concat " AND " ps
  in
  let maybe g = oneof [ return ""; g ] in
  oneof
    [
      (* single table: projections, DISTINCT (ON), ORDER BY, LIMIT *)
      ( maybe pred_r >>= fun p ->
        oneofl
          [
            Printf.sprintf "SELECT * FROM r%s" (wand [ p ]);
            Printf.sprintf "SELECT r.b, r.a FROM r%s ORDER BY a DESC" (wand [ p ]);
            Printf.sprintf "SELECT DISTINCT a FROM r%s" (wand [ p ]);
            Printf.sprintf "SELECT DISTINCT ON (a) a, b FROM r%s" (wand [ p ]);
            Printf.sprintf "SELECT a, a * b AS ab FROM r%s ORDER BY a LIMIT 5"
              (wand [ p ]);
          ] );
      (* equi-join (optimizes to a hash join) plus extra predicates *)
      ( pair (maybe pred_r) (maybe pred_join) >>= fun (p1, p2) ->
        oneofl
          [
            Printf.sprintf "SELECT r.a, r.b, s.c FROM r, s%s"
              (wand [ "r.a = s.a"; p1; p2 ]);
            Printf.sprintf "SELECT * FROM r, s%s" (wand [ "r.a = s.a"; p1 ]);
          ] );
      (* theta-join / cross product (stays a nested loop) *)
      ( pair (maybe pred_r) (maybe pred_join) >>= fun (p1, p2) ->
        oneofl
          [
            Printf.sprintf "SELECT r.a, s.c FROM r, s%s" (wand [ "r.b < s.c"; p1 ]);
            Printf.sprintf "SELECT r.a, s.a FROM r, s%s" (wand [ p1; p2 ]);
          ] );
      (* self-join *)
      ( map2
          (fun op c ->
            Printf.sprintf
              "SELECT x.a, y.b FROM r x, r y WHERE x.a = y.a AND x.b %s %s" op c)
          cmp k );
      (* subquery source joined to a base table *)
      ( map2
          (fun c1 c2 ->
            Printf.sprintf
              "SELECT q.a, s.c FROM (SELECT a, b FROM r WHERE a > %s) q, s \
               WHERE q.a = s.a AND s.c < %s"
              c1 c2)
          k k );
      (* aggregation, single table and over a join *)
      ( pair (maybe pred_r) (int_range (-2) 7) >>= fun (p, thr) ->
        oneofl
          [
            Printf.sprintf
              "SELECT a, COUNT(*), SUM(b), MIN(b), MAX(b) FROM r%s GROUP BY a"
              (wand [ p ]);
            Printf.sprintf
              "SELECT a, COUNT(*) AS n FROM r%s GROUP BY a HAVING COUNT(*) > %d \
               ORDER BY a"
              (wand [ p ]) (max 0 thr);
            Printf.sprintf "SELECT COUNT(*), SUM(a + b) FROM r%s" (wand [ p ]);
            Printf.sprintf
              "SELECT r.a, COUNT(*), SUM(s.c) FROM r, s%s GROUP BY r.a"
              (wand [ "r.a = s.a"; p ]);
            Printf.sprintf
              "SELECT COUNT(DISTINCT r.b) FROM r, s%s" (wand [ "r.a = s.a"; p ]);
          ] );
      (* UNION / UNION ALL *)
      ( pair k k >>= fun (c1, c2) ->
        oneofl
          [
            Printf.sprintf
              "SELECT a FROM r WHERE a > %s UNION SELECT a FROM s WHERE a < %s"
              c1 c2;
            Printf.sprintf
              "SELECT a, b FROM r WHERE b <> %s UNION ALL SELECT a, c FROM s \
               WHERE c <> %s"
              c1 c2;
          ] );
    ]

let query_gen = query_gen_of (QCheck.Gen.map string_of_int (QCheck.Gen.int_range (-2) 7))

let case_arb =
  QCheck.make
    ~print:(fun (sql, r, s) ->
      Printf.sprintf "%s\n r=%s s=%s" sql
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) r))
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) s)))
    (QCheck.Gen.triple query_gen table_rows_gen table_rows_gen)

(* Canonical form: multiset of (values, lineage set, source-tid set). *)
let canon (rows : Executor.row_out list) =
  List.sort compare
    (List.map
       (fun (r : Executor.row_out) ->
         ( Array.to_list r.Executor.values,
           List.sort compare r.Executor.lineage,
           List.sort compare r.Executor.src_tids ))
       rows)

let run_both (sql, rows_r, rows_s) =
  let db = db_of_rows rows_r rows_s in
  let cat = Database.catalog db in
  let q = Parser.query sql in
  let opts = { Executor.lineage = true; track_src = true } in
  let o = Executor.run ~opts cat q in
  let u = Executor.run_unoptimized ~opts cat q in
  (o, u)

let prop_diff =
  QCheck.Test.make
    ~name:
      "optimized pipeline = naive reference (rows, lineage, src tids)"
    ~count:500 case_arb
    (fun case ->
      let o, u = run_both case in
      o.Executor.columns = u.Executor.columns
      && canon o.Executor.out_rows = canon u.Executor.out_rows)

(* Vectorized vs row path vs reference ------------------------------------ *)

(* The vectorized executor must be {e bit-identical} to the row path —
   same rows in the same order, same source tids — because the engine
   treats the two as interchangeable per subtree. So unlike [prop_diff],
   no multiset canonicalization: exact output equality. *)
let canon_exact (rows : Executor.row_out list) =
  List.map
    (fun (r : Executor.row_out) ->
      (Array.to_list r.Executor.values, r.Executor.lineage, r.Executor.src_tids))
    rows

(* Generated cells may hold NaN, which polymorphic [=] never equates;
   [compare] treats it as equal to itself. *)
let same a b = compare a b = 0

(* One property per generator: the batch path equals the row path
   exactly, and the row path equals the naive reference as a multiset,
   so both optimized executors answer what the binder's [=] means. *)
let vec_row_ref_prop ~name arb mkdb opts =
  QCheck.Test.make ~name ~count:500 arb (fun (sql, rows_r, rows_s) ->
      let db = mkdb rows_r rows_s in
      let cat = Database.catalog db in
      let q = Parser.query sql in
      let run vectorized =
        Executor.run_compiled (Executor.prepare ~opts ~vectorized cat q)
      in
      let vec = run true and row = run false in
      let reference = Executor.run_unoptimized ~opts cat q in
      vec.Executor.columns = row.Executor.columns
      && row.Executor.columns = reference.Executor.columns
      && same (canon_exact vec.Executor.out_rows) (canon_exact row.Executor.out_rows)
      && same (canon row.Executor.out_rows) (canon reference.Executor.out_rows))

(* NULL-heavy variant of the table generator: a 0 in either column
   becomes NULL (range 0..5, so roughly a third of rows carry one),
   exercising NULL join keys, NULL grouping and three-valued filters
   through the batch operators. *)
let db_of_rows_nullable rows_r rows_s =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a INT, b INT); CREATE TABLE s (a INT, c INT); \
        CREATE INDEX ix_r_a ON r USING hash (a); \
        CREATE INDEX ix_s_c ON s USING sorted (c)");
  let v = function 0 -> Value.Null | n -> Value.Int n in
  let r = Database.table db "r" and s = Database.table db "s" in
  (* one table columnar, one not: joins cross the zero-copy and
     transpose-fallback scan paths in the same plan *)
  ignore (Table.enable_columnar r);
  List.iter (fun (a, b) -> ignore (Table.insert r [| v a; v b |])) rows_r;
  List.iter (fun (a, c) -> ignore (Table.insert s [| v a; v c |])) rows_s;
  db

let vec_props =
  [
    vec_row_ref_prop ~name:"vectorized = row path = reference (default opts)"
      case_arb db_of_rows Executor.default_opts;
    vec_row_ref_prop ~name:"vectorized = row path = reference (NULL-heavy)"
      case_arb db_of_rows_nullable Executor.default_opts;
    vec_row_ref_prop
      ~name:"vectorized = row path = reference (track_src, NULL-heavy)" case_arb
      db_of_rows_nullable
      { Executor.lineage = false; track_src = true };
  ]

(* Typed-column generators ------------------------------------------------ *)

(* Dictionary-string variant: both tables mirrored columnar with TEXT
   join keys, so the same strings intern to different codes per table
   and every equi-join crosses two distinct dictionaries. [hi] sets the
   cardinality of the string alphabet: low (4) gives dense overlap
   between the two dictionaries, high (40) makes most codes absent from
   the other side — the remap's "matches nothing" case. A 0 draw
   becomes NULL (code -1). *)
let str_rows_gen hi =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 20)
    (QCheck.Gen.pair (QCheck.Gen.int_range 0 hi) (QCheck.Gen.int_range 0 5))

let db_of_rows_str rows_r rows_s =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a TEXT, b INT); CREATE TABLE s (a TEXT, c INT); \
        CREATE INDEX ix_r_a ON r USING hash (a)");
  let r = Database.table db "r" and s = Database.table db "s" in
  ignore (Table.enable_columnar r);
  ignore (Table.enable_columnar s);
  let v = function 0 -> Value.Null | n -> Value.Str (Printf.sprintf "k%02d" n) in
  List.iter (fun (a, b) -> ignore (Table.insert r [| v a; Value.Int b |])) rows_r;
  List.iter (fun (a, c) -> ignore (Table.insert s [| v a; Value.Int c |])) rows_s;
  db

(* String predicates: constants drawn wider than the low-cardinality
   alphabet, so Eq/Neq/ordering against a string no dictionary ever
   interned occur regularly (the compile-time absent-code fast path). *)
let str_query_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  let kc = map (fun n -> Printf.sprintf "'k%02d'" n) (int_range 1 45) in
  let cmp = oneofl [ "="; "<"; "<="; ">"; ">="; "<>" ] in
  oneof
    [
      map2
        (fun op c -> Printf.sprintf "SELECT * FROM r WHERE r.a %s %s" op c)
        cmp kc;
      map
        (fun c -> Printf.sprintf "SELECT DISTINCT a FROM r WHERE r.a <> %s" c)
        kc;
      map2
        (fun op c ->
          Printf.sprintf "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND s.c %s %d"
            op c)
        cmp (int_range (-2) 7);
      return "SELECT r.b, s.a FROM r, s WHERE r.a = s.a";
      map
        (fun c ->
          Printf.sprintf "SELECT r.b FROM r, s WHERE r.a = s.a AND r.a >= %s" c)
        kc;
      return "SELECT a, COUNT(*), SUM(b) FROM r GROUP BY a";
      return "SELECT a FROM r UNION SELECT a FROM s";
    ]

let print_case (sql, r, s) =
  let rows l =
    String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) l)
  in
  Printf.sprintf "%s\n r=%s s=%s" sql (rows r) (rows s)

let str_case_arb hi =
  QCheck.make ~print:print_case
    (QCheck.Gen.triple str_query_gen (str_rows_gen hi) (str_rows_gen hi))

(* Mixed-type variant: the second column of each table is declared FLOAT
   but receives [Value.Int] for even draws, demoting the typed float
   column to the boxed Mixed fallback at runtime. The batch kernels must
   route it through the same [Eval.compare_op] dispatch as the row path,
   including Int/Float cross-type equality against the generator's
   integer constants. Reuses the integer [query_gen] shapes. *)
let db_of_rows_mixed rows_r rows_s =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a INT, b FLOAT); CREATE TABLE s (a INT, c FLOAT); \
        CREATE INDEX ix_r_a ON r USING hash (a); \
        CREATE INDEX ix_r_b ON r USING sorted (b); \
        CREATE INDEX ix_s_c ON s USING sorted (c)");
  let r = Database.table db "r" and s = Database.table db "s" in
  ignore (Table.enable_columnar r);
  ignore (Table.enable_columnar s);
  let v n = if n mod 2 = 0 then Value.Int n else Value.Float (float_of_int n) in
  List.iter
    (fun (a, b) -> ignore (Table.insert r [| Value.Int a; v b |]))
    rows_r;
  List.iter
    (fun (a, c) -> ignore (Table.insert s [| Value.Int a; v c |]))
    rows_s;
  db

(* FLOAT variant: cells drawn from NULL, NaN, signed zeros and integral
   floats beyond 1e15 beside their Int twins (which demote the typed
   column to Mixed). Sums of these values are exact in any order, so
   float SUM over a join cannot differ by summation order alone. Query
   constants name the same magnitudes, as ints and as floats. *)
let float_pool =
  let big = [ 1e16; 1152921504606846976. ] in
  [ Value.Null; Value.Float ((1e308 *. 10.0) -. (1e308 *. 10.0)) ]
  @ [ Value.Float (-0.0); Value.Float 0.0; Value.Int 0 ]
  @ List.concat_map
      (fun f -> [ Value.Float f; Value.Int (int_of_float f) ])
      (big @ List.map Float.neg big)

let float_rows_gen =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 20)
    (QCheck.Gen.pair (QCheck.Gen.oneofl float_pool) (QCheck.Gen.oneofl float_pool))

let float_query_gen =
  query_gen_of
    (QCheck.Gen.oneofl
       [
         "0";
         "0.0";
         "-0.0";
         "10000000000000000";
         "10000000000000000.0";
         "-10000000000000000.0";
         "1152921504606846976";
         "1152921504606846976.0";
       ])

let float_case_arb =
  let rows l =
    String.concat ";"
      (List.map
         (fun (a, b) -> Printf.sprintf "(%s,%s)" (Value.to_sql a) (Value.to_sql b))
         l)
  in
  QCheck.make
    ~print:(fun (sql, r, s) -> Printf.sprintf "%s\n r=%s s=%s" sql (rows r) (rows s))
    (QCheck.Gen.triple float_query_gen float_rows_gen float_rows_gen)

let db_of_rows_float rows_r rows_s =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a FLOAT, b FLOAT); CREATE TABLE s (a FLOAT, c FLOAT); \
        CREATE INDEX ix_r_a ON r USING hash (a); \
        CREATE INDEX ix_r_b ON r USING sorted (b); \
        CREATE INDEX ix_s_c ON s USING sorted (c)");
  let r = Database.table db "r" and s = Database.table db "s" in
  ignore (Table.enable_columnar r);
  ignore (Table.enable_columnar s);
  List.iter (fun (a, b) -> ignore (Table.insert r [| a; b |])) rows_r;
  List.iter (fun (a, c) -> ignore (Table.insert s [| a; c |])) rows_s;
  db

let vec_typed_props =
  [
    vec_row_ref_prop
      ~name:"vectorized = row path = reference (low-cardinality dict strings)"
      (str_case_arb 4) db_of_rows_str
      { Executor.lineage = false; track_src = true };
    vec_row_ref_prop
      ~name:"vectorized = row path = reference (high-cardinality dict strings)"
      (str_case_arb 40) db_of_rows_str Executor.default_opts;
    vec_row_ref_prop
      ~name:"vectorized = row path = reference (Mixed demotion, INT into FLOAT)"
      case_arb db_of_rows_mixed Executor.default_opts;
    vec_row_ref_prop
      ~name:"vectorized = row path = reference (NULL, NaN, -0.0, big FLOAT)"
      float_case_arb db_of_rows_float Executor.default_opts;
  ]

(* Adapter pins: deterministic cases for each row<->batch boundary. *)

let check_vec_exact ?(opts = Executor.default_opts) db sql =
  let cat = Database.catalog db in
  let q = Parser.query sql in
  let vec = Executor.run_compiled (Executor.prepare ~opts ~vectorized:true cat q) in
  let row = Executor.run_compiled (Executor.prepare ~opts ~vectorized:false cat q) in
  Alcotest.(check (list string)) "columns" row.Executor.columns vec.Executor.columns;
  Alcotest.(check bool) "rows exact" true
    (canon_exact vec.Executor.out_rows = canon_exact row.Executor.out_rows);
  vec

(* ORDER BY an aggregate sorts a grouped query by the aggregate's value,
   on both pipelines (the key binds in the group context). *)
let test_order_by_aggregate () =
  let db = sample_db () in
  List.iter
    (fun (sql, expected) ->
      let vec = check_vec_exact db sql in
      Alcotest.(check (list string)) sql expected
        (List.map
           (fun (r : Executor.row_out) -> Value.to_string r.Executor.values.(0))
           vec.Executor.out_rows))
    [
      ("SELECT dept, SUM(salary) FROM emp GROUP BY dept ORDER BY SUM(salary)",
       [ "mgmt"; "ops"; "eng" ]);
      ("SELECT dept, MIN(salary) FROM emp GROUP BY dept ORDER BY MIN(salary) DESC",
       [ "mgmt"; "eng"; "ops" ]);
    ]

(* Subquery slots compile on the row path and adapt into the batch join;
   the surrounding hash join and DISTINCT run columnar. *)
let test_vec_sub_slot_adapter () =
  let db = sample_db () in
  let vec =
    check_vec_exact db
      "SELECT q.name, d.budget FROM (SELECT name, dept FROM emp WHERE salary \
       > 75) q, dept d WHERE q.dept = d.dname ORDER BY q.name"
  in
  Alcotest.(check bool) "sub-slot join returned rows" true
    (vec.Executor.out_rows <> [])

(* Index probes transpose into batches: probe counters advance and the
   NULL-key gate matches nothing, exactly like the row path. *)
let test_vec_index_adapter () =
  let db = sample_db () in
  ignore
    (Database.exec_script db "CREATE INDEX ix_emp_dept ON emp USING hash (dept)");
  let probes0 = Atomic.get Executor.index_probes in
  let vec =
    check_vec_exact db "SELECT e.name FROM emp e WHERE e.dept = 'eng'"
  in
  Alcotest.(check bool) "vectorized run probed the index" true
    (Atomic.get Executor.index_probes > probes0);
  Alcotest.(check bool) "probe returned rows" true (vec.Executor.out_rows <> []);
  let empty =
    check_vec_exact db "SELECT e.name FROM emp e WHERE e.dept = NULL"
  in
  Alcotest.(check int) "NULL key matches nothing" 0
    (List.length empty.Executor.out_rows)

(* The batch shared-scan cache: two plans sharing a scan prefix under
   one batch cache must materialize once and agree with the row path. *)
let test_vec_shared_batch_cache () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let shared = Shared_cache.create () in
  let opts = Executor.default_opts in
  let prep sql =
    Executor.prepare ~opts ~vectorized:true ~shared cat (Parser.query sql)
  in
  let q1 = prep "SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname" in
  let q2 = prep "SELECT e.salary FROM emp e, dept d WHERE e.dept = d.dname" in
  let r1 = Executor.run_compiled q1 and r2 = Executor.run_compiled q2 in
  let hits, misses = Shared_cache.stats shared in
  Alcotest.(check bool) "batch cache materialized" true (misses > 0);
  Alcotest.(check bool) "batch cache reused" true (hits > 0);
  let row1 =
    Executor.run ~opts cat
      (Parser.query "SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname")
  in
  Alcotest.(check bool) "shared batch = row path" true
    (canon_exact r1.Executor.out_rows = canon_exact row1.Executor.out_rows);
  Alcotest.(check bool) "second plan returned rows" true
    (r2.Executor.out_rows <> [])

(* Which scan slots share is decided while the batch plan compiles:
   the same pushed-down filter shares one materialization, a different
   constant does not, a source-tracking plan shares the untracked
   plans' entry, and delta-watermark scans and clock-reading ([Exec])
   filters never touch the cache. *)
let test_vec_shared_scan_rule () =
  let db =
    db_of_script
      "CREATE TABLE users (uid INT, q TEXT); INSERT INTO users VALUES \
       (1, 'a'), (2, 'b'), (1, 'c'), (3, 'd')"
  in
  let cat = Database.catalog db in
  let shared = Shared_cache.create () in
  let run ?(opts = Executor.default_opts) sql =
    Executor.run_compiled
      (Executor.prepare ~opts ~vectorized:true ~shared cat (Parser.query sql))
  in
  let stats () = Shared_cache.stats shared in
  let n r = List.length r.Executor.out_rows in
  let r1 = run "SELECT u.q FROM users u WHERE u.uid = 1" in
  let r2 = run "SELECT DISTINCT u.uid FROM users u WHERE u.uid = 1" in
  Alcotest.(check (pair int int)) "same filter: one materialization" (1, 1)
    (stats ());
  Alcotest.(check (pair int int)) "shared rows" (2, 1) (n r1, n r2);
  let r3 = run "SELECT u.q FROM users u WHERE u.uid = 2" in
  Alcotest.(check (pair int int)) "other constant: own materialization" (1, 2)
    (stats ());
  Alcotest.(check int) "its own rows" 1 (n r3);
  let tracked =
    run ~opts:{ Executor.default_opts with Executor.track_src = true }
      "SELECT u.q FROM users u WHERE u.uid = 1"
  in
  Alcotest.(check int) "tracked rows" 2 (n tracked);
  (* A cached batch always carries source tids: the tracked run reads
     r1's entry (a hit), relabelled to its own slot, and its tids are
     the row path's. *)
  Alcotest.(check (pair int int)) "track_src shares r1's entry" (2, 2)
    (stats ());
  let src r = List.map (fun (o : Executor.row_out) -> o.Executor.src_tids) r.Executor.out_rows in
  Alcotest.(check (list (list (pair int int)))) "shared source tids = row path"
    (src
       (Executor.run ~opts:{ Executor.default_opts with Executor.track_src = true } cat
          (Parser.query "SELECT u.q FROM users u WHERE u.uid = 1")))
    (src tracked);
  (* Hand-built plans: one slot's access path or filter swapped. *)
  let plan sql f =
    match Optimizer.optimize cat (Plan.of_query cat (Parser.query sql)) with
    | Plan.Select sp -> Plan.Select (f sp)
    | Plan.Union _ -> Alcotest.fail "select expected"
  in
  let run_plan p =
    n (Executor.run_compiled (Compile_batch.compile cat ~shared Executor.default_opts p))
  in
  let p =
    plan "SELECT u.q FROM users u" (fun sp ->
        let slots = Array.copy sp.Plan.slots in
        slots.(0) <- { slots.(0) with Plan.source = Plan.Scan ("users", Plan.Delta) };
        { sp with Plan.slots })
  in
  ignore (run_plan p);
  ignore (run_plan p);
  Alcotest.(check (pair int int)) "Delta bypasses the cache" (2, 2) (stats ());
  let bound = ref (Value.Int 1) in
  let p =
    plan "SELECT u.q FROM users u" (fun sp ->
        let scan_preds = Array.copy sp.Plan.scan_preds in
        scan_preds.(0) <-
          [ Plan.Binop (Ast.Gt, Plan.Field 0, Plan.Exec (fun () -> !bound)) ];
        { sp with Plan.scan_preds })
  in
  Alcotest.(check int) "uid > 1" 2 (run_plan p);
  bound := Value.Int 2;
  Alcotest.(check int) "uid > 2 follows the Exec value" 1 (run_plan p);
  Alcotest.(check (pair int int)) "Exec filter bypasses the cache" (2, 2)
    (stats ());
  (* The row route has no shared cache: [shared_scans] only acts through
     the vectorized executor. *)
  let engine_stats vectorized =
    let db = sample_db () in
    let e =
      Engine.create
        ~config:
          {
            Engine.default_config with
            Engine.vectorized;
            domains = 1;
            (* Increment probes never share, nor does a TI-rewritten
               partial: its clock-eliminated plan pins every log slot
               to the clock. Unpinned partials do. *)
            improved_partial = false;
            time_independent = false;
          }
        db
    in
    List.iter
      (fun (name, sql) -> ignore (Engine.add_policy e ~name sql))
      [
        ("a", "SELECT DISTINCT 'a' FROM users u, schema s WHERE u.ts = s.ts AND s.irid = 'never'");
        ("b", "SELECT DISTINCT 'b' FROM users u, provenance p WHERE u.ts = p.ts AND p.irid = 'never'");
      ];
    for _ = 1 to 2 do
      ignore (Engine.submit e ~uid:1 "SELECT e.name FROM emp e WHERE e.id = 1")
    done;
    let s = Test_support.(counter e "shared-scan-hits", counter e "shared-scan-misses") in
    Engine.close e;
    s
  in
  Alcotest.(check (pair int int)) "row route: no shared traffic" (0, 0)
    (engine_stats false);
  Alcotest.(check bool) "vectorized route shares" true
    (fst (engine_stats true) > 0)

(* Cached against uncached ------------------------------------------------ *)

(* A mutation between two executions against one long-lived shared
   cache: DML on either table (r has a columnar mirror, s has none), a
   savepoint whose tentative rows are checked and then rolled back (the
   engine's tentative increments), an index (DDL), or s dropped and
   created again under the same name. *)
type mutation =
  | Insert of bool * int * int  (** into r ([true]) or s *)
  | Delete of bool * int  (** rows whose [a] is the value *)
  | Update of int * int  (** [UPDATE r SET b = x WHERE a = y] *)
  | Tentative of bool * (int * int) list
  | Create_index of bool
  | Recreate_s of (int * int) list

let mutation_gen =
  let open QCheck.Gen in
  let v = int_range 0 5 in
  frequency
    [
      (3, map3 (fun t a b -> Insert (t, a, b)) bool v v);
      (2, map2 (fun t a -> Delete (t, a)) bool v);
      (2, map2 (fun x y -> Update (x, y)) v v);
      (2, map2 (fun t rows -> Tentative (t, rows)) bool (list_size (int_range 1 4) (pair v v)));
      (1, map (fun t -> Create_index t) bool);
      (1, map (fun rows -> Recreate_s rows) (list_size (int_range 0 8) (pair v v)));
    ]

let show_mutation = function
  | Insert (t, a, b) -> Printf.sprintf "insert %s (%d,%d)" (if t then "r" else "s") a b
  | Delete (t, a) -> Printf.sprintf "delete %s a=%d" (if t then "r" else "s") a
  | Update (x, y) -> Printf.sprintf "update r b=%d where a=%d" x y
  | Tentative (t, rows) ->
    Printf.sprintf "tentative %s %d rows" (if t then "r" else "s") (List.length rows)
  | Create_index t -> Printf.sprintf "index %s" (if t then "r.b" else "s.a")
  | Recreate_s rows -> Printf.sprintf "recreate s with %d rows" (List.length rows)

(* The first two fixed queries join r and s in both FROM orders, so a
   tracked and an untracked run read one entry of each table through
   different slot indexes. The others build on s's entry under other
   keys: another column, a boxed key (the probe side is computed) and a
   two-column key. *)
let fixed_queries =
  [
    "SELECT r.b, s.c FROM r, s WHERE r.a = s.a";
    "SELECT s.c, r.b FROM s, r WHERE s.a = r.a";
    "SELECT r.a, s.a FROM r, s WHERE r.b = s.c";
    "SELECT r.b, s.c FROM r, s WHERE r.a + 1 = s.a";
    "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b = s.c";
  ]

let cached_case_arb =
  QCheck.make
    ~print:(fun (qs, r, s, ms) ->
      Printf.sprintf "%s\n r=%d rows s=%d rows\n %s" (String.concat "\n" qs) (List.length r)
        (List.length s)
        (String.concat "; " (List.map show_mutation ms)))
    QCheck.Gen.(
      quad (list_size (int_range 1 3) query_gen) table_rows_gen table_rows_gen
        (list_size (int_range 1 6) mutation_gen))

(* Every check runs each query untracked and tracked, through the one
   cache and through a fresh uncached compile: rows, row order and
   source tids must agree, or both must fail alike. The cached runs fan
   out over the shared domain pool when DL_DOMAINS asks for more than
   one domain, so pool domains materialize and hash entries
   concurrently. *)
let prop_cached_vs_uncached =
  QCheck.Test.make ~name:"shared cache = uncached across mutations (rows, order, src tids)"
    ~count:150 cached_case_arb (fun (qs, rows_r, rows_s, mutations) ->
      let db = db_of_rows_nullable rows_r rows_s in
      let cat = Database.catalog db in
      let shared = Shared_cache.create () in
      let runs =
        List.concat_map
          (fun sql ->
            let q = Parser.query sql in
            List.map
              (fun track_src -> (q, { Executor.lineage = false; track_src }))
              [ false; true ])
          (qs @ fixed_queries)
      in
      let outcome ?shared (q, opts) =
        match Executor.run_compiled (Executor.prepare ~opts ~vectorized:true ?shared cat q) with
        | r -> Ok (canon_exact r.Executor.out_rows)
        | exception e -> Error (Printexc.to_string e)
      in
      let map f xs =
        if Engine.default_domains > 1 then
          Parallel.Pool.map (Parallel.Pool.shared ~workers:(Engine.default_domains - 1)) f xs
        else List.map f xs
      in
      let check () =
        let cached = map (outcome ~shared) runs in
        List.for_all2 (fun run c -> same (outcome run) c) runs cached
      in
      let exec sql = ignore (Database.exec db sql) in
      let index = ref 0 in
      let mutate = function
        | Insert (t, a, b) ->
          exec (Printf.sprintf "INSERT INTO %s VALUES (%d, %d)" (if t then "r" else "s") a b)
        | Delete (t, a) ->
          exec (Printf.sprintf "DELETE FROM %s WHERE a = %d" (if t then "r" else "s") a)
        | Update (x, y) -> exec (Printf.sprintf "UPDATE r SET b = %d WHERE a = %d" x y)
        | Tentative _ | Recreate_s _ -> ()
        | Create_index t ->
          incr index;
          exec
            (Printf.sprintf "CREATE INDEX ix_diff_%d ON %s USING hash (%s)" !index
               (if t then "r" else "s")
               (if t then "b" else "a"))
      in
      check ()
      && List.for_all
           (fun m ->
             match m with
             | Tentative (t, rows) ->
               let table = Database.table db (if t then "r" else "s") in
               let sp = Table.savepoint table in
               List.iter
                 (fun (a, b) -> ignore (Table.insert table [| Value.Int a; Value.Int b |]))
                 rows;
               let ok = check () in
               Table.rollback_to table sp;
               ok && check ()
             | Recreate_s rows ->
               exec "DROP TABLE s";
               exec "CREATE TABLE s (a INT, c INT)";
               let s = Database.table db "s" in
               List.iter (fun (a, c) -> ignore (Table.insert s [| Value.Int a; Value.Int c |])) rows;
               check ()
             | m ->
               mutate m;
               check ())
           mutations)

(* Entries outlive an admission, so a re-plan (a catalog generation
   bump) must not leave the old generation's entries behind: the first
   miss under the new generation drops them. *)
let test_shared_drops_stale_generations () =
  let db =
    db_of_script
      "CREATE TABLE r (a INT, b INT); CREATE TABLE s (a INT, c INT); INSERT INTO r VALUES \
       (1, 2); INSERT INTO s VALUES (1, 3)"
  in
  let cat = Database.catalog db in
  let shared = Shared_cache.create () in
  let run sql =
    ignore
      (Executor.run_compiled
         (Executor.prepare ~vectorized:true ~shared cat (Parser.query sql)))
  in
  run "SELECT r.b, s.c FROM r, s WHERE r.a = s.a";
  run "SELECT s.c FROM s WHERE s.a = 1";
  Alcotest.(check int) "r, s and the filtered s" 3 (Shared_cache.size shared);
  (* Re-plan: the engine bumps the generation on every new plan. *)
  Catalog.touch cat;
  run "SELECT r.b FROM r";
  Alcotest.(check int) "first re-plan: only r's new entry" 1 (Shared_cache.size shared);
  run "SELECT s.c FROM s WHERE s.a = 1";
  Catalog.touch cat;
  run "SELECT s.c FROM s WHERE s.a = 1";
  Alcotest.(check int) "second re-plan: only the filtered s" 1 (Shared_cache.size shared)

(* Past 2^53 adjacent ints share one float image. Grouping identity is
   exact, so [Float 2^53] groups with [Int 2^53] only, whichever value
   arrives first, and the typed batch kernels compare exactly too. *)
let test_int_float_beyond_2_53 () =
  List.iter
    (fun (order, expected) ->
      let db =
        db_of_script
          ("CREATE TABLE g (x FLOAT); INSERT INTO g VALUES "
          ^ String.concat ", " (List.map (Printf.sprintf "(%s)") order))
      in
      let r =
        check_vec_exact db "SELECT x, COUNT(*) FROM g GROUP BY x ORDER BY x"
      in
      (* A group's first arrival represents it. *)
      let show = function
        | Value.Float f -> Printf.sprintf "%.1f" f
        | v -> Value.to_string v
      in
      Alcotest.(check (list string))
        (String.concat " " order)
        expected
        (List.map
           (fun (row : Executor.row_out) ->
             String.concat " " (Array.to_list (Array.map show row.Executor.values)))
           r.Executor.out_rows))
    [
      ( [ "9007199254740992"; "9007199254740992.0"; "9007199254740993" ],
        [ "9007199254740992 2"; "9007199254740993 1" ] );
      ( [ "9007199254740993"; "9007199254740992.0"; "9007199254740992" ],
        [ "9007199254740992.0 2"; "9007199254740993 1" ] );
    ];
  let db =
    db_of_script
      "CREATE TABLE h (i INT, f FLOAT); INSERT INTO h VALUES \
       (9007199254740993, 9007199254740992.0), (9007199254740992, 9007199254740992.0)"
  in
  ignore (Table.enable_columnar (Database.table db "h"));
  List.iter
    (fun (sql, n) ->
      let r = check_vec_exact db sql in
      Alcotest.(check int) sql n (List.length r.Executor.out_rows))
    [
      ("SELECT i FROM h WHERE i > 9007199254740992.0", 1);
      ("SELECT i FROM h WHERE i = 9007199254740992.0", 1);
      ("SELECT i FROM h WHERE f < 9007199254740993", 2);
      ("SELECT i FROM h WHERE i > f", 1);
      ("SELECT i FROM h WHERE f = i", 1);
    ]

(* Columnar mirror stays in sync through savepoint rollback — the
   engine's tentative-increment pattern — so a vectorized re-run after a
   rollback must not see the discarded rows. *)
let test_vec_columnar_rollback_sync () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let emp = Database.table db "emp" in
  ignore (Table.enable_columnar emp);
  let count () =
    let r =
      Executor.run_compiled
        (Executor.prepare ~vectorized:true cat
           (Parser.query "SELECT COUNT(*) FROM emp"))
    in
    match r.Executor.out_rows with
    | [ { Executor.values = [| Value.Int n |]; _ } ] -> n
    | _ -> Alcotest.fail "count expected"
  in
  let n0 = count () in
  let sp = Table.savepoint emp in
  ignore
    (Table.insert emp [| Value.Int 99; Value.Str "x"; Value.Str "eng"; Value.Int 1 |]);
  Alcotest.(check int) "tentative row visible" (n0 + 1) (count ());
  Table.rollback_to emp sp;
  Alcotest.(check int) "rollback truncates the mirror" n0 (count ())

(* Cross-dictionary join remap: r and s are mirrored separately, so the
   same strings intern to different codes in each table's dictionary,
   and the probe side carries a string the build side never interned —
   the absent-code case the remap must resolve to "matches nothing". *)
let test_vec_cross_dict_join () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a TEXT, b INT); CREATE TABLE s (a TEXT, c INT)");
  let r = Database.table db "r" and s = Database.table db "s" in
  ignore (Table.enable_columnar r);
  ignore (Table.enable_columnar s);
  List.iter
    (fun (a, b) -> ignore (Table.insert r [| Value.Str a; Value.Int b |]))
    [ ("beta", 1); ("alpha", 2); ("beta", 3); ("gamma", 4) ];
  List.iter
    (fun (a, c) -> ignore (Table.insert s [| Value.Str a; Value.Int c |]))
    [ ("delta", 10); ("beta", 20); ("alpha", 30); ("beta", 40) ];
  let dict_of t =
    match Table.columnar t with
    | Some store -> (
      match Column.view store 0 with
      | Column.V_str (_, d) -> d
      | _ -> Alcotest.fail "TEXT column expected dictionary-coded")
    | None -> Alcotest.fail "columnar mirror expected"
  in
  let dr = dict_of r and ds = dict_of s in
  Alcotest.(check (option int)) "'beta' coded 0 in r" (Some 0)
    (Column.dict_find dr "beta");
  Alcotest.(check (option int)) "'beta' coded 1 in s" (Some 1)
    (Column.dict_find ds "beta");
  Alcotest.(check (option int)) "'delta' absent from r's dict" None
    (Column.dict_find dr "delta");
  let vec =
    check_vec_exact db
      ~opts:{ Executor.lineage = false; track_src = true }
      "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
  in
  Alcotest.(check int) "remapped join rows" 5 (List.length vec.Executor.out_rows)

(* Savepoint rollback truncates dictionary-coded rows but keeps the
   interned strings, so codes assigned before the savepoint stay valid
   and a later re-insert reuses the surviving entry. *)
let test_vec_dict_rollback () =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE t (a TEXT, b INT)");
  let t = Database.table db "t" in
  let store = Table.enable_columnar t in
  List.iter
    (fun (a, b) -> ignore (Table.insert t [| Value.Str a; Value.Int b |]))
    [ ("read", 1); ("write", 2); ("read", 3) ];
  let sp = Table.savepoint t in
  ignore (Table.insert t [| Value.Str "export"; Value.Int 4 |]);
  let vec = check_vec_exact db "SELECT b FROM t WHERE a = 'export'" in
  Alcotest.(check int) "tentative string row visible" 1
    (List.length vec.Executor.out_rows);
  Table.rollback_to t sp;
  let gone = check_vec_exact db "SELECT b FROM t WHERE a = 'export'" in
  Alcotest.(check int) "rolled-back string matches nothing" 0
    (List.length gone.Executor.out_rows);
  let _, _, entries = Column.layout_stats store in
  Alcotest.(check int) "dictionary keeps the rolled-back entry" 3 entries;
  let keep = check_vec_exact db "SELECT b FROM t WHERE a = 'read'" in
  Alcotest.(check int) "pre-savepoint codes still valid" 2
    (List.length keep.Executor.out_rows);
  ignore (Table.insert t [| Value.Str "export"; Value.Int 5 |]);
  let again = check_vec_exact db "SELECT b FROM t WHERE a = 'export'" in
  (match again.Executor.out_rows with
  | [ { Executor.values = [| Value.Int 5 |]; _ } ] -> ()
  | _ -> Alcotest.fail "re-inserted string should match the surviving code");
  let _, _, entries' = Column.layout_stats store in
  Alcotest.(check int) "re-insert interns nothing new" 3 entries'

(* Deletion drops dead positions from the mirror in place: codes stay
   valid (the dictionary keeps the dead string) and the batch path agrees
   with the row path over the compacted store. An in-place update
   rebuilds the mirror from the heap, and the dictionaries come out
   dense (entries only for surviving strings). *)
let test_vec_compaction_dense_codes () =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE t (a TEXT, b INT)");
  let t = Database.table db "t" in
  let store = Table.enable_columnar t in
  List.iter
    (fun (a, b) -> ignore (Table.insert t [| Value.Str a; Value.Int b |]))
    [ ("stale", 1); ("keep", 2); ("stale", 3); ("also", 4); ("keep", 5) ];
  let _, _, entries0 = Column.layout_stats store in
  Alcotest.(check int) "three strings interned" 3 entries0;
  ignore (Table.delete_where t (fun row -> Row.cell row 0 = Value.Str "stale"));
  let _, _, entries1 = Column.layout_stats store in
  Alcotest.(check int) "deletion keeps the dictionary" 3 entries1;
  let vec = check_vec_exact db "SELECT a, b FROM t WHERE a >= 'keep' ORDER BY b" in
  Alcotest.(check int) "ordering over filtered codes" 2
    (List.length vec.Executor.out_rows);
  ignore
    (Table.update_where t
       (fun row -> Row.cell row 1 = Value.Int 4)
       (fun cells -> [| cells.(0); Value.Int 6 |]));
  let _, _, entries2 = Column.layout_stats store in
  Alcotest.(check int) "rebuild drops dead dictionary entries" 2 entries2;
  let vec = check_vec_exact db "SELECT a, b FROM t WHERE a >= 'keep' ORDER BY b" in
  Alcotest.(check int) "ordering over rebuilt codes" 2
    (List.length vec.Executor.out_rows);
  (* Deletions that leave the dictionary mostly dead re-intern it. *)
  for k = 1 to 200 do
    ignore (Table.insert t [| Value.Str (Printf.sprintf "s%03d" k); Value.Int k |])
  done;
  ignore
    (Table.delete_where t (fun row ->
         match Row.cell row 1 with Value.Int k -> k > 10 | _ -> false));
  let _, _, entries3 = Column.layout_stats store in
  Alcotest.(check int) "mostly dead dictionary re-interned" 12 entries3;
  ignore (check_vec_exact db "SELECT a, b FROM t WHERE a >= 'keep' ORDER BY b")

(* An INT value stored into a FLOAT column demotes that column to the
   boxed Mixed layout, and the stored value must round-trip as
   [Value.Int] through the batch path (not coerced to Float). Deleting
   the stray Int re-promotes the column in place; demoted again, it is
   also re-promoted by the heap-refill rebuild of an update. *)
let test_vec_mixed_demotion () =
  let db = Database.create () in
  ignore (Database.exec_script db "CREATE TABLE t (a INT, f FLOAT)");
  let t = Database.table db "t" in
  let store = Table.enable_columnar t in
  ignore (Table.insert t [| Value.Int 1; Value.Float 1.5 |]);
  let typed0, mixed0, _ = Column.layout_stats store in
  Alcotest.(check (pair int int)) "both columns typed before demotion" (2, 0)
    (typed0, mixed0);
  ignore (Table.insert t [| Value.Int 2; Value.Int 7 |]);
  let typed1, mixed1, _ = Column.layout_stats store in
  Alcotest.(check (pair int int)) "FLOAT column demoted to Mixed" (1, 1)
    (typed1, mixed1);
  let vec = check_vec_exact db "SELECT f FROM t WHERE f > 1 ORDER BY f" in
  (match vec.Executor.out_rows with
  | [ { Executor.values = [| v1 |]; _ }; { Executor.values = [| v2 |]; _ } ] ->
    Alcotest.(check bool) "Float cell survives" true (v1 = Value.Float 1.5);
    Alcotest.(check bool) "Int cell round-trips unboxed" true (v2 = Value.Int 7)
  | _ -> Alcotest.fail "two rows expected");
  ignore (Table.delete_where t (fun row -> Row.cell row 1 = Value.Int 7));
  let typed2, mixed2, _ = Column.layout_stats store in
  Alcotest.(check (pair int int)) "deletion re-promotes the demoted column"
    (2, 0) (typed2, mixed2);
  ignore (check_vec_exact db "SELECT f FROM t WHERE f > 1 ORDER BY f");
  (* A deletion that keeps the stray Int keeps the Mixed layout. *)
  ignore (Table.insert t [| Value.Int 3; Value.Int 8 |]);
  ignore (Table.insert t [| Value.Int 4; Value.Float 9.5 |]);
  ignore (Table.delete_where t (fun row -> Row.cell row 0 = Value.Int 4));
  let typed4, mixed4, _ = Column.layout_stats store in
  Alcotest.(check (pair int int)) "deletion keeps a needed Mixed layout" (1, 1)
    (typed4, mixed4);
  ignore (check_vec_exact db "SELECT f FROM t WHERE f > 1 ORDER BY f");
  ignore
    (Table.update_where t
       (fun row -> Row.cell row 0 = Value.Int 3)
       (fun cells -> [| cells.(0); Value.Float 2.5 |]));
  let typed3, mixed3, _ = Column.layout_stats store in
  Alcotest.(check (pair int int)) "rebuild re-promotes the demoted column"
    (2, 0) (typed3, mixed3)

(* Engine-level differential: with the vectorized executor on and off,
   the same policy workload must produce identical verdicts, violation
   messages and result rows. *)
let test_vec_engine_differential () =
  let run vectorized =
    let db = sample_db () in
    let e =
      Engine.create
        ~config:{ Engine.default_config with Engine.vectorized; domains = 1 }
        db
    in
    ignore
      (Engine.add_policy e ~name:"no_mgmt"
         "SELECT DISTINCT 'mgmt data is off limits' FROM users u, emp g \
          WHERE u.uid = g.id AND g.dept = 'mgmt'");
    let render (uid, sql) =
      match Engine.submit e ~uid sql with
      | Engine.Accepted (r, _) ->
        "A["
        ^ String.concat ";"
            (List.map
               (fun (ro : Executor.row_out) ->
                 String.concat ","
                   (Array.to_list (Array.map Value.to_string ro.Executor.values)))
               r.Executor.out_rows)
        ^ "]"
      | Engine.Rejected (msgs, _) -> "R[" ^ String.concat ";" msgs ^ "]"
    in
    let trace =
      List.map render
        [
          (1, "SELECT name FROM emp ORDER BY name");
          (5, "SELECT name FROM emp");
          (2, "SELECT dname, budget FROM dept ORDER BY budget");
          (5, "SELECT COUNT(*) FROM emp");
          (1, "SELECT dept, COUNT(*) FROM emp GROUP BY dept");
        ]
    in
    Engine.close e;
    trace
  in
  let row = run false and vec = run true in
  Alcotest.(check bool) "workload produced both verdicts" true
    (List.exists (fun s -> s.[0] = 'R') row
    && List.exists (fun s -> s.[0] = 'A') row);
  Alcotest.(check (list string)) "verdicts, messages and rows identical" row vec

(* Deterministic spot check with full annotations through a join, so a
   lineage/src-tid regression fails with a readable diff. *)
let test_join_lineage_identical () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let q =
    Parser.query
      "SELECT e.name, d.budget FROM emp e, dept d \
       WHERE e.dept = d.dname AND e.salary > 85"
  in
  let opts = { Executor.lineage = true; track_src = true } in
  let o = Executor.run ~opts cat q in
  let u = Executor.run_unoptimized ~opts cat q in
  Alcotest.(check (list string)) "columns" u.Executor.columns o.Executor.columns;
  Alcotest.(check bool) "rows + lineage + src tids" true
    (canon o.Executor.out_rows = canon u.Executor.out_rows);
  Alcotest.(check int) "join produced rows" 4 (List.length o.Executor.out_rows)

(* Indexed vs heap access: the same query through the optimizer with the
   index present (probes it) and after dropping it (heap scan) must be
   bit-for-bit identical, including provenance. *)
let test_indexed_vs_heap_identical () =
  let db = sample_db () in
  let cat = Database.catalog db in
  ignore
    (Database.exec_script db "CREATE INDEX ix_emp_dept ON emp USING hash (dept)");
  let q =
    Parser.query "SELECT e.name, e.salary FROM emp e WHERE e.dept = 'eng'"
  in
  let opts = { Executor.lineage = true; track_src = true } in
  let probes0 = Atomic.get Executor.index_probes in
  let indexed = Executor.run ~opts cat q in
  Alcotest.(check bool) "index path actually probed" true
    (Atomic.get Executor.index_probes > probes0);
  ignore (Database.exec_script db "DROP INDEX ix_emp_dept");
  let heap = Executor.run ~opts cat q in
  let unopt = Executor.run_unoptimized ~opts cat q in
  Alcotest.(check (list string)) "columns" heap.Executor.columns
    indexed.Executor.columns;
  Alcotest.(check bool) "indexed = heap (rows, lineage, src tids)" true
    (canon indexed.Executor.out_rows = canon heap.Executor.out_rows);
  Alcotest.(check bool) "indexed = reference" true
    (canon indexed.Executor.out_rows = canon unopt.Executor.out_rows);
  Alcotest.(check bool) "query returned rows" true
    (indexed.Executor.out_rows <> [])

(* Range access path, bounds from both sides of a BETWEEN. *)
let test_range_index_identical () =
  let db = sample_db () in
  let cat = Database.catalog db in
  ignore
    (Database.exec_script db
       "CREATE INDEX ix_emp_salary ON emp USING sorted (salary)");
  let q =
    Parser.query
      "SELECT e.name FROM emp e WHERE e.salary >= 80 AND e.salary < 95"
  in
  let opts = { Executor.lineage = true; track_src = true } in
  let probes0 = Atomic.get Executor.index_probes in
  let indexed = Executor.run ~opts cat q in
  Alcotest.(check bool) "range path probed" true
    (Atomic.get Executor.index_probes > probes0);
  let unopt = Executor.run_unoptimized ~opts cat q in
  Alcotest.(check bool) "range-indexed = reference" true
    (canon indexed.Executor.out_rows = canon unopt.Executor.out_rows);
  Alcotest.(check bool) "range returned rows" true
    (indexed.Executor.out_rows <> [])

(* The probe rule's priority order: a clock-pinned equality beats a
   constant one, a constant equality beats any range, a constant range
   beats a clock-pinned one, constant bounds fold to the tightest (an
   exclusive bound wins a tie, a constant on the left flips), and of
   two clock-pinned lower bounds the first probes and the second stays a
   filter. NULL constants never probe. *)
let test_select_access_priority () =
  let db =
    db_of_script
      "CREATE TABLE t (a INT, b INT); CREATE INDEX ix_t_a ON t USING hash (a); \
       CREATE INDEX ix_t_b ON t USING sorted (b)"
  in
  let t = Database.table db "t" in
  let a = Plan.Field 0 and b = Plan.Field 1 in
  let c n = Plan.Const (Value.Int n) in
  let clock n = Plan.Exec (fun () -> Value.Int n) in
  let ( %% ) x (op, y) = Plan.Binop (op, x, y) in
  let key = function
    | Plan.Const v -> Value.to_string v
    | Plan.Exec read -> "clock " ^ Value.to_string (read ())
    | _ -> "?"
  in
  let bound = function
    | None -> "-"
    | Some (k, incl) -> key k ^ if incl then " incl" else " excl"
  in
  let check name preds expected rest =
    let got, left =
      match Optimizer.select_access t preds with
      | None -> ("heap", preds)
      | Some (Plan.Index_eq { index; key = k }, left) ->
        (Printf.sprintf "%s = %s" index (key k), left)
      | Some (Plan.Index_range { index; lo; hi }, left) ->
        (Printf.sprintf "%s [%s, %s]" index (bound lo) (bound hi), left)
      | Some ((Plan.Heap | Plan.Delta), left) -> ("scan", left)
    in
    Alcotest.(check string) name expected got;
    Alcotest.(check bool) (name ^ ": leftover filters") true
      (List.length left = List.length rest && List.for_all2 ( == ) left rest)
  in
  let const_eq = a %% (Ast.Eq, c 1) and dyn_eq = clock 7 %% (Ast.Eq, a) in
  check "dynamic equality beats constant" [ const_eq; dyn_eq ] "ix_t_a = clock 7"
    [ const_eq ];
  let lt5 = b %% (Ast.Lt, c 5) in
  check "constant equality beats a range" [ lt5; const_eq ] "ix_t_a = 1" [ lt5 ];
  let dyn_lo = b %% (Ast.Gt, clock 2) in
  check "constant range beats dynamic" [ dyn_lo; lt5 ] "ix_t_b [-, 5 excl]"
    [ dyn_lo ];
  let lo1 = b %% (Ast.Ge, clock 1) and lo2 = b %% (Ast.Gt, clock 2) in
  let hi = clock 9 %% (Ast.Gt, b) in
  check "first dynamic lower bound probes" [ lo1; lo2; hi ]
    "ix_t_b [clock 1 incl, clock 9 excl]" [ lo2 ];
  check "constant bounds tighten"
    [ b %% (Ast.Ge, c 3); c 2 %% (Ast.Lt, b); b %% (Ast.Gt, c 3); b %% (Ast.Le, c 9);
      c 9 %% (Ast.Gt, b); c 12 %% (Ast.Ge, b) ]
    "ix_t_b [3 excl, 9 excl]" [];
  let null_eq = a %% (Ast.Eq, Plan.Const Value.Null) in
  check "NULL constant stays a filter" [ null_eq ] "heap" [ null_eq ]

(* A table without a columnar mirror reaches every access path through
   the row path's scan, transposed once: the batch path returns the row
   path's rows, source tids and index-probe count, for constant and
   clock-pinned keys and for a NULL key or bound. *)
let test_vec_mirrorless_access () =
  let db =
    db_of_script
      "CREATE TABLE m (k INT, v INT); CREATE INDEX ix_m_k ON m USING hash (k); \
       CREATE INDEX ix_m_v ON m USING sorted (v); INSERT INTO m VALUES \
       (1, 10), (2, 20), (1, 30), (NULL, 40), (3, NULL), (2, 50)"
  in
  let cat = Database.catalog db in
  Alcotest.(check bool) "no mirror" true (Table.columnar (Database.table db "m") = None);
  let opts = { Executor.lineage = false; track_src = true } in
  let plan access =
    match Plan.of_query cat (Parser.query "SELECT m.k, m.v FROM m") with
    | Plan.Select sp ->
      let slots = Array.copy sp.Plan.slots in
      slots.(0) <- { slots.(0) with Plan.source = Plan.Scan ("m", access) };
      Plan.Select { sp with Plan.slots }
    | Plan.Union _ -> Alcotest.fail "select expected"
  in
  let run vectorized p =
    let probes = Atomic.get Executor.index_probes in
    let r = Executor.run_compiled (Executor.compile ~opts ~vectorized cat p) in
    (canon_exact r.Executor.out_rows, Atomic.get Executor.index_probes - probes)
  in
  let tick = ref (Value.Int 1) in
  let clock = Plan.Exec (fun () -> !tick) in
  let c n = Plan.Const (Value.Int n) in
  let eq key = Plan.Index_eq { index = "ix_m_k"; key } in
  let range lo hi = Plan.Index_range { index = "ix_m_v"; lo; hi } in
  let case (name, access, rows, probes) =
    let p = plan access in
    Alcotest.(check bool) (name ^ ": batch route") true
      (Optimizer.batch_route ~lineage:false ~track_src:true p = Plan.Route_batch);
    let row = run false p and batch = run true p in
    Alcotest.(check bool) (name ^ ": batch = row, source tids included") true
      (same batch row);
    Alcotest.(check (pair int int)) (name ^ ": rows, probes") (rows, probes)
      (List.length (fst row), snd row)
  in
  List.iter case
    [
      ("heap", Plan.Heap, 6, 0);
      ("delta", Plan.Delta, 6, 0);
      ("constant key", eq (c 2), 2, 1);
      ("clock-pinned key", eq clock, 2, 1);
      ("NULL key", eq (Plan.Const Value.Null), 0, 1);
      ("constant range", range (Some (c 10, false)) (Some (c 50, true)), 4, 1);
      ("clock-pinned range", range (Some (clock, true)) (Some (c 40, false)), 3, 1);
      ("NULL bound", range None (Some (Plan.Const Value.Null, true)), 0, 1);
    ];
  tick := Value.Int 20;
  case ("clock moved", range (Some (clock, true)) None, 4, 1);
  tick := Value.Null;
  case ("clock-pinned NULL key", eq clock, 0, 1)

(* Prepared-plan cache: DDL invalidation ---------------------------------- *)

let test_prepared_ddl_invalidation () =
  let db = sample_db () in
  let cat = Database.catalog db in
  let prep = Prepared.create cat in
  let q = Parser.query "SELECT COUNT(*) FROM emp" in
  let count () =
    match (Prepared.run prep q).Executor.out_rows with
    | [ { Executor.values = [| Value.Int n |]; _ } ] -> n
    | _ -> Alcotest.fail "count expected"
  in
  Alcotest.(check int) "initial rows" 5 (count ());
  Alcotest.(check int) "second run" 5 (count ());
  Alcotest.(check int) "second run hits the cache" 1 (fst (Prepared.stats prep));
  (* Drop and recreate the table: the cached plan captured the old table
     handle and must not survive. *)
  ignore
    (Database.exec_script db
       "DROP TABLE emp; CREATE TABLE emp (id INT, name TEXT, dept TEXT, \
        salary INT); INSERT INTO emp VALUES (9, 'zoe', 'eng', 70)");
  Alcotest.(check int) "fresh table, fresh plan" 1 (count ())

(* Prepared-plan cache: set_config invalidation (the PR 1 composition
   point — one generation counter serves both the persistence-scope
   recompute and the plan cache). *)

let test_set_config_invalidates_cache () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"expensive"
       "SELECT DISTINCT 'mgmt data is off limits' FROM users u, emp g \
        WHERE u.uid = g.id AND g.dept = 'mgmt'");
  let accepted = function Engine.Accepted _ -> true | _ -> false in
  Alcotest.(check bool) "uid 1 accepted" true
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp"));
  Alcotest.(check bool) "uid 5 (mgmt) rejected" false
    (accepted (Engine.submit e ~uid:5 "SELECT name FROM emp"));
  let _, misses_before = Engine.plan_cache_stats e in
  (* A warm resubmission compiles nothing new... *)
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  let hits_warm, misses_warm = Engine.plan_cache_stats e in
  Alcotest.(check int) "warm submission adds no misses" misses_before misses_warm;
  Alcotest.(check bool) "warm submission hits the cache" true (hits_warm > 0);
  (* ...while set_config drops every cached plan, even when the new
     config is behaviourally close to the old one. *)
  Engine.set_config e { Engine.default_config with Engine.strategy = Engine.Serial };
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  let _, misses_after = Engine.plan_cache_stats e in
  Alcotest.(check bool) "set_config forces recompilation" true
    (misses_after > misses_warm);
  (* And decisions stay correct under the new config. *)
  Alcotest.(check bool) "uid 5 still rejected after set_config" false
    (accepted (Engine.submit e ~uid:5 "SELECT name FROM emp"))

(* Prepared-plan cache: unification's constants-table rebuild. Adding a
   third unifiable policy drops and recreates the dl_constants table; a
   stale compiled plan would keep scanning the dropped two-constant
   table and miss the new member's violation. *)

let test_unify_constants_rebuild_invalidates () =
  let db = sample_db () in
  let e = Engine.create db in
  let member dept =
    ignore
      (Engine.add_policy e ~name:("no_" ^ dept)
         (Printf.sprintf
            "SELECT DISTINCT 'dept %s off limits' FROM users u, emp g \
             WHERE u.uid = g.id AND g.dept = '%s' HAVING COUNT(DISTINCT u.uid) > 0"
            dept dept))
  in
  member "eng";
  member "ops";
  let accepted = function Engine.Accepted _ -> true | _ -> false in
  (* uid 5 is mgmt: accepted, and the unified eng/ops plan is now warm. *)
  Alcotest.(check bool) "mgmt uid accepted with eng/ops policies" true
    (accepted (Engine.submit e ~uid:5 "SELECT name FROM emp"));
  Alcotest.(check bool) "eng uid rejected" false
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp"));
  member "mgmt";
  Alcotest.(check bool) "third member enforced immediately" false
    (accepted (Engine.submit e ~uid:5 "SELECT name FROM emp"))

(* Warm resubmission of the same workload compiles nothing new. *)
let test_cache_steady_state () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"p"
       "SELECT DISTINCT 'no ops data' FROM users u, emp g \
        WHERE u.uid = g.id AND g.dept = 'ops'");
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  let _, misses = Engine.plan_cache_stats e in
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  ignore (Engine.submit e ~uid:2 "SELECT salary FROM emp WHERE id = 1");
  ignore (Engine.submit e ~uid:1 "SELECT name FROM emp");
  let _, misses' = Engine.plan_cache_stats e in
  (* Only the one new user query should have compiled. *)
  Alcotest.(check int) "steady state compiles only new queries" (misses + 1)
    misses'

(* Clock elimination ------------------------------------------------------- *)

(* The clock-eliminated plan ({!Optimizer.eliminate_clock}) must return
   the as-written plan's rows in the same order while the clock holds one
   row: over every oracle template that reads the clock, each one's
   HAVING-free core projecting every column, and UNIONs with clock-free
   and clock-reading arms, under both executors and at several clock
   values (one compiled plan follows the live clock, which
   [Usage_log.set_clock] moves: SQL may not write it). *)
let test_clock_elimination_differential () =
  let db = Test_oracle.fresh_db () in
  let e =
    Engine.create
      ~config:
        {
          Engine.default_config with
          Engine.domains = 1;
          time_independent = false;
          log_compaction = false;
        }
      db
  in
  (* A policy that never fires keeps all three logs, uncompacted. *)
  ignore
    (Engine.add_policy e ~name:"logs"
       "SELECT DISTINCT 'never' FROM users u, schema s, provenance p WHERE \
        u.uid < 0 AND s.ts = u.ts AND p.ts = u.ts");
  for i = 0 to 23 do
    ignore
      (Engine.submit e ~uid:(1 + (i mod 3))
         Test_oracle.queries.(i mod Array.length Test_oracle.queries))
  done;
  let cat = Database.catalog db in
  let clock_templates =
    List.filter_map
      (fun (_, sql) ->
        match Parser.query sql with
        | Ast.Select s as q
          when List.exists
                 (fun (_, rel) -> rel = Usage_log.clock_relation)
                 (Analysis.table_occurrences s) ->
          Some q
        | Ast.Select _ | Ast.Union _ -> None)
      (Array.to_list Test_oracle.templates)
  in
  Alcotest.(check int) "oracle templates reading the clock" 8
    (List.length clock_templates);
  let core = function
    | Ast.Select s ->
      Ast.Select { s with Ast.distinct = Ast.All; items = [ Ast.Star ]; having = None }
    | q -> q
  in
  let union all left right = Ast.Union { all; left; right } in
  let blocked = Parser.query (Test_oracle.template "blocked") in
  let queries =
    clock_templates
    @ List.map core clock_templates
    @ List.map2 (union false) clock_templates
        (List.tl clock_templates @ [ List.hd clock_templates ])
    @ List.map (fun q -> union true (core q) (core q)) clock_templates
    @ List.map (fun q -> union false blocked q) clock_templates
    (* A cross join with no pin. *)
    @ [ Parser.query "SELECT COUNT(*) FROM users u, clock c" ]
  in
  let compile vectorized plan =
    Executor.compile ~vectorized cat (Optimizer.optimize cat plan)
  in
  let rows c = canon_exact (Executor.run_compiled c).Executor.out_rows in
  let cases =
    List.concat_map
      (fun vectorized ->
        let prepared = Prepared.create cat in
        Prepared.set_vectorized prepared vectorized;
        List.map
          (fun q ->
            let written = Plan.of_query cat q in
            let eliminated =
              match
                Optimizer.eliminate_clock cat
                  ~clock_rel:Usage_log.clock_relation written
              with
              | Some p -> compile vectorized p
              | None ->
                Alcotest.failf "clock kept: %s" (Sql_print.query q)
            in
            (q, compile vectorized written, eliminated, prepared))
          queries)
      [ false; true ]
  in
  let nonempty = ref 0 and probes = ref 0 in
  List.iter
    (fun tick ->
      Usage_log.set_clock db tick;
      List.iter
        (fun (q, written, eliminated, prepared) ->
          let expected = rows written in
          if expected <> [] then incr nonempty;
          let what = Printf.sprintf "at ts %d: %s" tick (Sql_print.query q) in
          Alcotest.(check bool) ("eliminated " ^ what) true
            (same expected (rows eliminated));
          let p0 = Atomic.get Executor.index_probes in
          let got = (Prepared.run prepared q).Executor.out_rows in
          probes := !probes + Atomic.get Executor.index_probes - p0;
          Alcotest.(check bool) ("prepared " ^ what) true (same expected (canon_exact got)))
        cases)
    [ 3; 8; 14; 25 ];
  Alcotest.(check bool) "most cases return rows" true
    (!nonempty > List.length cases * 2);
  Alcotest.(check bool) "eliminated plans probe" true (!probes > 0);
  Engine.close e

let suite =
  List.map QCheck_alcotest.to_alcotest
    ((prop_diff :: (vec_props @ vec_typed_props)) @ [ prop_cached_vs_uncached ])
  @ [
      tc "ORDER BY an aggregate, both pipelines" test_order_by_aggregate;
      tc "vectorized: sub-slot adapter" test_vec_sub_slot_adapter;
      tc "vectorized: index probe adapter" test_vec_index_adapter;
      tc "vectorized: shared batch cache" test_vec_shared_batch_cache;
      tc "vectorized: which scan slots share" test_vec_shared_scan_rule;
      tc "shared cache drops stale generations" test_shared_drops_stale_generations;
      tc "Int/Float identity beyond 2^53" test_int_float_beyond_2_53;
      tc "vectorized: columnar rollback sync" test_vec_columnar_rollback_sync;
      tc "vectorized: cross-dict join remap" test_vec_cross_dict_join;
      tc "vectorized: dictionary rollback keeps codes" test_vec_dict_rollback;
      tc "vectorized: compaction re-interns dense codes"
        test_vec_compaction_dense_codes;
      tc "vectorized: Mixed demotion round-trips INT" test_vec_mixed_demotion;
      tc "vectorized: engine verdict differential" test_vec_engine_differential;
      tc "join lineage identical across paths" test_join_lineage_identical;
      tc "indexed access = heap access, bit for bit" test_indexed_vs_heap_identical;
      tc "range index = reference" test_range_index_identical;
      tc "probe rule: priority order" test_select_access_priority;
      tc "vectorized: mirror-less access paths = row path" test_vec_mirrorless_access;
      tc "prepared cache: DDL invalidates" test_prepared_ddl_invalidation;
      tc "prepared cache: set_config invalidates" test_set_config_invalidates_cache;
      tc "prepared cache: unify constants rebuild" test_unify_constants_rebuild_invalidates;
      tc "prepared cache: steady state" test_cache_steady_state;
      tc "clock-eliminated plan = as-written plan"
        test_clock_elimination_differential;
    ]
