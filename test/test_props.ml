(** Property-based tests (QCheck, registered as alcotest cases).

    Core data-structure invariants (Vec, Value), frontend round-trips,
    relational-algebra laws of the executor, aggregate correctness against
    OCaml reference implementations, lineage well-formedness, and the
    DataLawyer invariants (witness soundness, partial-policy implication,
    engine determinism) on randomized inputs. *)

open Relational
open Datalawyer

let gen = QCheck.Gen.oneofl
let ( let+ ) g f = QCheck.Gen.map f g

(* Generators --------------------------------------------------------------- *)

let value_gen : Value.t QCheck.Gen.t =
  QCheck.Gen.frequency
    [
      (1, QCheck.Gen.return Value.Null);
      (2, QCheck.Gen.map (fun b -> Value.Bool b) QCheck.Gen.bool);
      (5, QCheck.Gen.map (fun i -> Value.Int i) (QCheck.Gen.int_range (-50) 50));
      (3, QCheck.Gen.map (fun f -> Value.Float (Float.of_int f /. 2.)) (QCheck.Gen.int_range (-20) 20));
      (4, QCheck.Gen.map (fun s -> Value.Str s) (QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'e') (QCheck.Gen.int_range 0 3)));
    ]

let value_arb = QCheck.make ~print:Value.to_string value_gen

(* A random instance of a fixed two-table schema, loaded into a db. *)
let table_rows_gen =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 25)
    (QCheck.Gen.pair (QCheck.Gen.int_range 0 6) (QCheck.Gen.int_range 0 6))

let db_of_rows rows_r rows_s =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE r (a INT, b INT); CREATE TABLE s (a INT, c INT)");
  let r = Database.table db "r" and s = Database.table db "s" in
  List.iter (fun (a, b) -> ignore (Table.insert r [| Value.Int a; Value.Int b |])) rows_r;
  List.iter (fun (a, c) -> ignore (Table.insert s [| Value.Int a; Value.Int c |])) rows_s;
  db

let two_tables_arb =
  QCheck.make
    ~print:(fun (r, s) ->
      Printf.sprintf "r=%s s=%s"
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) r))
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) s)))
    (QCheck.Gen.pair table_rows_gen table_rows_gen)

(* Random scalar expressions over columns a, b of table r. *)
let expr_gen : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun i -> Ast.Lit (Value.Int i)) (int_range (-5) 5);
               oneofl [ Ast.Col (Some "r", "a"); Ast.Col (Some "r", "b") ];
             ]
         else
           frequency
             [
               (1, map (fun i -> Ast.Lit (Value.Int i)) (int_range (-5) 5));
               (2, oneofl [ Ast.Col (Some "r", "a"); Ast.Col (Some "r", "b") ]);
               ( 3,
                 map3
                   (fun op l r -> Ast.Binop (op, l, r))
                   (oneofl Ast.[ Add; Sub; Mul; Eq; Neq; Lt; Le; Gt; Ge; And; Or ])
                   (self (n / 2)) (self (n / 2)) );
               (1, map (fun e -> Ast.Unop (Ast.Not, e)) (self (n / 2)));
             ])

let expr_arb = QCheck.make ~print:Sql_print.expr expr_gen

(* Properties ----------------------------------------------------------------- *)

(* Vec behaves like a list. *)
let prop_vec_model =
  QCheck.Test.make ~name:"Vec model: push/truncate/filter agree with list"
    ~count:200
    (QCheck.list (QCheck.int_bound 100))
    (fun xs ->
      let v = Vec.create ~dummy:(-1) () in
      List.iter (Vec.push v) xs;
      let half = List.length xs / 2 in
      Vec.truncate v half;
      let model = List.filteri (fun i _ -> i < half) xs in
      let even x = x mod 2 = 0 in
      ignore (Vec.filter_in_place even v);
      Vec.to_list v = List.filter even model)

let prop_value_order =
  QCheck.Test.make ~name:"Value.compare is a total order consistent with equal"
    ~count:500
    (QCheck.triple value_arb value_arb value_arb)
    (fun (a, b, c) ->
      let ( <= ) x y = Value.compare x y <= 0 in
      (* antisymmetry up to equal *)
      ((not (a <= b && b <= a)) || Value.equal a b)
      (* transitivity *)
      && ((not (a <= b && b <= c)) || a <= c))

(* The 2^53 neighbourhood, where adjacent ints share one float image,
   with the 63-bit int range's edges and a fraction just below 2^52. *)
let near53 : Value.t list =
  let p53 = 1 lsl 53 in
  List.concat_map
    (fun k -> [ Value.Int k; Value.Int (-k) ])
    [ (1 lsl 52) - 1; 1 lsl 52; p53 - 1; p53; p53 + 1; p53 + 2; p53 + 3; max_int ]
  @ List.concat_map
      (fun f -> [ Value.Float f; Value.Float (-.f) ])
      [ 0x1p52 -. 0.5; 0x1p53; 0x1p53 +. 2.; 0x1p53 +. 4.; 0x1p62; Float.infinity ]
  @ [ Value.Int min_int; Value.Float Float.nan ]

(* Values where the two equalities have historically drifted: NULL, NaNs
   of several bit patterns, signed zeros, integral floats beyond 1e15
   beside their Int twins, and {!near53}. *)
let identity_value_gen : Value.t QCheck.Gen.t =
  let big = [ 1e15; 1e16; 9007199254740992.; 1152921504606846976.; 1e18 ] in
  QCheck.Gen.frequency
    [
      (3, value_gen);
      ( 3,
        QCheck.Gen.oneofl
          [
            Value.Null;
            Value.Float Float.nan;
            Value.Float (-.Float.nan);
            Value.Float ((1e308 *. 10.0) -. (1e308 *. 10.0));
            Value.Float 0.0;
            Value.Float (-0.0);
            Value.Int 0;
          ] );
      ( 4,
        QCheck.Gen.map2
          (fun f as_int ->
            if as_int then Value.Int (int_of_float f) else Value.Float f)
          (QCheck.Gen.oneofl (big @ List.map Float.neg big))
          QCheck.Gen.bool );
      (3, QCheck.Gen.oneofl near53);
    ]

let identity_pair_arb =
  QCheck.make
    ~print:(fun (a, b) -> Value.to_sql a ^ ", " ^ Value.to_sql b)
    (QCheck.Gen.pair identity_value_gen identity_value_gen)

let prop_equal_is_compare =
  QCheck.Test.make ~name:"Value.equal a b iff Value.compare a b = 0" ~count:1000
    identity_pair_arb
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

(* Rounding an int through its float image made [Int (2^53 + 1)] equal
   [Float 2^53] equal [Int 2^53] while the two ints differ: checked on
   every triple of the neighbourhood, since random triples rarely line
   up that way. *)
let test_near53_total_order () =
  let sign x y = Int.compare (Value.compare x y) 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let show = String.concat ", " (List.map Value.to_sql [ a; b ]) in
          if sign a b <> - sign b a then Alcotest.failf "antisymmetry: %s" show;
          if Value.equal a b <> (sign a b = 0) then
            Alcotest.failf "equal vs compare: %s" show;
          if Value.equal a b && Value.hash a <> Value.hash b then
            Alcotest.failf "hash: %s" show;
          List.iter
            (fun c ->
              if sign a b <= 0 && sign b c <= 0 && sign a c > 0 then
                Alcotest.failf "transitivity: %s, %s" show (Value.to_sql c))
            near53)
        near53)
    near53

let prop_equal_hash =
  QCheck.Test.make ~name:"Value.equal a b implies equal hashes" ~count:1000
    identity_pair_arb
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expression print/parse round-trip" ~count:300 expr_arb
    (fun e ->
      let printed = Sql_print.expr e in
      match Parser.expr printed with
      | e2 ->
        (* NOT parses right-associated with comparisons folded the same
           way; require semantic equality via evaluation on sample rows *)
        let scope = Plan.table_scope "r" [ "a"; "b" ] in
        List.for_all
          (fun (a, b) ->
            let try_eval e =
              try
                Ok
                  (Compile.compile_expr (Plan.lower scope e)
                     [| Value.Int a; Value.Int b |]
                     [||])
              with Errors.Sql_error _ -> Error ()
            in
            try_eval e = try_eval e2)
          [ (0, 0); (1, 2); (-3, 5); (7, 7) ]
      | exception Errors.Sql_error _ -> false)

let rows db sql =
  List.map
    (fun (r : Executor.row_out) -> Array.to_list r.Executor.values)
    (Database.query db sql).Executor.out_rows

let sorted_rows db sql =
  List.sort (fun a b -> List.compare Value.compare a b) (rows db sql)

let prop_where_commutes =
  QCheck.Test.make ~name:"WHERE conjunct order is irrelevant" ~count:100
    two_tables_arb
    (fun (r, s) ->
      let db = db_of_rows r s in
      sorted_rows db "SELECT r.a, r.b FROM r WHERE r.a < 4 AND r.b > 1"
      = sorted_rows db "SELECT r.a, r.b FROM r WHERE r.b > 1 AND r.a < 4")

let prop_join_commutes =
  QCheck.Test.make ~name:"join commutativity" ~count:100 two_tables_arb
    (fun (rr, ss) ->
      let db = db_of_rows rr ss in
      sorted_rows db "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
      = sorted_rows db "SELECT r.b, s.c FROM s, r WHERE s.a = r.a")

let prop_join_vs_nested_loop =
  QCheck.Test.make ~name:"hash join agrees with a nested-loop formulation"
    ~count:100 two_tables_arb
    (fun (rr, ss) ->
      let db = db_of_rows rr ss in
      (* r.a = s.a as equi-join vs arithmetic predicate the planner cannot
         hash: r.a - s.a = 0 *)
      sorted_rows db "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
      = sorted_rows db "SELECT r.b, s.c FROM r, s WHERE r.a - s.a = 0")

let prop_distinct_idempotent =
  QCheck.Test.make ~name:"DISTINCT is idempotent and minimal" ~count:100
    two_tables_arb
    (fun (rr, ss) ->
      let db = db_of_rows rr ss in
      let d = sorted_rows db "SELECT DISTINCT r.a FROM r" in
      let dd =
        sorted_rows db "SELECT DISTINCT q.a FROM (SELECT DISTINCT r.a FROM r) q"
      in
      let expected =
        List.sort_uniq compare (List.map (fun (a, _) -> [ Value.Int a ]) rr)
      in
      d = dd && d = expected)

let prop_union_is_set_union =
  QCheck.Test.make ~name:"UNION = set union; UNION ALL = concatenation"
    ~count:100 two_tables_arb
    (fun (rr, ss) ->
      let db = db_of_rows rr ss in
      let union = sorted_rows db "SELECT a FROM r UNION SELECT a FROM s" in
      let expected =
        List.sort_uniq compare
          (List.map (fun (a, _) -> [ Value.Int a ]) (rr @ ss))
      in
      let union_all = rows db "SELECT a FROM r UNION ALL SELECT a FROM s" in
      union = expected && List.length union_all = List.length rr + List.length ss)

let prop_group_counts =
  QCheck.Test.make ~name:"GROUP BY counts partition the table" ~count:100
    two_tables_arb
    (fun (rr, _) ->
      let db = db_of_rows rr [] in
      let counts = rows db "SELECT a, COUNT(*) FROM r GROUP BY a" in
      let total =
        List.fold_left
          (fun acc row ->
            match row with [ _; Value.Int n ] -> acc + n | _ -> acc)
          0 counts
      in
      total = List.length rr)

let prop_aggregates_reference =
  QCheck.Test.make ~name:"SUM/MIN/MAX/AVG/COUNT match OCaml reference"
    ~count:100 two_tables_arb
    (fun (rr, _) ->
      let db = db_of_rows rr [] in
      let bs = List.map snd rr in
      match rows db "SELECT SUM(b), MIN(b), MAX(b), COUNT(b), AVG(b) FROM r" with
      | [ [ sum; mn; mx; cnt; avg ] ] ->
        let expect_sum =
          if bs = [] then Value.Null else Value.Int (List.fold_left ( + ) 0 bs)
        in
        let expect_min =
          if bs = [] then Value.Null else Value.Int (List.fold_left min max_int bs)
        in
        let expect_max =
          if bs = [] then Value.Null else Value.Int (List.fold_left max min_int bs)
        in
        let expect_avg =
          if bs = [] then Value.Null
          else
            Value.Float
              (float_of_int (List.fold_left ( + ) 0 bs) /. float_of_int (List.length bs))
        in
        Value.equal sum expect_sum && Value.equal mn expect_min
        && Value.equal mx expect_max
        && Value.equal cnt (Value.Int (List.length bs))
        && Value.equal avg expect_avg
      | _ -> false)

let prop_lineage_wellformed =
  QCheck.Test.make ~name:"lineage points at existing contributing tuples"
    ~count:100 two_tables_arb
    (fun (rr, ss) ->
      let db = db_of_rows rr ss in
      let result =
        Database.query
          ~opts:{ Executor.lineage = true; track_src = false }
          db "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND r.b > 1"
      in
      let r_table = Database.table db "r" and s_table = Database.table db "s" in
      List.for_all
        (fun (row : Executor.row_out) ->
          row.Executor.lineage <> []
          && List.for_all
               (fun (rel, tid) ->
                 match rel with
                 | "r" -> Table.find_by_tid r_table tid <> None
                 | "s" -> Table.find_by_tid s_table tid <> None
                 | _ -> false)
               row.Executor.lineage)
        result.Executor.out_rows)

(* DataLawyer invariants ----------------------------------------------------- *)

(* Engine decisions are deterministic for a fixed stream. *)
let prop_engine_deterministic =
  let stream_gen =
    QCheck.Gen.list_size (QCheck.Gen.int_range 1 15)
      (QCheck.Gen.pair (QCheck.Gen.int_range 0 2) (gen [ "W1"; "W2" ]))
  in
  QCheck.Test.make ~name:"engine decisions are deterministic" ~count:10
    (QCheck.make stream_gen)
    (fun stream ->
      let run () =
        let s =
          Workload.Runner.make ~mimic:{ Mimic.Generate.small_config with n_patients = 40; events_per_patient = 4 }
            ~params:
              {
                Workload.Policies.default_params with
                p1_window = 4;
                p1_max_users = 1;
                p5_window = 6;
                p5_max_fraction = 0.3;
              }
            ()
        in
        List.map
          (fun (uid, qn) ->
            let q = Workload.Runner.query s qn in
            match Engine.submit s.Workload.Runner.engine ~uid q.Workload.Queries.sql with
            | Engine.Accepted _ -> true
            | Engine.Rejected _ -> false)
          stream
      in
      run () = run ())

(* Witness soundness: after compaction the policy evaluates identically at
   all future times (Def. 4.1, from now+1 on). *)
let prop_witness_absolute =
  let scenario_gen =
    QCheck.Gen.triple (QCheck.Gen.int_range 2 10) (QCheck.Gen.int_range 0 4)
      (QCheck.Gen.list_size (QCheck.Gen.int_range 0 30)
         (QCheck.Gen.pair (QCheck.Gen.int_range 1 20) (QCheck.Gen.int_range 0 2)))
  in
  QCheck.Test.make ~name:"absolute witnesses preserve future evaluations"
    ~count:60 (QCheck.make scenario_gen)
    (fun (window, threshold, log_rows) ->
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE dummy (x INT)");
      let engine = Engine.create db in
      let p =
        Engine.add_policy engine ~name:"w"
          (Printf.sprintf
             "SELECT DISTINCT 'v' FROM users u, clock c WHERE u.uid = 1 AND \
              u.ts > c.ts - %d HAVING COUNT(DISTINCT u.ts) > %d"
             window threshold)
      in
      let users = Database.table db "users" in
      List.iter
        (fun (ts, uid) ->
          ignore (Table.insert users [| Value.Int ts; Value.Int uid |]))
        (List.sort compare log_rows);
      let now = 20 in
      let is_log rel = Catalog.is_log (Database.catalog db) rel in
      let retained =
        match List.assoc_opt "users" (Witness.for_policy ~is_log p) with
        | Some w -> Test_support.witness_retained db ~now w
        | None -> Hashtbl.create 1
      in
      let eval_at t =
        Usage_log.set_clock db t;
        Executor.is_empty (Database.catalog db) p.Policy.query
      in
      let horizon = window + 3 in
      let full = List.init horizon (fun k -> eval_at (now + 1 + k)) in
      ignore (Table.retain_tids users retained);
      let compacted = List.init horizon (fun k -> eval_at (now + 1 + k)) in
      full = compacted)

(* Lemma 4.4 as a property: π non-empty implies every πS non-empty. *)
let prop_partial_implication =
  let scenario_gen =
    QCheck.Gen.pair (QCheck.Gen.int_range 0 3)
      (QCheck.Gen.list_size (QCheck.Gen.int_range 0 20)
         (QCheck.Gen.triple (QCheck.Gen.int_range 1 8) (QCheck.Gen.int_range 0 3)
            QCheck.Gen.bool))
  in
  QCheck.Test.make ~name:"Lemma 4.4: full policy implies partial policies"
    ~count:60 (QCheck.make scenario_gen)
    (fun (threshold, events) ->
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE emp (id INT)");
      let engine = Engine.create db in
      let p =
        Engine.add_policy engine ~name:"pp"
          (Printf.sprintf
             "SELECT DISTINCT 'v' FROM users u, schema s WHERE u.ts = s.ts \
              AND s.irid = 'emp' HAVING COUNT(DISTINCT u.uid) > %d"
             threshold)
      in
      let users = Database.table db "users" in
      let sch = Database.table db "schema" in
      List.iter
        (fun (ts, uid, on_emp) ->
          ignore (Table.insert users [| Value.Int ts; Value.Int uid |]);
          ignore
            (Table.insert sch
               [|
                 Value.Int ts;
                 Value.Str "c";
                 Value.Str (if on_emp then "emp" else "other");
                 Value.Null;
                 Value.Bool false;
               |]))
        events;
      let is_log rel = Catalog.is_log (Database.catalog db) rel in
      let holds q = not (Executor.is_empty (Database.catalog db) q) in
      (not (holds p.Policy.query))
      || List.for_all
           (fun available ->
             holds (Partial.of_query ~is_log ~available p.Policy.query))
           [ []; [ "users" ]; [ "schema" ] ])

(* The columnar mirror under deletion: after random appends, savepoint
   rollbacks and tid-set / predicate deletions (which drop dead positions
   in place), the mirror holds exactly the cells and tids a mirror freshly
   built from the heap would. *)
type mirror_op =
  | M_insert of int * Value.t * string option
  | M_rollback of (int * Value.t * string option) list
  | M_retain of int * int  (** keep tids not congruent to [r] mod [m] *)
  | M_drop of int * int  (** drop tids congruent to [r] mod [m] *)
  | M_delete of int  (** delete rows with [a = v] *)

let prop_mirror_filter =
  let open QCheck.Gen in
  let cells =
    triple (int_range 0 4)
      (oneofl [ Value.Null; Value.Float 1.5; Value.Float (-2.); Value.Int 3 ])
      (opt (oneofl [ "x"; "y"; "z" ]))
  in
  let op =
    frequency
      [
        (6, map (fun (a, f, s) -> M_insert (a, f, s)) cells);
        (1, map (fun l -> M_rollback l) (list_size (int_range 0 4) cells));
        (1, map2 (fun m r -> M_retain (m, r mod m)) (int_range 2 4) nat);
        (1, map2 (fun m r -> M_drop (m, r mod m)) (int_range 2 4) nat);
        (1, map (fun v -> M_delete v) (int_range 0 4));
      ]
  in
  QCheck.Test.make ~name:"columnar mirror after deletions = mirror built from the heap"
    ~count:200
    (QCheck.make (list_size (int_range 0 40) op))
    (fun ops ->
      let t =
        Table.create ~name:"m"
          ~schema:(Schema.make [ ("a", Ty.Int); ("f", Ty.Float); ("s", Ty.Text) ])
      in
      ignore (Table.create_index t ~name:"m_a" ~column:"a" ~kind:Index.Hash);
      let store = Table.enable_columnar t in
      let insert (a, f, s) =
        ignore
          (Table.insert t
             [| Value.Int a; f; (match s with Some s -> Value.Str s | None -> Value.Null) |])
      in
      let tids_where p =
        let h = Hashtbl.create 16 in
        Table.iter (fun r -> if p (Row.tid r) then Hashtbl.replace h (Row.tid r) ()) t;
        h
      in
      List.iter
        (function
          | M_insert (a, f, s) -> insert (a, f, s)
          | M_rollback rows ->
            let sp = Table.savepoint t in
            List.iter insert rows;
            Table.rollback_to t sp
          | M_retain (m, r) -> ignore (Table.retain_tids t (tids_where (fun tid -> tid mod m <> r)))
          | M_drop (m, r) -> ignore (Table.drop_tids t (tids_where (fun tid -> tid mod m = r)))
          | M_delete v -> ignore (Table.delete_where t (fun row -> Row.cell row 0 = Value.Int v)))
        ops;
      let fresh = Column.create ~schema:(Table.schema t) in
      Table.iter (fun r -> Column.append fresh ~tid:(Row.tid r) (Row.cells r)) t;
      let n = Column.length fresh in
      let cells c =
        List.init (Column.width c) (fun j ->
            List.init n (fun k -> Column.view_value (Column.view c j) k))
      in
      (* Layouts may differ (deletion keeps a demoted column Mixed), but
         a typed column's null count is what kernels branch on. *)
      let null_count c j =
        match Column.view c j with
        | Column.V_int (_, nulls) | Column.V_float (_, nulls) -> Some (Bitvec.count nulls)
        | Column.V_bool _ | Column.V_str _ | Column.V_mixed _ -> None
      in
      Column.length store = n
      && List.for_all
           (fun j ->
             match null_count store j, null_count fresh j with
             | Some x, Some y -> x = y
             | _ -> true)
           (List.init (Column.width store) Fun.id)
      && List.init n (Column.tid_at store) = List.init n (Column.tid_at fresh)
      && List.for_all2 (List.for_all2 Value.equal) (cells store) (cells fresh)
      && Column.length store = Table.row_count t)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_vec_model;
      prop_value_order;
      prop_equal_is_compare;
      prop_equal_hash;
      prop_expr_roundtrip;
      prop_where_commutes;
      prop_join_commutes;
      prop_join_vs_nested_loop;
      prop_distinct_idempotent;
      prop_union_is_set_union;
      prop_group_counts;
      prop_aggregates_reference;
      prop_lineage_wellformed;
      prop_engine_deterministic;
      prop_witness_absolute;
      prop_partial_implication;
      prop_mirror_filter;
    ]
  @ [ Test_support.tc "Value order is total around 2^53" test_near53_total_order ]

let _ = ( let+ )
