open Relational
open Datalawyer
open Test_support

let setup () =
  let db = sample_db () in
  let e = Engine.create db in
  let is_log rel = Catalog.is_log (Database.catalog db) rel in
  (db, e, is_log)

let witness_sqls w =
  match w with
  | Witness.Keep_all -> [ "KEEP_ALL" ]
  | Witness.Queries qs -> List.map (fun q -> Sql_print.select q.Witness.select) qs

let get rel ws =
  match List.assoc_opt rel ws with
  | Some w -> w
  | None -> Alcotest.failf "no witness entry for %s" rel

let test_window_policy_witness () =
  let _, e, is_log = setup () in
  let p =
    Engine.add_policy e ~name:"w"
      "SELECT DISTINCT 'x' FROM users u, clock c WHERE u.uid = 1 AND u.ts > c.ts - 10 \
       HAVING COUNT(DISTINCT u.ts) > 3"
  in
  let ws = Witness.for_policy ~is_log p in
  match get "users" ws with
  | Witness.Keep_all -> Alcotest.fail "expected a witness query"
  | Witness.Queries [ q ] -> (
    let sql = Sql_print.select q.Witness.select in
    (* Every aggregate a COUNT(DISTINCT): one u row per counted u.ts,
       the one with the latest deadline. *)
    Alcotest.(check (option int)) "keyed by the counted u.ts" (Some 1) q.Witness.keys;
    Alcotest.(check (option (list int))) "latest deadline per key" (Some [ 0 ]) q.Witness.latest;
    Alcotest.(check bool) "clock relation dropped" false
      (Test_policy.contains_substring sql "clock");
    Alcotest.(check bool) "no frontier literal" false
      (Test_policy.contains_substring sql "101");
    (* c.ts < u.ts + 10 is the one upper bound; frozen at now = 100 it
       reads 101 < u.ts + 10, i.e. rows with ts > 91 are kept. *)
    match q.Witness.bounds with
    | [ b ] ->
      Alcotest.(check string) "bound emitted" "u.ts + 10" (Sql_print.expr b.Witness.expr);
      Alcotest.(check bool) "strict" true b.Witness.strict;
      Alcotest.(check bool) "ts 92 kept at 100" true (Witness.deadline b (i 102) > 100);
      Alcotest.(check bool) "ts 92 gone at 101" false (Witness.deadline b (i 102) > 101);
      Alcotest.(check bool) "ts 91 gone at 100" false (Witness.deadline b (i 101) > 100);
      (* The preemptive probe's form reads the frontier from the clock. *)
      let frozen = Sql_print.select (Witness.frozen q) in
      Alcotest.(check bool) "frozen form joins the clock" true
        (Test_policy.contains_substring frozen "clock");
      Alcotest.(check bool) "frozen form bounds by the clock" true
        (Test_policy.contains_substring frozen "+ 1 < u.ts + 10")
    | bs -> Alcotest.failf "expected one bound, got %d" (List.length bs))
  | Witness.Queries qs -> Alcotest.failf "expected one query, got %d" (List.length qs)

(* Every bound kind (<, <= and = freeze to < or <=, over INT and FLOAT
   windows) against the executor: a deadline above [now] means exactly
   that [now + 1 op v] holds, for INT, FLOAT, NULL, BOOL and TEXT. *)
let test_deadline_matches_comparison () =
  let values =
    [ null; b true; s "x"; f nan; f 1e300; f (-1e300); f 7.5; f 7.0; f (-2.5) ]
    @ List.init 12 (fun k -> i (k - 2))
    @ List.init 12 (fun k -> f (float_of_int k -. 2.5))
  in
  List.iter
    (fun (op, strict) ->
      let bound = { Witness.expr = Ast.Lit null; strict } in
      List.iter
        (fun v ->
          for now = -4 to 10 do
            let holds = Value.to_bool (Eval.compare_op op (i (now + 1)) v) in
            Alcotest.(check bool)
              (Printf.sprintf "now + 1 %s %s at %d" (Sql_print.binop_str op)
                 (Value.to_string v) now)
              holds
              (Witness.deadline bound v > now)
          done)
        values)
    [ (Ast.Lt, true); (Ast.Le, false) ]

let test_window_witness_semantics () =
  (* Execute the generated witness and check it retains exactly the
     in-window, predicate-matching tuples. *)
  let db, e, is_log = setup () in
  let p =
    Engine.add_policy e ~name:"w"
      "SELECT DISTINCT 'x' FROM users u, clock c WHERE u.uid = 1 AND u.ts > c.ts - 10 \
       HAVING COUNT(DISTINCT u.ts) > 3"
  in
  let users = Database.table db "users" in
  (* rows at various times and uids *)
  List.iter
    (fun (ts, uid) -> ignore (Table.insert users [| i ts; i uid |]))
    [ (80, 1); (89, 1); (92, 1); (95, 2); (99, 1); (100, 1) ];
  let retained = witness_retained db ~now:100 (get "users" (Witness.for_policy ~is_log p)) in
  let kept_ts =
    Table.rows users
    |> List.filter (fun row -> Hashtbl.mem retained (Row.tid row))
    |> List.map (fun row -> Row.cell row 0)
    |> List.sort Value.compare
  in
  (* The frozen predicate is 101 < ts + 10, i.e. ts > 91; uid must be 1.
     So ts 92, 99, 100 are retained; 80, 89 are out of any future
     window; 95 is uid 2. *)
  Alcotest.check (Alcotest.list value) "retained exactly the live window"
    [ i 92; i 99; i 100 ] kept_ts

let test_boolean_policy_distinct_on () =
  let _, e, is_log = setup () in
  (* Example 4.1's P1: boolean, self-join -> two keyed witnesses *)
  let p =
    Engine.add_policy e ~name:"nj"
      "SELECT DISTINCT 'no joins' FROM schema p1, schema p2 \
       WHERE p1.ts = p2.ts AND p1.irid = 'emp' AND p2.irid != 'emp'"
  in
  let ws = Witness.for_policy ~is_log p in
  match get "schema" ws with
  | Witness.Keep_all -> Alcotest.fail "expected queries"
  | Witness.Queries qs ->
    Alcotest.(check int) "one witness per self-join occurrence" 2 (List.length qs);
    List.iter
      (fun (q : Witness.query) ->
        match q.Witness.keys, q.Witness.select.Ast.distinct with
        | Some 1, Ast.All -> ()
        | Some _, Ast.All -> Alcotest.fail "one key: the target's ts"
        | Some _, _ -> Alcotest.fail "keys are picked by Witness.scan, not the query"
        | None, _ -> Alcotest.fail "boolean policy witness must keep one tuple per key")
      qs

let test_neighborhood_restriction () =
  let _, e, is_log = setup () in
  (* users and schema are ts-joined; provenance is NOT: provenance must not
     appear in users' witness FROM. *)
  let p =
    Engine.add_policy e ~name:"nb"
      "SELECT DISTINCT 'x' FROM users u, schema s, provenance p \
       WHERE u.ts = s.ts AND u.uid = 1 AND p.irid = 'emp'"
  in
  let ws = Witness.for_policy ~is_log p in
  (match get "users" ws with
  | Witness.Queries [ q ] ->
    let sql = Sql_print.select q.Witness.select in
    Alcotest.(check bool) "schema in neighborhood" true
      (Test_policy.contains_substring sql "schema");
    Alcotest.(check bool) "provenance not in neighborhood" false
      (Test_policy.contains_substring sql "provenance")
  | _ -> Alcotest.fail "expected single users witness");
  match get "provenance" ws with
  | Witness.Queries [ q ] ->
    Alcotest.(check int) "provenance witness stands alone" 1
      (List.length q.Witness.select.Ast.from)
  | _ -> Alcotest.fail "expected single provenance witness"

let test_unsupported_clock_keeps_all () =
  let _, e, is_log = setup () in
  let p =
    Engine.add_policy e ~name:"neq"
      "SELECT DISTINCT 'x' FROM users u, clock c WHERE u.ts != c.ts"
  in
  match get "users" (Witness.for_policy ~is_log p) with
  | Witness.Keep_all -> ()
  | Witness.Queries _ -> Alcotest.fail "clock != must disable compaction"

let test_ti_rewritten_policy_empty_witness () =
  let db, e, is_log = setup () in
  let p =
    Engine.add_policy e ~name:"ti"
      "SELECT DISTINCT 'x' FROM users u, schema s WHERE u.ts = s.ts AND u.uid = 1"
  in
  let p = Time_independent.apply ~is_log p in
  (* seed some log content *)
  let users = Database.table db "users" in
  ignore (Table.insert users [| i 3; i 1 |]);
  let ws = Witness.for_policy ~is_log p in
  match get "users" ws with
  | Witness.Keep_all -> Alcotest.fail "expected queries"
  | Witness.Queries qs ->
    (* Example 4.4: all witnesses of a TI-rewritten policy are empty. *)
    List.iter
      (fun (q : Witness.query) ->
        Alcotest.(check bool) "witness empty" true
          (Executor.is_empty (Database.catalog db) (Ast.Select q.Witness.select)))
      qs

(* Soundness property: evaluating the policy on the compacted log agrees
   with evaluating it on the full log, for the current time and future
   times (absolute witness, Def 4.1). Uses randomized logs. *)
let test_witness_soundness_randomized () =
  let rng = Mimic.Rng.create ~seed:7 in
  for _trial = 1 to 25 do
    let db, e, is_log = setup () in
    let window = 3 + Mimic.Rng.int rng 8 in
    let threshold = 1 + Mimic.Rng.int rng 3 in
    let p =
      Engine.add_policy e
        ~name:"rnd"
        (Printf.sprintf
           "SELECT DISTINCT 'v' FROM users u, clock c WHERE u.uid = 1 AND u.ts > c.ts - %d \
            HAVING COUNT(DISTINCT u.ts) > %d"
           window threshold)
    in
    let users = Database.table db "users" in
    let now = 20 in
    for ts = 1 to now do
      if Mimic.Rng.int rng 3 > 0 then
        ignore (Table.insert users [| i ts; i (Mimic.Rng.int rng 2) |])
    done;
    let retained =
      witness_retained db ~now (get "users" (Witness.for_policy ~is_log p))
    in
    (* Full-log vs compacted-log evaluation from now+1 on: compaction runs
       after the time-now check, and Lemma 4.3's currenttime+1 frontier
       only guarantees evaluations from the next timestamp onwards. *)
    let eval_at t =
      Usage_log.set_clock db t;
      Executor.is_empty (Database.catalog db) p.Policy.query
    in
    let full = List.init (window + 3) (fun k -> eval_at (now + 1 + k)) in
    ignore (Table.retain_tids users retained);
    let compacted = List.init (window + 3) (fun k -> eval_at (now + 1 + k)) in
    Alcotest.(check (list bool)) "absolute witness preserves evaluation" full compacted
  done

let suite =
  [
    tc "window policy witness shape" test_window_policy_witness;
    tc "window witness semantics" test_window_witness_semantics;
    tc "deadlines match the executor's comparison" test_deadline_matches_comparison;
    tc "boolean policy DISTINCT ON" test_boolean_policy_distinct_on;
    tc "neighborhood restriction" test_neighborhood_restriction;
    tc "unsupported clock keeps all" test_unsupported_clock_keeps_all;
    tc "TI-rewritten policy has empty witness" test_ti_rewritten_policy_empty_witness;
    Alcotest.test_case "witness soundness (randomized)" `Slow
      test_witness_soundness_randomized;
  ]
