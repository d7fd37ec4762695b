(* Deterministic pins for incremental (delta-driven) policy
   evaluation: the SPJ delta path actually runs on the shapes it claims,
   catches the violating increment from the delta alone, and falls back
   after the invalidations it must honour; clock-reading policies run
   their clock-eliminated plans, and aggregate policies evaluate in full
   with their verdicts intact. Verdict identity with delta off, and with
   Eq. 1, is the differential oracle's job (test_oracle.ml); these pins
   check the machinery engages, which that property alone would not
   notice if everything silently fell back. *)

open Relational
open Datalawyer

let tc = Test_support.tc

(* TI rewriting is the offline optimization for time-independent
   policies (it already restricts them to the increment, via a clock
   atom that takes them off the delta path); these pins turn it off so
   the plain templates reach the SPJ delta path and the GROUP BY/HAVING
   ones are refused by delta classification itself. *)
(* [delta] is pinned on: these cases test the delta machinery itself.
   The relevance index is pinned off: it proves these simple templates
   unaffected before the delta path would even run, and the pins are
   about the delta path (test_unify_scale pins the index's own
   behavior). *)
let ti_off =
  {
    Engine.default_config with
    Engine.domains = 1;
    time_independent = false;
    delta = true;
    relevance = false;
  }

let make_engine ?(config = ti_off) () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'); \
        CREATE TABLE banned (uid INT); INSERT INTO banned VALUES (9)");
  (db, Engine.create ~config db)

let test_delta_path_runs () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"blocked" (Test_oracle.template "blocked"));
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "one eligible plan" 1 d.Engine.eligible_plans;
  Alcotest.(check int) "no fallback plans" 0 d.Engine.fallback_plans;
  Alcotest.(check bool) "a base is recorded" true (d.Engine.delta_bases >= 1);
  Alcotest.(check bool) "delta evals happened" true (d.Engine.delta_evals >= 1)

let test_delta_detects_violation () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"blocked" (Test_oracle.template "blocked"));
  (* establish the base... *)
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  (* ...then the violating increment must be caught from the delta alone *)
  match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "message" "uid 2 blocked" m
  | _ -> Alcotest.fail "uid 2 must be rejected"

let submit_ok engine ~uid what =
  match Engine.submit engine ~uid "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected (ms, _) ->
    Alcotest.failf "%s must pass, got [%s]" what (String.concat "; " ms)

(* A policy joining the clock is not delta-eligible: its evaluations
   (here the interleaved partial policy over [users], empty until a
   third user arrives) run the clock-eliminated plan, whose window is a
   [ts]-index probe, whether [delta] is on or off. As written, the
   clock join would examine every log row. Compaction is off so the log
   outgrows the window, and the window has no constant pin for an
   index to take instead. *)
let test_clock_policy_runs_eliminated_plan () =
  List.iter
    (fun delta ->
      let what s = Printf.sprintf "%s (delta=%b)" s delta in
      let _, engine =
        make_engine ~config:{ ti_off with Engine.delta; log_compaction = false } ()
      in
      ignore
        (Engine.add_policy engine ~name:"busy"
           "SELECT DISTINCT 'busy window' FROM users u, clock c WHERE u.ts > \
            c.ts - 4 HAVING COUNT(DISTINCT u.uid) > 2");
      for i = 1 to 40 do
        submit_ok engine ~uid:(1 + (i mod 2)) (Printf.sprintf "submission %d" i)
      done;
      let d = Engine.delta_stats engine in
      Alcotest.(check int) (what "no eligible plan") 0 d.Engine.eligible_plans;
      Alcotest.(check int) (what "no delta evals") 0 d.Engine.delta_evals;
      let probes = Atomic.get Executor.index_probes in
      let examined = Atomic.get Executor.rows_examined in
      submit_ok engine ~uid:1 "inside the log";
      Alcotest.(check bool) (what "the window probes the ts index") true
        (Atomic.get Executor.index_probes > probes);
      Alcotest.(check bool)
        (what "rows examined bounded by the window, not the log")
        true
        (Atomic.get Executor.rows_examined - examined < 20
        && Engine.log_size engine "users" > 40);
      (* A third user inside the window trips the policy. *)
      let probes = Atomic.get Executor.index_probes in
      (match Engine.submit engine ~uid:3 "SELECT v FROM data WHERE k = 1" with
      | Engine.Rejected ([ m ], _) ->
        Alcotest.(check string) (what "message") "busy window" m
      | _ -> Alcotest.fail (what "the third user must be rejected"));
      Alcotest.(check bool) (what "the verdict probed the ts index") true
        (Atomic.get Executor.index_probes > probes))
    [ true; false ]

(* A clock-free aggregate policy is not delta-eligible: a HAVING over
   the whole log is not monotone, so it evaluates in full. The verdicts
   are the pin: the third uid-2 row is over quota, and the rolled-back
   increment does not count toward the next check. *)
let test_agg_policy_evaluates_in_full () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"quota2" (Test_oracle.template "agg-quota2"));
  submit_ok engine ~uid:1 "warm-up";
  submit_ok engine ~uid:1 "uid 1 again";
  submit_ok engine ~uid:2 "uid 2 first";
  submit_ok engine ~uid:2 "uid 2 second";
  Alcotest.(check int) "not delta-eligible" 0
    (Engine.delta_stats engine).Engine.eligible_plans;
  (* The third uid-2 row pushes the count past 2. *)
  (match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "message" "uid 2 over quota" m
  | _ -> Alcotest.fail "third uid-2 submission must be rejected");
  (* The rejected increment was rolled back and must NOT count: the
     next one still counts 2+1. *)
  (match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "message again" "uid 2 over quota" m
  | _ -> Alcotest.fail "fourth uid-2 submission must be rejected");
  submit_ok engine ~uid:1 "uid 1 unaffected"

let test_min_max_aggregate_evaluates_in_full () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"spread" (Test_oracle.template "spread3"));
  submit_ok engine ~uid:3 "t1";
  submit_ok engine ~uid:3 "t2";
  submit_ok engine ~uid:1 "t3";
  submit_ok engine ~uid:1 "t4";
  submit_ok engine ~uid:1 "t5";
  (* Ticks 1..6: uid 3's third row at tick 6 makes MAX-MIN = 5 > 4 with
     COUNT 3 > 2. *)
  (match Engine.submit engine ~uid:3 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "message" "uid 3 spread" m
  | _ -> Alcotest.fail "tick-6 submission must be rejected");
  Alcotest.(check int) "not delta-eligible" 0
    (Engine.delta_stats engine).Engine.eligible_plans

(* The Table-2 workload policies (P1–P6) under the default
   configuration: P1, P5 and P6 join the clock, and TI rewriting pins
   P2–P4 to it, so none is delta-eligible — every one runs its
   clock-eliminated plan, and each submission probes an index per
   policy. Without TI rewriting, P2 (SPJ) classifies onto the delta
   path while P3/P4 (aggregates) evaluate in full, and a steady accepted
   stream adds no full evaluations of P2 after the first
   (base-establishing) submission.
   Relevance is pinned off and the strategy serial so every policy
   reaches [delta_try] on every submission (a relevance skip or an
   interleaved partial-prune bumps neither counter and would vacuously
   pass the zero-full pin). *)
let test_table2_policies_on_delta_or_eliminated () =
  let sql = "SELECT subject_id FROM d_patients WHERE subject_id = 1" in
  let submit engine what =
    match Engine.submit engine ~uid:2 sql with
    | Engine.Accepted _ -> ()
    | Engine.Rejected (ms, _) ->
      Alcotest.failf "%s must pass, got [%s]" what (String.concat "; " ms)
  in
  let engine time_independent =
    let config =
      {
        Engine.default_config with
        Engine.domains = 1;
        Engine.strategy = Engine.Serial;
        time_independent;
        delta = true;
        relevance = false;
      }
    in
    (Workload.Runner.make ~config ()).Workload.Runner.engine
  in
  let ti = engine true in
  submit ti "warm-up";
  let d = Engine.delta_stats ti in
  Alcotest.(check int) "TI: no eligible plan" 0 d.Engine.eligible_plans;
  Alcotest.(check int) "TI: six clock-reading plans" 6 d.Engine.fallback_plans;
  let probes = Atomic.get Executor.index_probes in
  submit ti "steady submission";
  Alcotest.(check bool) "TI: an index probe per policy" true
    (Atomic.get Executor.index_probes - probes >= 6);
  let plain = engine false in
  submit plain "warm-up";
  let d0 = Engine.delta_stats plain in
  Alcotest.(check int) "no TI: P2 eligible" 1 d0.Engine.eligible_plans;
  Alcotest.(check int) "no TI: P1, P5, P6 read the clock, P3/P4 aggregate" 5
    d0.Engine.fallback_plans;
  for i = 1 to 5 do
    submit plain (Printf.sprintf "steady submission %d" i)
  done;
  let d = Engine.delta_stats plain in
  Alcotest.(check int) "zero full evals on the steady stream"
    d0.Engine.full_evals d.Engine.full_evals;
  (* P2 alone: one delta evaluation per steady submission. *)
  Alcotest.(check bool) "delta evals cover the stream" true
    (d.Engine.delta_evals >= d0.Engine.delta_evals + 5)

let test_plain_mutation_invalidates () =
  let db, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"banned" (Test_oracle.template "banned"));
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  let before = (Engine.delta_stats engine).Engine.full_evals in
  ignore
    (Dml.exec (Database.catalog db) (Parser.stmt "INSERT INTO banned VALUES (2)"));
  (* the mutated plain dependency forces a full re-run, which must now
     see the fresh banned row *)
  (match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "message" "banned uid" m
  | _ -> Alcotest.fail "uid 2 must be rejected after the banned insert");
  let after = (Engine.delta_stats engine).Engine.full_evals in
  Alcotest.(check bool) "a full eval was counted" true (after > before)

(* The accept proof is one record, but each check reads only its own
   dependencies: DML on [banned] sends the ban-list policy back to full
   evaluation, and leaves the policy over [data] on its delta plans
   (relevance off) or its relevance skip (relevance on). *)
let test_proof_checked_per_dependency () =
  List.iter
    (fun relevance ->
      let what s = Printf.sprintf "%s (relevance=%b)" s relevance in
      let db, engine =
        make_engine
          ~config:{ ti_off with Engine.strategy = Engine.Serial; relevance }
          ()
      in
      ignore (Engine.add_policy engine ~name:"banned" (Test_oracle.template "banned"));
      ignore
        (Engine.add_policy engine ~name:"touch"
           "SELECT DISTINCT 'data touch' FROM users u, data d WHERE u.uid = \
            d.k AND d.v = 'z'");
      submit_ok engine ~uid:2 (what "first");
      submit_ok engine ~uid:2 (what "second");
      let d0 = Engine.delta_stats engine in
      let r0 = Engine.relevance_stats engine in
      ignore
        (Dml.exec (Database.catalog db) (Parser.stmt "INSERT INTO banned VALUES (5)"));
      submit_ok engine ~uid:2 (what "after the insert");
      let d1 = Engine.delta_stats engine in
      let r1 = Engine.relevance_stats engine in
      Alcotest.(check int) (what "the ban-list policy falls back") 1
        (d1.Engine.full_evals - d0.Engine.full_evals);
      Alcotest.(check int) (what "the data policy stays on delta")
        (if relevance then 0 else 1)
        (d1.Engine.delta_evals - d0.Engine.delta_evals);
      Alcotest.(check int) (what "the data policy stays skipped")
        (if relevance then 1 else 0)
        (r1.Engine.rel_skips - r0.Engine.rel_skips);
      (* Only the engine writes the log: a DELETE on [users] raises,
         moves no counter and leaves the proof covering both policies
         (the ban-list policy's index filter went stale at the [banned]
         insert, so it runs on delta instead of being skipped). *)
      let counts () =
        let d = Engine.delta_stats engine and r = Engine.relevance_stats engine in
        (d.Engine.full_evals, d.Engine.delta_evals, r.Engine.rel_skips)
      in
      let c0 = counts () in
      (match Dml.exec (Database.catalog db) (Parser.stmt "DELETE FROM users WHERE uid = 7") with
      | exception Errors.Sql_error _ -> ()
      | _ -> Alcotest.fail (what "a DELETE on users must raise"));
      Alcotest.(check (triple int int int)) (what "the refused delete: full, delta, skips") c0
        (counts ());
      submit_ok engine ~uid:2 (what "after the refused delete");
      let full, delta, skips = counts () in
      let full0, delta0, skips0 = c0 in
      Alcotest.(check (triple int int int))
        (what "the submission after: full, delta, skips")
        (if relevance then (0, 1, 1) else (0, 2, 0))
        (full - full0, delta - delta0, skips - skips0))
    [ false; true ]

(* Every [Engine.counters] key counts over the engine's lifetime; the
   delta ones too survive the invalidation a registration or a config
   change brings. *)
let test_delta_counters_engine_lifetime () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"blocked" (Test_oracle.template "blocked"));
  submit_ok engine ~uid:1 "first";
  submit_ok engine ~uid:1 "second";
  let d0 = Engine.delta_stats engine in
  Alcotest.(check bool) "both counters moved" true
    (d0.Engine.delta_evals > 0 && d0.Engine.full_evals > 0);
  ignore (Engine.add_policy engine ~name:"banned" (Test_oracle.template "banned"));
  let d1 = Engine.delta_stats engine in
  Alcotest.(check int) "delta evals survive add_policy" d0.Engine.delta_evals
    d1.Engine.delta_evals;
  Alcotest.(check int) "full evals survive add_policy" d0.Engine.full_evals
    d1.Engine.full_evals;
  Alcotest.(check int) "the proof does not" 0 d1.Engine.delta_bases;
  Engine.set_config engine ti_off;
  let d2 = Engine.delta_stats engine in
  Alcotest.(check int) "delta evals survive set_config" d0.Engine.delta_evals
    d2.Engine.delta_evals;
  Alcotest.(check int) "full evals survive set_config" d0.Engine.full_evals
    d2.Engine.full_evals

let test_time_dependent_join_eligible_under_defaults () =
  (* Under the full default config, TI rewriting claims the
     time-independent policies; the delta path's remaining jurisdiction
     is exactly the time-DEPENDENT SPJ shapes — cross-time log joins TI
     cannot rewrite — which are also the ones that grow with the log. *)
  let _, engine =
    make_engine
      ~config:{ Engine.default_config with Engine.domains = 1; delta = true }
      ()
  in
  ignore
    (Engine.add_policy engine ~name:"cross"
       "SELECT DISTINCT 'cross-time touch' FROM users u, provenance p WHERE \
        u.uid = p.itid AND p.irid = 'never'");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "one eligible plan" 1 d.Engine.eligible_plans;
  Alcotest.(check bool) "delta evals happened" true (d.Engine.delta_evals >= 1)

let test_delta_off_counts_nothing () =
  let _, engine = make_engine ~config:{ ti_off with Engine.delta = false } () in
  ignore (Engine.add_policy engine ~name:"blocked" (Test_oracle.template "blocked"));
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  let d = Engine.delta_stats engine in
  Alcotest.(check int) "no eligible plans when off" 0 d.Engine.eligible_plans;
  Alcotest.(check int) "no bases when off" 0 d.Engine.delta_bases;
  Alcotest.(check int) "no delta evals when off" 0 d.Engine.delta_evals

(* Delta × unification interplay: a family of member policies identical
   up to literals unifies into one aggregate template joining the
   generated constants table and grouping by the constants. Pinned two
   ways: the unified engine evaluates that template in full at 10k
   members and reports the firing member's message, and a 4-way cross
   (unification × delta) decides a mixed stream bit-identically. *)

let agg_member uid =
  Printf.sprintf
    "SELECT DISTINCT 'uid %d agg quota' FROM users u WHERE u.uid = %d GROUP \
     BY u.uid HAVING COUNT(*) > 2"
    uid uid

let unified_cfg ~unification ~delta =
  {
    Engine.default_config with
    Engine.domains = 1;
    time_independent = false;
    relevance = false;
    unification;
    delta;
  }

let test_unified_aggregate_evaluates_in_full () =
  let _, engine =
    make_engine ~config:(unified_cfg ~unification:true ~delta:true) ()
  in
  let n = 10_000 in
  for i = 1 to n do
    ignore (Engine.add_policy engine ~name:(Printf.sprintf "q%d" i) (agg_member i))
  done;
  submit_ok engine ~uid:1 "warm-up";
  Alcotest.(check int) "all members absorbed" n (Test_support.counter engine "unify-members");
  Alcotest.(check int) "one active policy" 1 (Test_support.counter engine "unify-active");
  submit_ok engine ~uid:1 "second";
  submit_ok engine ~uid:7 "uid 7 first";
  submit_ok engine ~uid:7 "uid 7 second";
  (match Engine.submit engine ~uid:7 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "firing member's message" "uid 7 agg quota" m
  | _ -> Alcotest.fail "uid 7's third submission must be rejected");
  Alcotest.(check int) "unified template is not delta-eligible" 0
    (Engine.delta_stats engine).Engine.eligible_plans

let test_unified_aggregate_cross_differential () =
  let uids = List.init 40 (fun i -> i + 1) in
  let stream =
    [ (5, "a"); (50, "b"); (5, "c"); (5, "d"); (5, "e"); (12, "f"); (50, "g") ]
  in
  let run ~unification ~delta =
    let _, engine = make_engine ~config:(unified_cfg ~unification ~delta) () in
    List.iter
      (fun uid ->
        ignore
          (Engine.add_policy engine ~name:(Printf.sprintf "x%d" uid)
             (agg_member uid)))
      uids;
    List.map
      (fun (uid, tag) ->
        match Engine.submit engine ~uid "SELECT v FROM data WHERE k = 1" with
        | Engine.Accepted (r, _) ->
          Printf.sprintf "%s:ok[%s]" tag
            (String.concat ";" (List.map
                 (fun (o : Executor.row_out) ->
                   Test_oracle.render_row o.Executor.values)
                 r.Executor.out_rows))
        | Engine.Rejected (ms, _) ->
          Printf.sprintf "%s:REJ[%s]" tag (String.concat ";" ms))
      stream
  in
  let reference = run ~unification:false ~delta:false in
  List.iter
    (fun (unification, delta) ->
      Alcotest.(check (list string))
        (Printf.sprintf "unify=%b delta=%b agrees" unification delta)
        reference
        (run ~unification ~delta))
    [ (false, true); (true, false); (true, true) ]

let suite =
  [
    tc "delta path actually runs on an eligible policy" test_delta_path_runs;
    tc "delta evaluation catches the violating increment"
      test_delta_detects_violation;
    tc "clock/HAVING policies run the clock-eliminated plan"
      test_clock_policy_runs_eliminated_plan;
    tc "aggregate policies evaluate in full with exact verdicts"
      test_agg_policy_evaluates_in_full;
    tc "MIN/MAX aggregates evaluate in full"
      test_min_max_aggregate_evaluates_in_full;
    tc "Table-2 workload policies run on delta branches or eliminated plans"
      test_table2_policies_on_delta_or_eliminated;
    tc "plain-table mutation invalidates the base" test_plain_mutation_invalidates;
    tc "the accept proof is checked per dependency"
      test_proof_checked_per_dependency;
    tc "delta counters are engine-lifetime" test_delta_counters_engine_lifetime;
    tc "time-dependent join is eligible under the default config"
      test_time_dependent_join_eligible_under_defaults;
    tc "delta off establishes and evaluates nothing" test_delta_off_counts_nothing;
    tc "unified aggregate template evaluates in full at 10k members"
      test_unified_aggregate_evaluates_in_full;
    tc "unification x delta cross decides identically"
      test_unified_aggregate_cross_differential;
  ]
