(* Strategy-specific engine behaviour: union message mapping, serial vs
   interleaved call counts, improved-partial pruning, compaction of an
   increment no witness keeps, and a long-horizon equivalence stream. *)

open Datalawyer
open Test_support

let base_db () =
  db_of_script
    {|
    CREATE TABLE data (k INT, v TEXT);
    INSERT INTO data VALUES (1, 'a'), (2, 'b'), (3, 'c')
    |}

let accepted = function Engine.Accepted _ -> true | Engine.Rejected _ -> false
let messages = function Engine.Rejected (ms, _) -> ms | Engine.Accepted _ -> []

let always_fires name =
  Printf.sprintf "SELECT DISTINCT '%s fired' FROM users u WHERE u.uid = 1" name

let test_union_reports_every_violation () =
  let db = base_db () in
  (* domains = 1: the single-UNION-call pin below is a property of the
     serial path; a pool evaluates one call per branch (same outcome). *)
  let e =
    Engine.create
      ~config:
        {
          Engine.noopt_config with
          Engine.strategy = Engine.Union_all;
          domains = 1;
        }
      db
  in
  ignore (Engine.add_policy e ~name:"a" (always_fires "a"));
  ignore (Engine.add_policy e ~name:"b" (always_fires "b"));
  let r = Engine.submit e ~uid:1 "SELECT v FROM data WHERE k = 1" in
  Alcotest.(check (slist string compare)) "both messages via union"
    [ "a fired"; "b fired" ] (messages r);
  Alcotest.(check int) "single policy call" 1 (Engine.stats_of r).Stats.policy_calls

let test_serial_counts_calls () =
  let db = base_db () in
  let e =
    Engine.create ~config:{ Engine.noopt_config with Engine.strategy = Engine.Serial } db
  in
  for k = 1 to 4 do
    ignore
      (Engine.add_policy e
         ~name:(Printf.sprintf "p%d" k)
         (Printf.sprintf "SELECT DISTINCT 'p%d' FROM users u WHERE u.uid = 99" k))
  done;
  match Engine.submit e ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted (_, st) ->
    Alcotest.(check int) "one call per policy" 4 st.Stats.policy_calls
  | Engine.Rejected _ -> Alcotest.fail "no policy applies to uid 1"

let test_improved_partial_prunes_committed_window () =
  (* A window policy whose partial stays non-empty because of committed
     rows: improved-partial must still prune it for a different user,
     avoiding provenance generation. *)
  let db = base_db () in
  let config =
    { Engine.default_config with Engine.unification = false; preemptive = false }
  in
  let e = Engine.create ~config db in
  ignore
    (Engine.add_policy e ~name:"win"
       "SELECT DISTINCT 'window quota' FROM provenance p, users u, clock c \
        WHERE p.ts = u.ts AND u.uid = 1 AND p.irid = 'data' AND p.ts > c.ts \
        - 50 HAVING COUNT(DISTINCT p.itid) > 100");
  (* uid 1 creates committed window content *)
  ignore (Engine.submit e ~uid:1 "SELECT v FROM data");
  let prov_before = Engine.log_size e "provenance" in
  Alcotest.(check bool) "uid 1 logged provenance" true (prov_before > 0);
  (* uid 2: the users-partial is non-empty (uid 1's committed rows are in
     the window) but independent of the increment -> pruned *)
  (match Engine.submit e ~uid:2 "SELECT v FROM data" with
  | Engine.Accepted (_, st) ->
    Alcotest.(check bool) "pruned cheaply" true (st.Stats.policy_calls <= 2);
    Alcotest.(check int) "no new provenance for uid 2" prov_before
      (Engine.log_size e "provenance")
  | Engine.Rejected _ -> Alcotest.fail "uid 2 must pass");
  (* with improved-partial off, the loop continues to provenance *)
  Engine.set_config e { config with Engine.improved_partial = false };
  match Engine.submit e ~uid:2 "SELECT v FROM data" with
  | Engine.Accepted (_, st) ->
    Alcotest.(check bool) "without the optimization, more work" true
      (st.Stats.policy_calls >= 2)
  | Engine.Rejected _ -> Alcotest.fail "uid 2 must still pass"

(* Increment probes against the source-tid reference on fixed scripts:
   per submission, each probe decision as (πS's FROM length, probe
   kept, reference kept). Relevance is off so every check reaches the
   probes, TI rewriting is off so the policy keeps its shape, and
   compaction is off so the committed log keeps every row. *)
let probe_config =
  {
    Engine.default_config with
    Engine.unification = false;
    log_compaction = false;
    preemptive = false;
    relevance = false;
    time_independent = false;
    domains = 1;
  }

let probe_db () =
  db_of_script
    {|
    CREATE TABLE data (k INT, v TEXT);
    INSERT INTO data VALUES (1, 'a'), (2, 'b'), (3, 'c');
    CREATE TABLE other (w TEXT);
    INSERT INTO other VALUES ('x')
    |}

let decisions_of e (uid, sql) =
  Test_support.probe_decisions (fun () ->
      match Engine.submit e ~uid sql with
      | Engine.Accepted _ -> ()
      | Engine.Rejected _ -> Alcotest.fail "the policy never fires")
  |> List.map (fun (pq, kept, reference) ->
         let width =
           match pq with
           | Relational.Ast.Select s -> List.length s.Relational.Ast.from
           | Relational.Ast.Union _ -> 0
         in
         (width, kept, reference))

let decisions = Alcotest.(list (list (triple int bool bool)))

let test_probe_two_log_slots () =
  (* At the schema stage πS joins users and schema, provenance not yet
     generated. The second submission reads [other], so πS's only
     binding (s.irid = 'data') is committed: pruned, as the reference
     does. The third reads [data] again: its binding is in the
     increment, and the policy is kept. *)
  let e = Engine.create ~config:probe_config (probe_db ()) in
  ignore
    (Engine.add_policy e ~name:"pair"
       "SELECT DISTINCT 'pair' FROM users u, schema s, provenance p WHERE \
        u.ts = s.ts AND s.ts = p.ts AND s.irid = 'data' AND p.itid = 99");
  let got =
    List.map (decisions_of e)
      [ (1, "SELECT v FROM data"); (1, "SELECT w FROM other"); (1, "SELECT v FROM data") ]
  in
  Alcotest.check decisions "users stage kept; schema stage by its binding"
    [
      [ (1, true, true); (2, true, true); (3, false, false) ];
      [ (1, true, true); (2, false, false) ];
      [ (1, true, true); (2, true, true) ];
    ]
    got;
  Alcotest.(check (option string)) "one probe prune per committed-only check"
    (Some "2") (List.assoc_opt "partial-probe-prunes" (Engine.counters e))

let test_probe_grouped () =
  (* A grouped πS whose HAVING holds for committed groups only: uid 1's
     two committed ticks pass COUNT(DISTINCT u.ts) > 1, uid 2's single
     increment tick does not. The reference prunes (no passing group
     draws on the increment); the probe, which tests the HAVING-stripped
     core, keeps — the permitted direction. A third uid-1 submission
     passes with an increment tick, and both keep. At the provenance
     stage πS is the policy itself, which (aggregated) has no delta
     verdict: its probe runs there and, like the reference, prunes, since
     no provenance row has itid 99. *)
  let e = Engine.create ~config:probe_config (probe_db ()) in
  ignore
    (Engine.add_policy e ~name:"ticks"
       "SELECT DISTINCT 'ticks' FROM users u, schema s, provenance p WHERE \
        u.ts = s.ts AND s.ts = p.ts AND p.itid = 99 GROUP BY u.uid HAVING \
        COUNT(DISTINCT u.ts) > 1");
  let q = "SELECT v FROM data" in
  (* uid 1's first tick alone fails the HAVING: πS is empty. *)
  let got = List.map (decisions_of e) [ (1, q); (1, q); (2, q); (1, q) ] in
  Alcotest.check decisions "probe keeps every policy the reference keeps"
    [
      [ (1, false, false) ];
      [ (1, true, true); (2, true, true); (3, false, false) ];
      [ (1, true, false); (2, true, false); (3, false, false) ];
      [ (1, true, true); (2, true, true); (3, false, false) ];
    ]
    got

let test_prune_counters_table2 () =
  (* Table 2's P1–P6, uid 1 with other users interleaved: which
     interleaved route pruned, per submission, by exact count. uid 1's
     own increment lies in P5's and P6's windows, so its probes keep
     them; another user's users-stage πS of P5 and P6 holds only uid 1's
     committed rows, so both are pruned by probe. *)
  let s = Workload.Runner.make () in
  let e = s.Workload.Runner.engine in
  let counter = Test_support.counter e in
  let prunes () = (counter "partial-empty-prunes", counter "partial-probe-prunes") in
  let got =
    List.map
      (fun (uid, qn) ->
        let empty0, probe0 = prunes () in
        let q = Workload.Runner.query s qn in
        (match Engine.submit e ~uid q.Workload.Queries.sql with
        | Engine.Accepted _ -> ()
        | Engine.Rejected _ -> Alcotest.fail "the script stays within every policy");
        let empty1, probe1 = prunes () in
        (empty1 - empty0, probe1 - probe0))
      [ (1, "W1"); (1, "W2"); (1, "W1"); (1, "W3"); (2, "W1"); (0, "W1"); (1, "W1"); (2, "W2") ]
  in
  Alcotest.(check (list (pair int int)))
    "(empty, probe) prunes per submission"
    [ (5, 0); (4, 0); (5, 0); (4, 0); (2, 2); (2, 2); (5, 0); (2, 2) ]
    got

(* A policy is checked only at a stage that generated one of its own
   log relations. [prov] joins provenance with [banned]; before
   provenance is generated its πS is a scan of [banned], the same rows
   at the users and at the schema stage, which no increment can change.
   So each submission makes one policy call, [secret]'s users-stage
   probe, and three relevance checks: at the schema stage the index
   skips [secret] (the queries read no relation named 'secret'), at the provenance
   stage it skips [prov] (no provenance row joins the ban list).
   Checking [prov] at every stage would add two scans of [banned] and
   two relevance checks per submission. *)
let test_checked_only_at_own_stages () =
  let db =
    db_of_script
      {|
      CREATE TABLE data (k INT, v TEXT);
      INSERT INTO data VALUES (1, 'a'), (2, 'b'), (3, 'c');
      CREATE TABLE banned (uid INT);
      INSERT INTO banned VALUES (50), (100), (150)
      |}
  in
  let e =
    Engine.create
      ~config:{ Engine.default_config with Engine.unification = false; domains = 1 }
      db
  in
  ignore
    (Engine.add_policy e ~name:"secret"
       "SELECT DISTINCT 'secret' FROM users u, schema s WHERE u.ts = s.ts AND \
        s.irid = 'secret'");
  ignore
    (Engine.add_policy e ~name:"prov"
       "SELECT DISTINCT 'prov' FROM provenance p, banned b WHERE p.irid = 'data' \
        AND p.itid = b.uid");
  let calls sql =
    match Engine.submit e ~uid:1 sql with
    | Engine.Accepted (_, st) -> st.Stats.policy_calls
    | Engine.Rejected _ -> Alcotest.fail "no policy fires"
  in
  let got =
    List.map calls
      [ "SELECT v FROM data WHERE k = 1"; "SELECT v FROM data"; "SELECT v FROM data WHERE k = 2" ]
  in
  Alcotest.(check (list int)) "policy calls per submission" [ 1; 1; 1 ] got;
  Alcotest.(check (pair int int)) "relevance checks, skips" (9, 6)
    (counter e "relevance-checks", counter e "relevance-skips")

(* A witness that can never keep uid 2's provenance (its uid = 1 filter)
   leaves no row of that increment in the log, with the §4.3 preemptive
   check on or off. With it on, the interleaved loop prunes the policy
   on [users] alone, and the commit's probe then skips generating
   [provenance]; with it off, provenance is generated and compaction
   drops it. *)
let test_unwitnessed_increment_leaves_no_row () =
  List.iter
    (fun preemptive ->
      let db = base_db () in
      let config =
        { Engine.default_config with Engine.unification = false; preemptive }
      in
      let e = Engine.create ~config db in
      ignore
        (Engine.add_policy e ~name:"win"
           "SELECT DISTINCT 'window quota' FROM provenance p, users u, clock c \
            WHERE p.ts = u.ts AND u.uid = 1 AND p.irid = 'data' AND p.ts > c.ts \
            - 50 HAVING COUNT(DISTINCT p.itid) > 100");
      (match Engine.submit e ~uid:2 "SELECT v FROM data" with
      | Engine.Accepted _ -> ()
      | Engine.Rejected _ -> Alcotest.fail "must pass");
      Alcotest.(check int)
        (Printf.sprintf "no provenance row kept (preemptive = %b)" preemptive)
        0
        (Engine.log_size e "provenance");
      let skips = counter e "witness-preemptive-skips" in
      if preemptive then
        Alcotest.(check bool) "provenance skipped preemptively" true (skips > 0)
      else Alcotest.(check int) "no preemptive skip" 0 skips)
    [ true; false ]

let test_invalid_query_leaves_engine_usable () =
  (* A user query that fails inside the provenance function (unknown
     table) must revert the tentative log and leave the engine healthy. *)
  let db = base_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"win"
       "SELECT DISTINCT 'q' FROM provenance p, users u, clock c WHERE p.ts = \
        u.ts AND p.ts > c.ts - 50 HAVING COUNT(DISTINCT p.itid) > 1000");
  let before = Engine.log_size e "users" in
  (match Engine.submit e ~uid:1 "SELECT x FROM no_such_table" with
  | exception Relational.Errors.Sql_error (Relational.Errors.Catalog_error, _) -> ()
  | _ -> Alcotest.fail "invalid query must raise");
  Alcotest.(check int) "log reverted after failure" before (Engine.log_size e "users");
  (* the engine still works afterwards *)
  Alcotest.(check bool) "subsequent query fine" true
    (accepted (Engine.submit e ~uid:1 "SELECT v FROM data WHERE k = 1"));
  (match Engine.submit e ~uid:1 "SELECT nope FROM data" with
  | exception Relational.Errors.Sql_error (Relational.Errors.Bind_error, _) -> ()
  | _ -> Alcotest.fail "bad column must raise");
  Alcotest.(check bool) "still fine after bind error" true
    (accepted (Engine.submit e ~uid:1 "SELECT v FROM data WHERE k = 2"))

let test_long_horizon_equivalence () =
  (* 200 queries with tight thresholds: NoOpt and DataLawyer must agree on
     every decision, and the optimized log must stay bounded. *)
  let mimic = { Mimic.Generate.small_config with n_patients = 40; events_per_patient = 5 } in
  let params =
    {
      Workload.Policies.default_params with
      p1_window = 5;
      p1_max_users = 2;
      p5_window = 8;
      p5_max_fraction = 0.6;
      p6_window = 6;
      p6_max_uses = 4;
    }
  in
  let stream =
    List.init 200 (fun k -> ((k * 7) mod 5, [ "W1"; "W2"; "W1"; "W3"; "W1" ] |> fun l -> List.nth l (k mod 5)))
  in
  let run config =
    let s = Workload.Runner.make ~mimic ~params ~config () in
    let decisions =
      List.map
        (fun (uid, qn) ->
          let q = Workload.Runner.query s qn in
          accepted (Engine.submit s.Workload.Runner.engine ~uid q.Workload.Queries.sql))
        stream
    in
    (decisions, Engine.log_size s.Workload.Runner.engine "users"
                + Engine.log_size s.Workload.Runner.engine "provenance")
  in
  let d_noopt, sz_noopt = run Engine.noopt_config in
  let d_full, sz_full = run Engine.default_config in
  Alcotest.(check (list bool)) "200 decisions agree" d_noopt d_full;
  Alcotest.(check bool)
    (Printf.sprintf "log bounded (%d vs %d)" sz_full sz_noopt)
    true
    (sz_full * 5 < sz_noopt)

let suite =
  [
    tc "union reports every violation" test_union_reports_every_violation;
    tc "serial counts calls" test_serial_counts_calls;
    tc "improved partial prunes committed window" test_improved_partial_prunes_committed_window;
    tc "increment probe: two log slots" test_probe_two_log_slots;
    tc "increment probe: grouped partial" test_probe_grouped;
    tc "prune counters on Table 2, uid 1" test_prune_counters_table2;
    tc "a policy is checked only at its own stages" test_checked_only_at_own_stages;
    tc "an increment no witness keeps leaves no row"
      test_unwitnessed_increment_leaves_no_row;
    tc "invalid query leaves engine usable" test_invalid_query_leaves_engine_usable;
    Alcotest.test_case "long-horizon equivalence (200 queries)" `Slow
      test_long_horizon_equivalence;
  ]
