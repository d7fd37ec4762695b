(** Bechamel micro-benchmarks for the engine's hot operations: one
    [Test.make] per reproduced table/figure's critical path —

    - Fig. 1/2's inner loop: full policy check of a W1 submission;
    - Fig. 3's mark phase: witness construction for a window policy;
    - Fig. 4's partial policies: πS construction;
    - Fig. 5's unified evaluation: one unified-policy evaluation;
    - Table 4's rewrite: time-independence classification + rewriting;
    - the SQL frontend (parse of a Table 2 policy). *)

open Bechamel
open Toolkit
open Datalawyer

let make_setup () =
  let s =
    Workload.Runner.make ~mimic:Mimic.Generate.small_config
      ~params:Common.bench_params
      ~policy_names:[ "P1"; "P2"; "P3"; "P4"; "P5"; "P6" ] ()
  in
  (* warm the engine so steady-state costs are measured *)
  let q = Workload.Runner.query s "W1" in
  ignore (Workload.Runner.run_stream s ~uid:1 ~n:20 q);
  s

let tests () =
  let s = make_setup () in
  let engine = s.Workload.Runner.engine in
  let db = s.Workload.Runner.db in
  let is_log rel = Relational.Catalog.is_log (Relational.Database.catalog db) rel in
  let w1 = Workload.Runner.query s "W1" in
  let p5 =
    List.find (fun p -> p.Policy.name = "P5") (Engine.policies engine)
  in
  let p2_sql = (Workload.Policies.p2 Common.bench_params).Workload.Policies.sql in
  [
    Test.make ~name:"submit W1 (full policy check)"
      (Staged.stage (fun () ->
           ignore (Engine.submit engine ~uid:1 w1.Workload.Queries.sql)));
    Test.make ~name:"witness construction (P5)"
      (Staged.stage (fun () -> ignore (Witness.for_policy ~is_log p5)));
    Test.make ~name:"partial policy construction (P5, S={users})"
      (Staged.stage (fun () ->
           ignore (Partial.of_query ~is_log ~available:[ "users" ] p5.Policy.query)));
    Test.make ~name:"policy parse + classify (P2)"
      (Staged.stage (fun () ->
           ignore
             (Policy.create
                (Relational.Database.catalog db)
                ~is_log ~name:"bench_p2" ~active_from:0 p2_sql)));
    Test.make ~name:"policy evaluation (P5, compacted log)"
      (Staged.stage (fun () ->
           ignore (Relational.Executor.is_empty (Relational.Database.catalog db) p5.Policy.query)));
  ]

(* Prepared-plan cache: per-submission policy-evaluation latency with the
   cache cleared before every submission (cold — every policy, partial
   policy and witness query is re-bound, re-optimized and re-compiled)
   vs left warm (plans compiled once, executed per submission). *)
let plan_cache_case () =
  Common.header "Plan cache: policy evaluation, cold vs warm";
  (* default thresholds: the compacted log stays small, so compile cost
     is visible next to evaluation (bench_params' larger windows would
     drown it in per-row work) *)
  let s =
    Workload.Runner.make
      ~policy_names:[ "P1"; "P2"; "P3"; "P4"; "P5"; "P6" ]
      ()
  in
  let engine = s.Workload.Runner.engine in
  let q = Workload.Runner.query s "W1" in
  (* warm up until the compacted log reaches steady state, so log growth
     doesn't drift the measurement *)
  ignore (Workload.Runner.run_stream s ~uid:1 ~n:100 q);
  let n = 300 in
  List.iter
    (fun uid ->
      (* interleave cold and warm submissions pairwise: the second
         submission of each pair reuses exactly the plans the first just
         compiled, cancelling any residual log drift *)
      let cold = ref 0. and warm = ref 0. in
      for _ = 1 to n do
        Engine.clear_plan_cache engine;
        let st =
          Engine.stats_of (Engine.submit engine ~uid q.Workload.Queries.sql)
        in
        cold := !cold +. st.Stats.policy_eval;
        let st =
          Engine.stats_of (Engine.submit engine ~uid q.Workload.Queries.sql)
        in
        warm := !warm +. st.Stats.policy_eval
      done;
      Printf.printf
        "policy evaluation per W1 submission (uid %d): cold %.1f us, warm \
         %.1f us (%.2fx)\n"
        uid
        (!cold /. float_of_int n *. 1e6)
        (!warm /. float_of_int n *. 1e6)
        (!cold /. !warm))
    [ 0; 1 ];
  let hits, misses = Engine.plan_cache_stats engine in
  Printf.printf "cache totals: %d hits / %d misses\n" hits misses

(* Access paths: indexed uid-equality policy scan (and a ts window) vs
   the heap baseline over a large usage log — the ISSUE 3 acceptance
   measurement. CI runs this with --smoke (smaller log, fewer iters) and
   the 3x floor still asserts, so access-path regressions fail CI. Like
   every gate below, it prints its failure and returns whether it
   passed. *)
let index_case () =
  Common.header "Access paths: indexed scan vs heap scan";
  let open Relational in
  let smoke = !Common.smoke in
  let n_rows = if smoke then 20_000 else 100_000 in
  let iters = if smoke then 10 else 50 in
  let cat = Catalog.create () in
  let table =
    Catalog.create_table cat ~name:"usage"
      ~schema:(Schema.make [ ("ts", Ty.Int); ("uid", Ty.Int) ])
  in
  for i = 0 to n_rows - 1 do
    ignore (Table.insert table [| Value.Int i; Value.Int (i mod 997) |])
  done;
  let eq_q = Parser.query "SELECT ts, uid FROM usage WHERE uid = 123" in
  let range_q =
    Parser.query "SELECT ts, uid FROM usage WHERE ts >= 1000 AND ts < 1200"
  in
  let time_exec q =
    let c = Executor.prepare cat q in
    ignore (Executor.run_compiled c);
    (Common.measure ~iters (fun () -> ignore (Executor.run_compiled c))).Common.us
  in
  let heap_eq = time_exec eq_q in
  let heap_range = time_exec range_q in
  ignore
    (Dml.exec cat (Parser.stmt "CREATE INDEX ix_usage_uid ON usage USING hash (uid)"));
  ignore
    (Dml.exec cat (Parser.stmt "CREATE INDEX ix_usage_ts ON usage USING sorted (ts)"));
  let ix_eq = time_exec eq_q in
  let ix_range = time_exec range_q in
  Printf.printf
    "uid-equality over %d rows: heap %.1f us, indexed %.1f us (%.1fx)\n" n_rows
    heap_eq ix_eq (heap_eq /. ix_eq);
  Printf.printf
    "ts window over %d rows:    heap %.1f us, indexed %.1f us (%.1fx)\n" n_rows
    heap_range ix_range (heap_range /. ix_range);
  let ok = heap_eq /. ix_eq >= 3.0 in
  if not ok then
    Printf.printf "FAIL: indexed uid-equality speedup %.2fx is below the 3x floor\n"
      (heap_eq /. ix_eq);
  ok

(* Policy registration must precede the log preload — a policy only sees
   log rows from its own history on, so users rows inserted before
   [add_policy] would be invisible to it. Every case that preloads a
   users log goes through here so the ordering is pinned in one place;
   the preloaded rows are (ts = i, uid = i mod 50) and the clock is
   advanced past them. *)
let register_then_preload engine ~policies ~n_rows =
  let db = Engine.database engine in
  List.iter
    (fun (name, sql) -> ignore (Engine.add_policy engine ~name sql))
    policies;
  let users = Relational.Database.table db "users" in
  for i = 1 to n_rows do
    ignore
      (Relational.Table.insert users
         [| Relational.Value.Int i; Relational.Value.Int (i mod 50) |])
  done;
  Usage_log.set_clock db (n_rows + 1)

(* Warm-up submission: compiles every plan (and, with delta on,
   establishes the first base). The bench policies are designed to
   accept, so a rejection means the case itself is broken. *)
let warm_submit engine =
  match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected _ -> failwith "bench policies must accept"
  | Engine.Accepted _ -> ()

(* Domain pool: N expensive policies (nested-loop self-joins over a
   preloaded users log, accepted thanks to huge HAVING thresholds)
   checked per submission, serial vs pooled — the ISSUE 4 acceptance
   measurement. The >= 1.3x floor asserts at min(4, cores) domains, so
   a 2-core host is gated at 2 domains rather than at 4 domains
   oversubscribing its cores; on a single-core host the pooled run
   cannot win and the gate is skipped with a notice. *)
let parallel_case () =
  Common.header "Domain pool: per-submission policy fan-out, serial vs pooled";
  let open Relational in
  let smoke = !Common.smoke in
  let n_log_rows = if smoke then 200 else 400 in
  let n_policies = if smoke then 6 else 8 in
  let iters = if smoke then 3 else 10 in
  let run_with ~domains =
    let db = Database.create () in
    ignore
      (Database.exec_script db
         "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, \
          'a'), (2, 'b')");
    let config =
      {
        Engine.default_config with
        Engine.strategy = Engine.Serial;
        (* unification would collapse the structurally-identical policies
           into one query and erase the fan-out being measured *)
        unification = false;
        log_compaction = false;
        domains;
      }
    in
    let engine = Engine.create ~config db in
    register_then_preload engine ~n_rows:n_log_rows
      ~policies:
        (List.init n_policies (fun j ->
             let k = j + 1 in
             ( Printf.sprintf "expensive%d" k,
               Printf.sprintf
                 "SELECT DISTINCT 'expensive %d' FROM users u, users v, clock \
                  c WHERE u.ts > v.ts - %d AND u.ts <= c.ts AND u.uid * v.uid \
                  > 1000000000 HAVING COUNT(DISTINCT u.ts) > 1000000"
                 k (5 + k) )));
    (* warm: compile every plan once *)
    warm_submit engine;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1")
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int iters in
    (dt, Common.counter engine "parallel-batches", Common.counter engine "parallel-tasks")
  in
  let serial, _, _ = run_with ~domains:1 in
  Printf.printf "%d policies x %d log rows, serial: %.1f ms/submission\n"
    n_policies n_log_rows (serial *. 1000.);
  let gated = min 4 (Domain.recommended_domain_count ()) in
  let speedups =
    List.map
      (fun domains ->
        let pooled, batches, tasks = run_with ~domains in
        let sp = serial /. pooled in
        Printf.printf
          "  %d domains: %.1f ms/submission (%.2fx, %d batches, %d tasks)\n"
          domains (pooled *. 1000.) sp batches tasks;
        (domains, sp))
      (List.sort_uniq compare [ 2; 4; max 2 gated ])
  in
  if gated >= 2 then begin
    let sp = List.assoc gated speedups in
    let ok = sp >= 1.3 in
    if not ok then
      Printf.printf "FAIL: %d-domain speedup %.2fx is below the 1.3x floor\n"
        gated sp;
    ok
  end
  else begin
    Printf.printf
      "(single-core host: the >= 1.3x pooled-speedup floor is skipped)\n";
    true
  end

(* Incremental evaluation: per-submission policy-evaluation latency of a
   delta-eligible SPJ policy over a growing preloaded usage log, delta on
   vs off — the ISSUE 5 acceptance measurement. Full evaluation rescans
   the whole log per submission and grows linearly; delta evaluation
   joins only the submission's increment against the log's watermark and
   stays ~flat, so the speedup at the largest size gates regressions
   (conservative 2x floor in --smoke, 3x otherwise). *)
let delta_case () =
  Common.header "Incremental evaluation: delta vs full policy re-check";
  let open Relational in
  let smoke = !Common.smoke in
  let sizes = if smoke then [ 2_000; 8_000 ] else [ 5_000; 20_000; 80_000 ] in
  let iters = if smoke then 20 else 50 in
  let run_with ~delta ~n =
    let db = Database.create () in
    ignore
      (Database.exec_script db
         "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, \
          'a'), (2, 'b'); CREATE TABLE banned (uid INT); INSERT INTO banned \
          VALUES (999)");
    (* every optimization that shortcuts re-evaluation on its own (TI
       rewriting, compaction) is off, so the comparison isolates the
       delta machinery; Serial keeps one evaluation per policy *)
    let config =
      {
        Engine.strategy = Engine.Serial;
        time_independent = false;
        log_compaction = false;
        preemptive = false;
        improved_partial = false;
        unification = false;
        domains = 1;
        delta;
        relevance = false;
        shared_scans = false;
        vectorized = true;
      }
    in
    let engine = Engine.create ~config db in
    register_then_preload engine ~n_rows:n
      ~policies:
        [
          ( "no_banned",
            "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid \
             = b.uid" );
        ];
    (* warm: compiles the plans and, with delta on, establishes the first
       base — the measured submissions then only scan their increments *)
    warm_submit engine;
    let total = ref 0. in
    let m =
      Common.measure ~iters (fun () ->
          let st =
            Engine.stats_of
              (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1")
          in
          total := !total +. st.Stats.policy_eval)
    in
    (!total /. float_of_int iters *. 1e6, m.Common.minor_words)
  in
  let speedup_at_largest = ref 0. in
  List.iter
    (fun n ->
      let full, full_mw = run_with ~delta:false ~n in
      let delta, delta_mw = run_with ~delta:true ~n in
      let sp = full /. delta in
      speedup_at_largest := sp;
      Printf.printf
        "%6d log rows: full %.1f us (%s), delta %.1f us (%s) per submission \
         (%.1fx)\n"
        n full (Common.words full_mw) delta (Common.words delta_mw) sp)
    sizes;
  let floor = if smoke then 2.0 else 3.0 in
  let ok = !speedup_at_largest >= floor in
  if not ok then
    Printf.printf
      "FAIL: delta speedup %.2fx at the largest log is below the %.1fx floor\n"
      !speedup_at_largest floor;
  ok

(* Vectorized executor: full policy evaluation (delta off, so every
   submission rescans the whole log) of scan/join/aggregate policies
   over a preloaded usage log, batch operators vs row-at-a-time — the
   PR 8 acceptance measurement. The row path materializes one arow per
   users row per policy per submission; the batch path scans the
   columnar mirror zero-copy, filters through selection vectors and
   joins through Value-keyed tables, so the gap widens with the log. The
   speedup at the largest size gates regressions (2x floor in --smoke at
   8k rows, 5x otherwise at 80k). *)
let vectorized_case () =
  Common.header "Vectorized executor: batch vs row-at-a-time full evaluation";
  let open Relational in
  let smoke = !Common.smoke in
  let sizes = if smoke then [ 2_000; 8_000 ] else [ 5_000; 20_000; 80_000 ] in
  let iters = if smoke then 20 else 50 in
  let run_with ~vectorized ~n =
    let db = Database.create () in
    ignore
      (Database.exec_script db
         "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, \
          'a'), (2, 'b'); CREATE TABLE banned (uid INT); INSERT INTO banned \
          VALUES (999)");
    (* delta off forces the full rescan being vectorized; everything else
       that shortcuts evaluation is off too, as in the delta case *)
    let config =
      {
        Engine.strategy = Engine.Serial;
        time_independent = false;
        log_compaction = false;
        preemptive = false;
        improved_partial = false;
        unification = false;
        domains = 1;
        delta = false;
        relevance = false;
        shared_scans = false;
        vectorized;
      }
    in
    let engine = Engine.create ~config db in
    register_then_preload engine ~n_rows:n
      ~policies:
        [
          ( "no_banned",
            "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid \
             = b.uid" );
          ( "no_flood",
            "SELECT 'flood' FROM users u WHERE u.ts > 0 GROUP BY u.uid \
             HAVING COUNT(*) > 1000000" );
        ];
    warm_submit engine;
    let total = ref 0. in
    let m =
      Common.measure ~iters (fun () ->
          let st =
            Engine.stats_of
              (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1")
          in
          total := !total +. st.Stats.policy_eval)
    in
    (!total /. float_of_int iters *. 1e6, m.Common.minor_words)
  in
  let speedup_at_largest = ref 0. in
  List.iter
    (fun n ->
      let row, row_mw = run_with ~vectorized:false ~n in
      let vec, vec_mw = run_with ~vectorized:true ~n in
      let sp = row /. vec in
      speedup_at_largest := sp;
      Printf.printf
        "%6d log rows: row %.1f us (%s), vectorized %.1f us (%s) per \
         submission (%.1fx)\n"
        n row (Common.words row_mw) vec (Common.words vec_mw) sp)
    sizes;
  let floor = if smoke then 2.0 else 5.0 in
  let ok = !speedup_at_largest >= floor in
  if not ok then
    Printf.printf
      "FAIL: vectorized speedup %.2fx at the largest log is below the %.1fx \
       floor\n"
      !speedup_at_largest floor;
  ok

(* Typed columns: the same batch pipeline over typed mirrors vs
   force-Mixed mirrors (the boxed Value-array representation the typed
   layouts replaced: boxed comparisons, Value-hashed joins and groups) —
   the ISSUE 10 acceptance measurement. Typed passes compare unboxed
   ints and dictionary codes and key joins / groups on raw ints, so both
   time and minor-heap allocation drop; the 1.5x time floor gates every
   case and the 5x minor-words floor gates the filter and join cases
   (where per-row boxing dominates the boxed side). Queries are
   violation-free shapes (empty or near-empty results), the engine's
   common case, so output materialization doesn't mask the kernels. *)
let typed_columns_case () =
  Common.header "Typed columns: unboxed kernels vs boxed (Mixed) mirrors";
  let open Relational in
  let smoke = !Common.smoke in
  let n_rows = if smoke then 20_000 else 100_000 in
  let iters = if smoke then 15 else 40 in
  let ops = [| "read"; "write"; "delete"; "share" |] in
  let build () =
    let cat = Catalog.create () in
    let usage =
      Catalog.create_table cat ~name:"usage"
        ~schema:
          (Schema.make [ ("ts", Ty.Int); ("uid", Ty.Int); ("op", Ty.Text) ])
    in
    ignore (Table.enable_columnar usage);
    let banned =
      Catalog.create_table cat ~name:"banned"
        ~schema:(Schema.make [ ("uid", Ty.Int) ])
    in
    ignore (Table.enable_columnar banned);
    for i = 0 to n_rows - 1 do
      (* 'export' is rare (~1/1000) so the string-filter case measures
         the predicate pass, not output materialization *)
      let op = if i mod 997 = 0 then "export" else ops.(i mod 4) in
      ignore
        (Table.insert usage
           [| Value.Int i; Value.Int (i mod 997); Value.Str op |])
    done;
    (* no banned uid ever appears in usage: the violation-free case *)
    for j = 1 to 97 do
      ignore (Table.insert banned [| Value.Int (1000 + j) |])
    done;
    cat
  in
  let cases =
    [
      ("filter: uid = k", "SELECT ts FROM usage WHERE uid = 123", true);
      ("filter: op = 'export'", "SELECT ts FROM usage WHERE op = 'export'", false);
      ( "join: usage x banned on uid",
        "SELECT u.ts FROM usage u, banned b WHERE u.uid = b.uid",
        true );
      ( "group: SUM(ts) by uid",
        "SELECT 'big' FROM usage GROUP BY uid HAVING SUM(ts) > 1000000000000",
        false );
    ]
  in
  let run_cases () =
    let cat = build () in
    List.map
      (fun (name, sql, gate) ->
        let c = Executor.prepare ~vectorized:true cat (Parser.query sql) in
        ignore (Executor.run_compiled c);
        ( name,
          gate,
          Common.measure ~iters (fun () -> ignore (Executor.run_compiled c)) ))
      cases
  in
  Column.force_mixed := true;
  let boxed = run_cases () in
  Column.force_mixed := false;
  let typed = run_cases () in
  let failed = ref false in
  List.iter2
    (fun (name, gate_alloc, bm) (_, _, tm) ->
      let sp = bm.Common.us /. tm.Common.us in
      let ar = bm.Common.minor_words /. Float.max tm.Common.minor_words 1.0 in
      Printf.printf
        "%-28s boxed %8.1f us %8s | typed %8.1f us %8s | %.1fx time, %.0fx \
         alloc\n"
        name bm.Common.us
        (Common.words bm.Common.minor_words)
        tm.Common.us
        (Common.words tm.Common.minor_words)
        sp ar;
      if sp < 1.5 then begin
        Printf.printf "FAIL: %s typed speedup %.2fx is below the 1.5x floor\n"
          name sp;
        failed := true
      end;
      if gate_alloc && ar < 5.0 then begin
        Printf.printf
          "FAIL: %s typed allocation improvement %.1fx is below the 5x floor\n"
          name ar;
        failed := true
      end)
    boxed typed;
  not !failed

(* Lineage tracking: minor-heap words of a query run with lineage
   against the plain row run of the same plan shape, for W2 and W3 on the
   500-patient instance (the e2e bench's). The lineage run is the
   provenance generator's: once its answer doubles as the user query's,
   what it allocates beyond the plain run is provenance's whole cost.
   Allocation is a count, not a time: [Gc.minor_words] is exact (unlike
   [Gc.quick_stat]'s, which moves only at minor collections), so the
   1.4x ceiling reads the same on any host. Unions that rebuild
   balanced sets read 1.6-1.8x here. *)
let lineage_case () =
  Common.header "Lineage run: minor words over the plain row run";
  let open Relational in
  let n_patients = 500 in
  let db =
    Mimic.Generate.database
      ~config:{ Mimic.Generate.default_config with n_patients; n_orders = 1000 }
      ()
  in
  let cat = Database.catalog db in
  let ceiling = 1.4 in
  List.for_all Fun.id
    (List.map
       (fun name ->
         let q = Parser.query (Workload.Queries.find ~n_patients name).Workload.Queries.sql in
         let words opts =
           let c = Executor.prepare ~opts cat q in
           ignore (Executor.run_compiled c);
           let w0 = Gc.minor_words () in
           ignore (Executor.run_compiled c);
           Gc.minor_words () -. w0
         in
         let plain = words Executor.default_opts in
         let lineage = words { Executor.lineage = true; track_src = false } in
         let ratio = lineage /. plain in
         Printf.printf "%s: plain %s, lineage %s per run (%.2fx)\n" name
           (Common.words plain) (Common.words lineage) ratio;
         let ok = ratio <= ceiling in
         if not ok then
           Printf.printf "FAIL: %s lineage run allocates %.2fx the plain run, above the %.1fx ceiling\n"
             name ratio ceiling;
         ok)
       [ "W2"; "W3" ])

let bechamel_case () =
  Common.header "Micro-benchmarks (Bechamel)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let est =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> Printf.sprintf "%.2f us/run" (e /. 1000.)
        | _ -> "n/a"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-50s %s\n" name est)
    (List.sort compare !rows)

(* Every gate runs, whatever the ones before it read, so one noisy
   miss cannot hide the others; the exit status is 1 when any failed. *)
let run () =
  let gates =
    [
      index_case;
      parallel_case;
      delta_case;
      vectorized_case;
      typed_columns_case;
      lineage_case;
    ]
  in
  let passed = List.map (fun gate -> gate ()) gates in
  (* Smoke mode stops at the regression gates: the Bechamel sweep and
     the plan-cache comparison are measurements, not assertions. *)
  if not !Common.smoke then begin
    plan_cache_case ();
    bechamel_case ()
  end;
  if List.mem false passed then exit 1
