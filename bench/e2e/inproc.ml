(** The three in-process workloads: one client submits in a closed loop
    straight into {!Datalawyer.Engine.submit_ast}, persisted to a private
    directory.

    - [tab2-uid0]: Table 2's P1–P6 as uid 0, who is outside group X, so
      no policy ever applies; the W1 W2 W1 W3 W4 mix makes log
      generation, interleaved pruning and the rollback of pruned
      increments the cost (the paper's Figs. 2a and 4).
    - [tab2-uid1]: the same policies as uid 1, without W4; the warm-up
      fills P5's 500-tick window so provenance tracking, witness marking
      and delta evaluation run at steady state (Figs. 2b and 3).
    - [tenants-1k]: 1 000 per-user prohibitions of [secret] plus 1 000
      per-user rate limits, uids uniform on three times that population;
      5 % of the queries read [secret] and are rejected exactly when the
      uid has a prohibition (policy-set scaling, Fig. 5). *)

open Relational
open Datalawyer

type item = { sql : string; uid : int; expect_reject : bool }

type spec = {
  name : string;
  build : seed:int -> smoke:bool -> dir:string -> Engine.t;
      (** instance build and policy registration, persisted to [dir] *)
  stream : seed:int -> smoke:bool -> int -> item;
      (** the [i]-th submission; the same seed gives the same stream *)
  cycle : int;
      (** the timed window holds a whole number of this many submissions,
          so each query class of a cyclic mix keeps its exact share *)
  setups : int;  (** timed set-ups per run; the median is reported *)
  warmup : smoke:bool -> int;
  footprint_at : smoke:bool -> int;
      (** timed submissions after which the footprint (log rows, stored
          bytes, peak RSS) is read *)
}

let config = Engine.default_config

let fsync = Persistence.Store.Interval 32

(* Table 2 ------------------------------------------------------------------ *)

(* The violation-free parameters of the paper's common case (§4.2.1). *)
let tab2_params =
  {
    Workload.Policies.p1_window = 50;
    p1_max_users = 10;
    p3_max_output = 10_000;
    p4_min_inputs = 1;
    p5_window = 500;
    p5_max_fraction = 0.9;
    p6_window = 100;
    p6_max_uses = 500;
  }

(* Half the default synthetic instance: W4's rollback cost grows with the
   square of the instance, so at 1 000 patients a W4 took 1.5 s and a
   timed window held only a handful of them; at 500 it takes 0.4 s and
   the working set halves, which the machine's other tenants disturb
   less. The smoke instance is the test-sized one. *)
let mimic ~seed ~smoke =
  let base =
    if smoke then Mimic.Generate.small_config
    else { Mimic.Generate.default_config with n_patients = 500; n_orders = 1000 }
  in
  { base with Mimic.Generate.seed }

let tab2_build ~seed ~smoke ~dir =
  let m = mimic ~seed ~smoke in
  let db = Mimic.Generate.database ~config:m () in
  let engine = Engine.create ~config ~persist_dir:dir ~persist_fsync:fsync db in
  List.iter
    (fun (p : Workload.Policies.t) -> ignore (Engine.add_policy engine ~name:p.name p.sql))
    (Workload.Policies.all ~params:tab2_params ~n_patients:m.n_patients ());
  engine

let tab2_stream ~uid mix ~seed ~smoke =
  let n_patients = (mimic ~seed ~smoke).n_patients in
  let sqls = Array.map (fun w -> (Workload.Queries.find ~n_patients w).sql) mix in
  fun i -> { sql = sqls.(i mod Array.length sqls); uid; expect_reject = false }

(* Latency is a mixture of one mode per query class, so the mix is chosen
   to put each percentile in the middle of a class, never on the boundary
   between two: here W1 holds two fifths and W2, W3, W4 a fifth each, so
   the median is the middle W2 and the 90th percentile the middle W4. *)
let tab2_uid0_mix = [| "W1"; "W2"; "W1"; "W3"; "W4" |]

let tab2_uid0 =
  {
    name = "tab2-uid0";
    cycle = Array.length tab2_uid0_mix;
    setups = 21;
    build = tab2_build;
    stream = tab2_stream ~uid:0 tab2_uid0_mix;
    warmup = (fun ~smoke -> if smoke then 5 else 10);
    footprint_at = (fun ~smoke -> if smoke then 40 else 20);
  }

(* W1 five eighths, W2 a quarter, W3 an eighth: the median lies at four
   fifths of the W1 class, the 90th percentile a fifth into W3. *)
let tab2_uid1_mix = [| "W1"; "W2"; "W1"; "W3"; "W1"; "W2"; "W1"; "W1" |]

let tab2_uid1 =
  {
    name = "tab2-uid1";
    cycle = Array.length tab2_uid1_mix;
    setups = 21;
    build = tab2_build;
    stream = tab2_stream ~uid:1 tab2_uid1_mix;
    warmup = (fun ~smoke -> if smoke then 8 else 600);
    footprint_at = (fun ~smoke -> if smoke then 40 else 160);
  }

(* Tenants ------------------------------------------------------------------ *)

(* At 10 000 tenants the engine's 300 MB working set made every timing
   follow the memory traffic of the machine's other tenants (quartile
   spreads of 0.2–0.35 over ten runs); at 1 000 they stay under 0.1. *)
let tenants ~smoke = if smoke then 100 else 1_000

let tenants_build ~seed:_ ~smoke ~dir =
  let db = Database.create () in
  let rows n f = String.concat ", " (List.init n f) in
  ignore
    (Database.exec_script db
       (Printf.sprintf
          "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES %s; CREATE TABLE \
           secret (k INT, s TEXT); INSERT INTO secret VALUES %s"
          (rows 100 (fun k -> Printf.sprintf "(%d, 'v%d')" k (k mod 7)))
          (rows 20 (fun k -> Printf.sprintf "(%d, 's%d')" k k))));
  let engine = Engine.create ~config ~persist_dir:dir ~persist_fsync:fsync db in
  let uids = List.init (tenants ~smoke) (fun i -> i + 1) in
  List.iter
    (fun (name, sql) -> ignore (Engine.add_policy engine ~name sql))
    (Templates.per_user ~name_prefix:"deny" ~uids (fun ~subject ->
         Templates.no_access ~relation:"secret" ~subject ())
    @ Templates.per_user ~name_prefix:"rate" ~uids (fun ~subject ->
          Templates.rate_limit ~max_calls:1000 ~window:200 ~subject ()));
  engine

(* Uids are uniform over three times the policy population, so a third
   of the submitters hold a prohibition; rate limits never bind. With
   half, the commits that write a checkpoint made up half the stream and
   the median sat between the two latency modes. *)
let tenants_stream ~seed ~smoke =
  let pop = 3 * tenants ~smoke in
  fun i ->
    let rng = Mimic.Rng.create ~seed:((seed * 1_000_003) + i) in
    let uid = 1 + Mimic.Rng.int rng pop in
    let k = Mimic.Rng.int rng 100 in
    if Mimic.Rng.int rng 100 < 5 then
      {
        sql = Printf.sprintf "SELECT s FROM secret WHERE k = %d" (k mod 20);
        uid;
        expect_reject = uid <= tenants ~smoke;
      }
    else
      let sql =
        match Mimic.Rng.int rng 3 with
        | 0 -> Printf.sprintf "SELECT v FROM data WHERE k = %d" k
        | 1 -> Printf.sprintf "SELECT k, v FROM data WHERE k < %d" k
        | _ -> Printf.sprintf "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.k = %d" k
      in
      { sql; uid; expect_reject = false }

let tenants_1k =
  {
    name = "tenants-1k";
    cycle = 1;
    setups = 15;
    build = tenants_build;
    stream = tenants_stream;
    warmup = (fun ~smoke -> if smoke then 10 else 250);
    footprint_at = (fun ~smoke -> if smoke then 40 else 400);
  }

let all = [ tab2_uid0; tab2_uid1; tenants_1k ]

(* Measurement ---------------------------------------------------------------- *)

(* One admission: parse, then submit. Returns the parse and submit wall
   times and the outcome. *)
let admit engine (it : item) =
  let t0 = Meter.now () in
  let ast = Parser.query it.sql in
  let t1 = Meter.now () in
  let outcome = Engine.submit_ast engine ~uid:it.uid ast in
  (t1 -. t0, Meter.now () -. t1, outcome)

let verdict_ok (it : item) = function
  | Engine.Accepted _ -> not it.expect_reject
  | Engine.Rejected _ -> it.expect_reject

let run (w : spec) ~seed ~seconds ~traced ~smoke ~tmp ~spans_path =
  let stream = w.stream ~seed ~smoke in
  let failed = ref 0 and attempted = ref 0 in
  let check it outcome =
    incr attempted;
    if not (verdict_ok it outcome) then incr failed
  in
  (* Set-up, timed several times: instance build, registration and the
     first admission (which builds the offline plan). An untimed set-up
     first pays the process's one-off costs, and every timed one runs
     before the measurement: set-ups after it found a grown heap and ran
     up to a third faster, which put the median on the boundary between
     two groups. The last engine built is the one measured. *)
  let setups = if smoke then 1 else w.setups in
  let setup_times = ref [] in
  let setup ~timed k =
    Gc.compact ();
    let t0 = Meter.now () in
    let engine = w.build ~seed ~smoke ~dir:(Filename.concat tmp (Printf.sprintf "setup-%d" k)) in
    let it = stream 0 in
    let _, _, outcome = admit engine it in
    if timed then setup_times := (Meter.now () -. t0) :: !setup_times;
    check it outcome;
    engine
  in
  for k = (if smoke then 1 else 0) to setups - 1 do
    Engine.close (setup ~timed:(k > 0) k)
  done;
  let engine = setup ~timed:true setups in
  let db = Engine.database engine in
  let next = ref 1 in
  let submit_next () =
    let it = stream !next in
    incr next;
    let parse, wall, outcome = admit engine it in
    check it outcome;
    (it, parse, wall, outcome)
  in
  for _ = 1 to w.warmup ~smoke do
    ignore (submit_next ())
  done;
  (* Timed window. Each admission is followed by the plain query of the
     same SQL on the same base tables — the overhead yardstick, timed
     next to the admission so both see the same machine, and the oracle
     for the accepted row count. The window ends on a whole cycle of the
     mix. In traced runs every other block (a cycle, or 9 submissions of
     an acyclic stream) is traced, so the untraced blocks give the
     tracing overhead. *)
  let tr = Meter.tracer () in
  let lat_traced = Meter.samples () and lat_untraced = Meter.samples () in
  let acc = Probe.acc () in
  let rejections = ref 0 and timed = ref [] and plain = ref [] and footprint = ref None in
  let plain_rows_examined = ref 0 in
  let footprint_at = w.footprint_at ~smoke in
  let c0 = Probe.read_counters engine in
  let deadline = Meter.now () +. float_of_int seconds in
  let n = ref 0 in
  let block = if w.cycle > 1 then w.cycle else 9 in
  while !n < footprint_at || !n mod w.cycle <> 0 || ((not smoke) && Meter.now () < deadline) do
    let tracing = traced && !n / block mod 2 = 0 in
    let t0 = Meter.now () in
    let it, parse, wall, outcome = submit_next () in
    let total = parse +. wall in
    incr n;
    Meter.push (if tracing then lat_traced else lat_untraced) total;
    timed := (it.sql, total) :: !timed;
    let st = Engine.stats_of outcome in
    Probe.record acc ~parse ~wall st;
    let examined = Atomic.get Executor.rows_examined in
    let p0 = Meter.now () in
    let res = Database.query db it.sql in
    let p1 = Meter.now () in
    plain := (it.sql, p1 -. p0) :: !plain;
    plain_rows_examined := !plain_rows_examined + Atomic.get Executor.rows_examined - examined;
    (match outcome with
    | Engine.Accepted (r, _) ->
      if List.length r.Executor.out_rows <> List.length res.Executor.out_rows then incr failed
    | Engine.Rejected _ -> incr rejections);
    if tracing then begin
      let root = Meter.add_span tr ~parent:0 ~name:"admission" ~start:t0 ~dur:total in
      ignore (Meter.add_span tr ~parent:root ~name:"parser.parse" ~start:t0 ~dur:parse);
      let sub = Meter.add_span tr ~parent:root ~name:"engine.submit" ~start:(t0 +. parse) ~dur:wall in
      List.iter
        (fun (name, d) -> if d > 0. then ignore (Meter.add_span tr ~parent:sub ~name ~start:nan ~dur:d))
        (Probe.phase_spans st);
      ignore (Meter.add_span tr ~parent:0 ~name:"executor.plain" ~start:p0 ~dur:(p1 -. p0))
    end;
    (* The footprint after a fixed count does not depend on speed. *)
    if !n = footprint_at then
      footprint := Some (Probe.log_rows engine, Probe.stored_bytes engine, Meter.rss_hwm_mb ())
  done;
  let c1 = Probe.read_counters engine in
  let c1 = { c1 with rows_examined = c1.rows_examined - !plain_rows_examined } in
  let plain_mean = Probe.sequence_mean !plain in
  let log_rows_end = Probe.log_rows engine in
  let fp_rows, fp_bytes, fp_rss = Option.get !footprint in
  Engine.close engine;
  Option.iter (Meter.write_spans tr) (if traced then spans_path else None);
  let timings, absolute =
    Report.timing_metrics ~timed:!timed ~plain:!plain
      ~throughput:(float_of_int !n /. List.fold_left (fun acc (_, dt) -> acc +. dt) 0. !timed)
  in
  let metrics =
    if traced then
      Probe.engine_layers acc ~c0 ~c1 ~plain_ms:(plain_mean *. 1e3)
      (* The transport layers do no work in-process. *)
      @ List.filter_map
          (fun (name, _) ->
            if String.starts_with ~prefix:"server." name || name = "persist.flush_ms" then
              Some (name, 0.)
            else None)
          Report.per_layer
      @ [ ("bench.trace_overhead_pct", Meter.trace_overhead_pct ~traced:lat_traced ~untraced:lat_untraced) ]
    else
      (("setup_s", Meter.median_of !setup_times) :: timings)
      @ [ ("rss_mb", fp_rss); ("stored_kb", float_of_int fp_bytes /. 1024.) ]
  in
  {
    Report.workload = w.name;
    metrics;
    extras = absolute;
    attempted = !attempted;
    failed = !failed;
    counters =
      [ ("timed_submissions", !n); ("rejections", !rejections) ]
      @ Probe.counter_diffs acc ~c0 ~c1
      @ [ ("log_rows", fp_rows); ("stored_bytes", fp_bytes); ("log_rows_end", log_rows_end) ];
    samples = Report.sample_counts !n;
    config =
      [
        ("engine", Report.engine_config_json config);
        ("fsync", Json.Str "interval-32");
        ("setups", Json.Num (float_of_int setups));
        ("warmup", Json.Num (float_of_int (w.warmup ~smoke)));
        ("footprint_at", Json.Num (float_of_int footprint_at));
      ];
  }
