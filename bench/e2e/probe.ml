(** Per-layer accounting of engine admissions, from public surfaces only:
    the [Stats.t] every outcome carries, the engine's counter accessors
    read before and after a window, and the persistence store's
    introspection. *)

open Datalawyer

let log_relations = [ "users"; "schema"; "provenance" ]

let log_rows engine =
  List.fold_left (fun acc r -> acc + Engine.log_size engine r) 0 log_relations

let store_count f engine =
  match Engine.persist_store engine with Some st -> f st | None -> 0

let stored_bytes = store_count Persistence.Store.disk_bytes

type counters = {
  rel_checks : int;
  rel_skips : int;
  delta_evals : int;
  full_evals : int;
  plan_hits : int;
  plan_misses : int;
  vec_fallbacks : int;
  rows_examined : int;
  generation : int;
  fsyncs : int;
}

let read_counters engine =
  let r = Engine.relevance_stats engine in
  let d = Engine.delta_stats engine in
  let hits, misses = Engine.plan_cache_stats engine in
  {
    rel_checks = r.rel_checks;
    rel_skips = r.rel_skips;
    delta_evals = d.delta_evals;
    full_evals = d.full_evals;
    plan_hits = hits;
    plan_misses = misses;
    vec_fallbacks = (Engine.vector_stats engine).vec_fallbacks;
    rows_examined = Atomic.get Relational.Executor.rows_examined;
    generation = store_count Persistence.Store.generation engine;
    fsyncs = store_count Persistence.Store.fsyncs engine;
  }

(* Timed admissions of one window. *)
type acc = {
  parse : Meter.samples;  (** seconds in [Parser.query] *)
  wall : Meter.samples;  (** seconds in the engine call *)
  phases : Stats.t;  (** the engine's own phase times, summed *)
  mutable policy_calls : int;
  mutable rows_logged : int;
}

let acc () =
  {
    parse = Meter.samples ();
    wall = Meter.samples ();
    phases = Stats.create ();
    policy_calls = 0;
    rows_logged = 0;
  }

let record a ~parse ~wall (st : Stats.t) =
  Meter.push a.parse parse;
  Meter.push a.wall wall;
  Stats.merge_into a.phases st;
  a.policy_calls <- a.policy_calls + st.policy_calls;
  a.rows_logged <- a.rows_logged + st.rows_logged

(* The engine phases of one admission, as duration-only child spans of
   its [engine.submit] span. *)
let phase_spans (st : Stats.t) =
  [
    ("usage_log.track", st.log_track);
    ("engine.policy_eval", st.policy_eval);
    ("witness.mark", st.compact_mark);
    ("witness.delete", st.compact_delete);
    ("witness.insert", st.compact_insert);
    ("persist.commit", st.persist);
    ("executor.query", st.query_exec);
  ]

(* Engine-side per-layer metrics: per-submission means over the window
   unless the name says otherwise. *)
let engine_layers a ~(c0 : counters) ~(c1 : counters) ~plain_ms =
  let n = float_of_int (max 1 (Meter.count a.wall)) in
  let mean_ms x = x *. 1e3 /. n in
  let per_sub x = float_of_int x /. n in
  let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
  let d f = f c1 - f c0 in
  let wall = Meter.sum a.wall in
  let p = a.phases in
  let untimed = wall -. Stats.total p in
  [
    ("engine.submit_ms", mean_ms wall);
    ("engine.untimed_ms", mean_ms untimed);
    ("engine.untimed_share", if wall = 0. then 0. else untimed /. wall);
    ("parser.parse_us", Meter.mean a.parse *. 1e6);
    ("usage_log.track_ms", mean_ms p.log_track);
    ("engine.policy_eval_ms", mean_ms p.policy_eval);
    ("engine.policy_calls", per_sub a.policy_calls);
    ("relevance.checks", per_sub (d (fun c -> c.rel_checks)));
    ("relevance.skip_ratio", ratio (d (fun c -> c.rel_skips)) (d (fun c -> c.rel_checks)));
    ("delta_store.delta_evals", per_sub (d (fun c -> c.delta_evals)));
    ("delta_store.full_evals", per_sub (d (fun c -> c.full_evals)));
    ( "prepared.hit_ratio",
      ratio (d (fun c -> c.plan_hits)) (d (fun c -> c.plan_hits) + d (fun c -> c.plan_misses)) );
    ("witness.mark_ms", mean_ms p.compact_mark);
    ("witness.delete_ms", mean_ms p.compact_delete);
    ("witness.insert_ms", mean_ms p.compact_insert);
    ("witness.rows_logged", per_sub a.rows_logged);
    ("persist.commit_ms", mean_ms p.persist);
    ("persist.checkpoints", per_sub (d (fun c -> c.generation)));
    ("persist.fsyncs", per_sub (d (fun c -> c.fsyncs)));
    ("executor.query_ms", mean_ms p.query_exec);
    ("executor.plain_ms", plain_ms);
    ("executor.rows_examined", per_sub (d (fun c -> c.rows_examined)));
    ("executor.vec_fallbacks", per_sub (d (fun c -> c.vec_fallbacks)));
  ]

(* Exact counts of a window, for the result record. *)
let counter_diffs a ~(c0 : counters) ~(c1 : counters) =
  let d f = f c1 - f c0 in
  [
    ("relevance_checks", d (fun c -> c.rel_checks));
    ("relevance_skips", d (fun c -> c.rel_skips));
    ("delta_evals", d (fun c -> c.delta_evals));
    ("full_evals", d (fun c -> c.full_evals));
    ("policy_calls", a.policy_calls);
    ("rows_logged", a.rows_logged);
  ]

(* Mean time of a query sequence, each distinct query's time taken as
   the median of its occurrences, so one collector pause or scheduler
   stall does not move the overhead ratio. *)
let sequence_mean (timed : (string * float) list) =
  let by = Hashtbl.create 64 in
  List.iter
    (fun (sql, dt) -> Hashtbl.replace by sql (dt :: Option.value (Hashtbl.find_opt by sql) ~default:[]))
    timed;
  let med = Hashtbl.create 64 in
  Hashtbl.iter (fun sql ts -> Hashtbl.replace med sql (Meter.median_of ts)) by;
  List.fold_left (fun acc (sql, _) -> acc +. Hashtbl.find med sql) 0. timed
  /. float_of_int (max 1 (List.length timed))
