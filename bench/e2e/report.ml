(** The metric catalogue and the result record every workload returns.

    End-to-end metrics are what a user of the admission engine sees and
    are measured with tracing off; per-layer metrics come from the traced
    run. Both lists are mirrored, with directions and bounds, in the
    repository's BENCHMARK.json. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("p50_x", "x");
    ("p90_x", "x");
    ("mean_x", "x");
    ("rss_mb", "MiB");
    ("stored_kb", "KiB");
  ]

(* Submissions per block of the timing metrics' yardstick. *)
let block = 64

(* The timing metrics of a timed window, from the (SQL, seconds) pairs of
   its admissions and of the plain query run right after each, in the
   same order, and its throughput.

   Gated: the median, 90th percentile and mean of the admission latency,
   each latency taken as a multiple of the median plain-query time of its
   block of [block] consecutive submissions. A block's plain queries run
   within the same few seconds as its admissions, so a spell in which the
   machine runs slower stretches both; absolute times follow such spells.
   A median, rather than a mean, keeps one instance-dependent query out
   of the yardstick: across Table 2 instances of equal size a plain W2
   takes 1.4 to 4.1 ms depending on the seed while its admission moves by
   2 %, and W1, five eighths of that mix, sets the median.

   Recorded: absolute latencies and the paper's overhead ratio, mean
   admission over mean plain time of the same sequence (Fig. 2). *)
let timing_metrics ~timed ~plain ~throughput =
  let lat = Array.of_list (List.map snd timed) and pl = Array.of_list (List.map snd plain) in
  let n = Array.length lat in
  if Array.length pl <> n then invalid_arg "Report.timing_metrics: one plain query per admission";
  let norm = Array.make n 0. in
  let rec fill s =
    if s < n then begin
      let len = min block (n - s) in
      let unit_ = Meter.median_of (Array.to_list (Array.sub pl s len)) in
      for i = s to s + len - 1 do
        norm.(i) <- lat.(i) /. unit_
      done;
      fill (s + len)
    end
  in
  fill 0;
  let sorted a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a
  in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 n) in
  let p a q = Meter.percentile (sorted a) q in
  ( [ ("p50_x", p norm 0.50); ("p90_x", p norm 0.90); ("mean_x", mean norm) ],
    [
      ("throughput_sps", throughput);
      ("p50_ms", p lat 0.50 *. 1e3);
      ("p90_ms", p lat 0.90 *. 1e3);
      ("p99_ms", p lat 0.99 *. 1e3);
      ("mean_ms", mean lat *. 1e3);
      ("plain_p50_ms", p pl 0.50 *. 1e3);
      ("overhead_x", Probe.sequence_mean timed /. Probe.sequence_mean plain);
    ] )

let per_layer =
  [
    ("engine.submit_ms", "ms");
    ("engine.untimed_ms", "ms");
    ("engine.untimed_share", "ratio");
    ("parser.parse_us", "us");
    ("usage_log.track_ms", "ms");
    ("engine.policy_eval_ms", "ms");
    ("engine.policy_calls", "count");
    ("relevance.checks", "count");
    ("relevance.skip_ratio", "ratio");
    ("delta_store.delta_evals", "count");
    ("delta_store.full_evals", "count");
    ("prepared.hit_ratio", "ratio");
    ("witness.mark_ms", "ms");
    ("witness.delete_ms", "ms");
    ("witness.insert_ms", "ms");
    ("witness.rows_logged", "rows");
    ("persist.commit_ms", "ms");
    ("persist.checkpoints", "count");
    ("persist.fsyncs", "count");
    ("persist.flush_ms", "ms");
    ("executor.query_ms", "ms");
    ("executor.plain_ms", "ms");
    ("executor.rows_examined", "rows");
    ("executor.vec_fallbacks", "count");
    ("server.codec_us", "us");
    ("server.transport_ms", "ms");
    ("server.admission_ms", "ms");
    ("server.batch_size_mean", "count");
    ("server.fsyncs_per_sub", "count");
    ("server.gen_late_ms", "ms");
    ("server.max_rate_sps", "1/s");
    ("bench.trace_overhead_pct", "%");
  ]

type t = {
  workload : string;
  metrics : (string * float) list;
      (** end-to-end metrics (untraced run) or per-layer ones (traced) *)
  extras : (string * float) list;
      (** recorded but not gated: absolute timings, which follow the
          machine's speed, and tails too thinly sampled to compare *)
  attempted : int;
  failed : int;  (** errors plus verdicts or row counts that differ from the expectation *)
  counters : (string * int) list;  (** exact counts; same seed, same count *)
  samples : (string * int) list;  (** sample counts behind each percentile *)
  config : (string * Json.t) list;  (** the effective configuration *)
}

(* Per-percentile evidence: total samples and how many lie beyond. *)
let sample_counts n =
  [
    ("latency_samples", n);
    ("beyond_p50", Meter.beyond n 0.50);
    ("beyond_p90", Meter.beyond n 0.90);
    ("beyond_p99", Meter.beyond n 0.99);
  ]

let engine_config_json (c : Datalawyer.Engine.config) =
  let b x = Json.Bool x in
  Json.Obj
    [
      ("time_independent", b c.time_independent);
      ("log_compaction", b c.log_compaction);
      ("unification", b c.unification);
      ("preemptive", b c.preemptive);
      ("improved_partial", b c.improved_partial);
      ( "strategy",
        Json.Str
          (match c.strategy with
          | Datalawyer.Engine.Union_all -> "union_all"
          | Serial -> "serial"
          | Interleaved -> "interleaved") );
      ("domains", Json.Num (float_of_int c.domains));
      ("delta", b c.delta);
      ("relevance", b c.relevance);
      ("shared_scans", b c.shared_scans);
      ("vectorized", b c.vectorized);
    ]

(* The revision of the checkout, read from .git without running git (a
   checkout that is not a repository reports "unknown"). *)
let git_revision () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_name = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_name) with
    | Some rev -> rev
    | None -> (
      (* Packed refs: "<rev> <ref>" lines. *)
      try
        let ic = open_in ".git/packed-refs" in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec scan () =
              match String.split_on_char ' ' (input_line ic) with
              | [ rev; r ] when r = ref_name -> rev
              | _ -> scan ()
            in
            scan ())
      with Sys_error _ | End_of_file -> "unknown"))
  | Some rev -> rev

let metrics_json ~traced r =
  let units = if traced then per_layer else end_to_end in
  Json.Obj
    (List.map
       (fun (name, unit_) ->
         (name, Json.Obj [ ("value", Json.Num (List.assoc name r.metrics)); ("unit", Json.Str unit_) ]))
       units)

let to_json ~seed ~seconds ~traced ~smoke ~pinned r =
  let int x = Json.Num (float_of_int x) in
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", int seed);
      ("seconds", int seconds);
      ("trace", Json.Bool traced);
      ("smoke", Json.Bool smoke);
      ("git_rev", Json.Str (git_revision ()));
      ("nproc", int (Domain.recommended_domain_count ()));
      ("default_domains", int Datalawyer.Engine.default_domains);
      ("pinned_cpu", match pinned with Some c -> int c | None -> Json.Null);
      ("config", Json.Obj r.config);
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", int r.attempted);
      ("failed", int r.failed);
      ("fail_ratio", Json.Num (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
      ("samples", Json.Obj (List.map (fun (k, v) -> (k, int v)) r.samples));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, int v)) r.counters));
      ("metrics", metrics_json ~traced r);
      ("extras", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.extras));
    ]

(* The one-line summary printed last on stdout: correct, attempted, failed
   and the metrics of the run. *)
let summary_json ~traced r =
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json ~traced r);
    ]
