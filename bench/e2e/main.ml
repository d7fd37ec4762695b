(** End-to-end admission benchmark.

    {v
    main.exe bench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
    main.exe run   [--seed N] [--seconds S] [--smoke] [--out DIR]
    main.exe trace [--seed N] [--seconds S] [--smoke] [--out DIR]
    main.exe compare [--spec BENCHMARK.json] OLD... -- NEW...
    main.exe smoke [--seed N]
    v}

    [bench] runs one workload and prints each metric by name and unit,
    then one JSON summary as the last line of stdout: end-to-end metrics
    with [--trace 0], per-layer metrics with [--trace 1]. [run] and
    [trace] run every workload, each in its own child process, and write
    [BENCH_<workload>.json] (plus [TRACE_]/[SPANS_] files when traced).
    [smoke] runs every workload twice at toy size, checks that the
    counters repeat exactly, then runs them once traced. See README.md. *)

let workloads = List.map (fun (w : Inproc.spec) -> w.name) Inproc.all @ [ "server-spj" ]

let die code fmt = Printf.ksprintf (fun s -> prerr_endline s; exit code) fmt

(* A DL_* variable would silently change the engine configuration under
   measurement. *)
let dl_vars, other_vars =
  List.partition (String.starts_with ~prefix:"DL_") (Array.to_list (Unix.environment ()))

let refuse_dl_env () =
  if dl_vars <> [] then die 2 "refusing to benchmark with %s set" (String.concat " " dl_vars)

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  out : string option;
  dir : string option;
}

let parse_opts args =
  let int_arg k v = match int_of_string_opt v with Some n -> n | None -> die 2 "%s expects an integer, got %S" k v in
  let rec go o = function
    | "--workload" :: v :: r -> go { o with workload = Some v } r
    | "--seed" :: v :: r -> go { o with seed = int_arg "--seed" v } r
    | "--seconds" :: v :: r -> go { o with seconds = int_arg "--seconds" v } r
    | "--trace" :: v :: r -> go { o with trace = int_arg "--trace" v <> 0 } r
    | "--smoke" :: r -> go { o with smoke = true } r
    | "--out" :: v :: r -> go { o with out = Some v } r
    | "--dir" :: v :: r -> go { o with dir = Some v } r
    | a :: _ -> die 2 "unknown argument %S" a
    | [] -> o
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 30;
      trace = false;
      smoke = false;
      out = None;
      dir = None;
    }
    args

(* One workload in this process. *)
let bench o =
  refuse_dl_env ();
  let w = match o.workload with Some w -> w | None -> die 2 "bench: --workload is required" in
  if not (List.mem w workloads) then die 2 "unknown workload %S; known: %s" w (String.concat " " workloads);
  if o.seconds < 1 then die 2 "--seconds must be positive";
  Meter.exec_without_aslr ();
  (* One CPU for the generator, the server child and the engine: thread
     hand-offs then cost the same whatever the kernel's placement. *)
  let pinned = Meter.pin_to_one_cpu () in
  let tmp = Printf.sprintf ".bench_tmp/%s-%d" w (Unix.getpid ()) in
  Meter.mkdir_p tmp;
  Option.iter Meter.mkdir_p o.out;
  let file prefix = Option.map (fun d -> Filename.concat d (Printf.sprintf "%s_%s.json" prefix w)) o.out in
  let spans_path = file "SPANS" in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Meter.remove_tree tmp;
        try Unix.rmdir (Filename.dirname tmp) with Unix.Unix_error _ -> ())
      (fun () ->
        let seed = o.seed and seconds = o.seconds and traced = o.trace and smoke = o.smoke in
        match List.find_opt (fun (s : Inproc.spec) -> s.name = w) Inproc.all with
        | Some spec -> Inproc.run spec ~seed ~seconds ~traced ~smoke ~tmp ~spans_path
        | None -> Serverload.run ~seed ~seconds ~traced ~smoke ~tmp ~spans_path)
  in
  let units = if o.trace then Report.per_layer else Report.end_to_end in
  Printf.printf "%s (seed %d, %s)\n" w o.seed (if o.trace then "traced" else "untraced");
  List.iter
    (fun (name, unit_) -> Printf.printf "  %-26s %14.4f %s\n" name (List.assoc name r.Report.metrics) unit_)
    units;
  List.iter (fun (name, v) -> Printf.printf "  %-26s %14.4f (recorded, not gated)\n" name v) r.extras;
  Printf.printf "  attempted %d, failed %d\n" r.attempted r.failed;
  (match List.assoc_opt "engine.untimed_share" r.metrics with
  | Some share when o.trace && share > 0.10 ->
    Printf.printf "WARN untimed %s: %.0f%% of engine.submit lies outside every Stats phase\n" w
      (share *. 100.)
  | _ -> ());
  Option.iter
    (fun path ->
      Json.write_file path
        (Report.to_json ~seed:o.seed ~seconds:o.seconds ~traced:o.trace ~smoke:o.smoke ~pinned r))
    (file (if o.trace then "TRACE" else "BENCH"));
  print_endline (Json.to_string (Report.summary_json ~traced:o.trace r));
  if r.failed > 0 then exit 1

(* Every workload, each in a child process of its own, so memory and GC
   state never carry over. Returns the failing workloads. *)
let run_all ?(env = Unix.environment ()) ?(stdout = Unix.stdout) o ~out =
  List.filter
    (fun w ->
      let args =
        [ "bench"; "--workload"; w; "--seed"; string_of_int o.seed; "--seconds"; string_of_int o.seconds ]
        @ [ "--trace"; (if o.trace then "1" else "0"); "--out"; out ]
        @ if o.smoke then [ "--smoke" ] else []
      in
      let pid =
        Unix.create_process_env Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          env Unix.stdin stdout Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
    workloads

let run o =
  refuse_dl_env ();
  let out = Option.value o.out ~default:".bench_out" in
  let t0 = Meter.now () in
  let failed = run_all o ~out in
  Printf.printf "%s: %d workloads in %.1f s, results in %s\n" (if o.trace then "trace" else "run")
    (List.length workloads) (Meter.now () -. t0) out;
  if failed <> [] then die 1 "failed: %s" (String.concat " " failed)

(* Two same-seed smoke passes must produce identical counters, and a
   traced pass must succeed. The children get an environment without
   DL_* variables, so the check holds under every CI configuration leg;
   their reports go to /dev/null. *)
let smoke o =
  let env = Array.of_list other_vars in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pass ~trace k =
    let out = Printf.sprintf ".bench_tmp/smoke-%d-%d" (Unix.getpid ()) k in
    let failed = run_all ~env ~stdout:devnull { o with smoke = true; trace } ~out in
    if failed <> [] then die 1 "smoke: failed: %s" (String.concat " " failed);
    let counters =
      List.map
        (fun w ->
          let path = Filename.concat out (Printf.sprintf "%s_%s.json" (if trace then "TRACE" else "BENCH") w) in
          (w, Json.to_string (Option.get (Json.member "counters" (Json.read_file path)))))
        workloads
    in
    Meter.remove_tree out;
    counters
  in
  let a = pass ~trace:false 1 in
  let b = pass ~trace:false 2 in
  ignore (pass ~trace:true 3);
  List.iter2
    (fun (w, ca) (_, cb) ->
      if ca <> cb then die 1 "smoke: %s counters differ between same-seed runs:\n  %s\n  %s" w ca cb)
    a b;
  print_endline "smoke: every workload passed; counters identical across two same-seed runs"

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "bench" :: args -> bench (parse_opts args)
  | "run" :: args -> run { (parse_opts args) with trace = false }
  | "trace" :: args -> run { (parse_opts args) with trace = true }
  | "smoke" :: args -> smoke (parse_opts args)
  | "serve" :: args -> (
    match (parse_opts args).dir with
    | Some dir -> Serverload.serve ~dir
    | None -> die 2 "serve: --dir is required")
  | "compare" :: args -> (
    let spec_path, args =
      match args with "--spec" :: f :: r -> (f, r) | r -> ("BENCHMARK.json", r)
    in
    let rec split acc = function
      | "--" :: rest -> (List.rev acc, rest)
      | x :: rest -> split (x :: acc) rest
      | [] -> (List.rev acc, [])
    in
    match split [] args with
    | (_ :: _ as olds), (_ :: _ as news) -> Compare.run ~spec_path olds news
    | _ -> die 2 "usage: compare [--spec FILE] OLD... -- NEW...")
  | _ ->
    die 2 "usage: main.exe (bench|run|trace|smoke|compare) [options]; workloads: %s"
      (String.concat " " workloads)
