(** [compare OLD... -- NEW...]: judge result files of two versions.

    Each side holds k [BENCH_<workload>.json] files. Per (workload,
    metric) the medians and quartiles of both sides are compared under
    the metric's direction and bound from BENCHMARK.json:

    - [unresolved]: either side's quartile spread, as a share of its
      median, exceeds the bound — unless every new run beats every old
      one, which reads [better];
    - [worse] / [better]: the median moved the wrong / right way by more
      than the bound;
    - [same] otherwise.

    Exact counts (retained log rows and stored bytes at the footprint
    point) must match: any difference is [better] or [worse] by
    direction (fewer is better). Exits 1 when any row reads [worse]. *)

type metric_spec = { name : string; lower_better : bool; bound : float }

let load_spec path =
  let spec = Json.read_file path in
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "better" m) Json.to_str,
          Option.bind (Json.member "bound" m) Json.to_num )
      with
      | Some name, Some better, Some bound ->
        Some { name; lower_better = better = "lower"; bound }
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" spec) ~default:Json.Null))

let exact_counters = [ "log_rows"; "stored_bytes" ]

(* workload -> list of parsed records *)
let group files =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let r = Json.read_file f in
      match Option.bind (Json.member "workload" r) Json.to_str with
      | Some w -> Hashtbl.replace tbl w (r :: Option.value (Hashtbl.find_opt tbl w) ~default:[])
      | None -> Printf.eprintf "compare: %s has no workload field, skipped\n" f)
    files;
  tbl

let values path records =
  List.filter_map
    (fun r ->
      let rec walk v = function [] -> Json.to_num v | k :: ks -> Option.bind (Json.member k v) (fun v -> walk v ks) in
      walk r path)
    records

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge (m : metric_spec) old_v new_v =
  let mo = Meter.median_of old_v and mn = Meter.median_of new_v in
  let spread xs med =
    let q1, q3 = Meter.quartiles xs in
    if med = 0. then 0. else (q3 -. q1) /. Float.abs med
  in
  (* Positive when the new median is worse. *)
  let worse_by = if mo = 0. then 0. else (if m.lower_better then mn -. mo else mo -. mn) /. Float.abs mo in
  let beats a b = if m.lower_better then a < b else a > b in
  let all_new_better = List.for_all (fun n -> List.for_all (fun o -> beats n o) old_v) new_v in
  let v =
    if Float.max (spread old_v mo) (spread new_v mn) > m.bound then
      if all_new_better then Better else Unresolved
    else if worse_by > m.bound then Worse
    else if -.worse_by > m.bound then Better
    else Same
  in
  (mo, mn, v)

let judge_exact old_v new_v =
  let mo = Meter.median_of old_v and mn = Meter.median_of new_v in
  (mo, mn, if mo = mn then Same else if mn < mo then Better else Worse)

let run ~spec_path old_files new_files =
  let spec = load_spec spec_path in
  if spec = [] then begin
    Printf.eprintf "compare: no end_to_end metrics in %s\n" spec_path;
    exit 2
  end;
  let olds = group old_files and news = group new_files in
  let workloads =
    Hashtbl.fold (fun w _ acc -> if Hashtbl.mem news w then w :: acc else acc) olds []
    |> List.sort compare
  in
  if workloads = [] then begin
    prerr_endline "compare: no workload appears on both sides";
    exit 2
  end;
  let worse = ref false in
  Printf.printf "%-12s %-15s %14s %14s %9s %7s  %s\n" "workload" "metric" "old median" "new median"
    "change" "bound" "verdict";
  let row w name bound (mo, mn, v) =
    if v = Worse then worse := true;
    let change = if mo = 0. then 0. else (mn -. mo) /. Float.abs mo in
    Printf.printf "%-12s %-15s %14.4g %14.4g %+8.1f%% %7s  %s\n" w name mo mn (change *. 100.)
      bound (verdict_name v)
  in
  List.iter
    (fun w ->
      let o = Hashtbl.find olds w and n = Hashtbl.find news w in
      List.iter
        (fun (m : metric_spec) ->
          let path = [ "metrics"; m.name; "value" ] in
          match (values path o, values path n) with
          | [], _ | _, [] -> ()
          | ov, nv ->
            row w m.name (Printf.sprintf "%.0f%%" (m.bound *. 100.)) (judge m ov nv))
        spec;
      List.iter
        (fun c ->
          let path = [ "counters"; c ] in
          match (values path o, values path n) with
          | [], _ | _, [] -> ()
          | ov, nv -> row w c "exact" (judge_exact ov nv))
        exact_counters)
    workloads;
  if !worse then exit 1
