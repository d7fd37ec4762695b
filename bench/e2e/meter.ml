(** Measurement primitives: clocks, order statistics, process and disk
    footprint, and the in-memory span buffer of traced runs. *)

let now = Unix.gettimeofday

(* Growable float sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let to_sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

let sum s =
  let t = ref 0. in
  for i = 0 to s.len - 1 do
    t := !t +. s.data.(i)
  done;
  !t

let mean s = if s.len = 0 then 0. else sum s /. float_of_int s.len

(* Nearest-rank percentile of a sorted array ([p] in 0..1). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* How much slower, in percent, the traced samples' median is than the
   untraced ones'; 0 when either side is empty. *)
let trace_overhead_pct ~traced ~untraced =
  if traced.len = 0 || untraced.len = 0 then 0.
  else
    let p50 s = percentile (to_sorted s) 0.50 in
    ((p50 traced /. p50 untraced) -. 1.) *. 100.

(* Samples strictly above the [p] percentile's rank: how much evidence
   backs the tail value. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile, as Python's [statistics.quantiles(xs, n=4)]
   computes them (the "exclusive" method); with one value both are that
   value. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q j =
      let m = float_of_int (n + 1) *. float_of_int j /. 4. in
      let k = max 1 (min (n - 1) (int_of_float m)) in
      let frac = m -. float_of_int k in
      a.(k - 1) +. ((a.(k) -. a.(k - 1)) *. frac)
    in
    (q 1, q 3)

(* A field of /proc/self/status, without its name. *)
let proc_status field =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = field ->
            Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> scan ()
        in
        scan ())
  with Sys_error _ | End_of_file -> None

(* Peak resident set of this process (VmHWM), in MiB. *)
let rss_hwm_mb () =
  match proc_status "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> nan

(* Run a helper program quietly; did it exit 0? *)
let succeeds args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      match Unix.waitpid [] (Unix.create_process args.(0) args Unix.stdin null null) with
      | _, Unix.WEXITED 0 -> true
      | _ -> false
      | exception Unix.Unix_error _ -> false)

(* Re-execute this process with address-space randomisation off, when
   [setarch] can: heap placement otherwise changes from run to run and
   moves timings by several percent. Returns only when it does not
   re-execute. *)
let exec_without_aslr () =
  let randomized =
    try
      let ic = open_in "/proc/self/personality" in
      let flags = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
      int_of_string ("0x" ^ String.trim flags) land 0x0040000 = 0
    with Sys_error _ | End_of_file | Failure _ -> false
  in
  if randomized && succeeds [| "setarch"; "-R"; "true" |] then
    try
      Unix.execvp "setarch"
        (Array.append [| "setarch"; "-R"; Sys.executable_name |]
           (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)))
    with Unix.Unix_error _ -> ()

(* Pin this process, and so every thread and child it starts later, to
   the last CPU it may run on. Returns that CPU, or [None] when the
   affinity cannot be read or [taskset] is unavailable. *)
let pin_to_one_cpu () =
  let last_cpu list =
    let last = List.hd (List.rev (String.split_on_char ',' list)) in
    int_of_string_opt
      (match String.index_opt last '-' with
      | Some i -> String.sub last (i + 1) (String.length last - i - 1)
      | None -> last)
  in
  match Option.bind (proc_status "Cpus_allowed_list") last_cpu with
  | Some cpu when succeeds [| "taskset"; "-cp"; string_of_int cpu; string_of_int (Unix.getpid ()) |]
    ->
    Some cpu
  | _ -> None

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Spans ------------------------------------------------------------------- *)

(* One traced interval. [start] is [nan] for a duration-only span: an
   engine phase known from [Stats.t] by its length, not its position. *)
type span = { id : int; parent : int; name : string; start : float; dur : float }

type tracer = { mutable spans : span list; mutable next_id : int; origin : float }

let tracer () = { spans = []; next_id = 1; origin = now () }

let add_span tr ~parent ~name ~start ~dur =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  tr.spans <- { id; parent; name; start; dur } :: tr.spans;
  id

let span_json tr s =
  let base = [ ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent)); ("name", Json.Str s.name) ] in
  let times =
    if Float.is_nan s.start then [ ("dur_ms", Json.Num (s.dur *. 1e3)) ]
    else
      [
        ("start_ms", Json.Num ((s.start -. tr.origin) *. 1e3));
        ("end_ms", Json.Num ((s.start +. s.dur -. tr.origin) *. 1e3));
      ]
  in
  Json.Obj (base @ times)

let write_spans tr path =
  Json.write_file path (Json.Arr (List.rev_map (span_json tr) tr.spans))
