(** Shared infrastructure for the experiment drivers.

    Every experiment follows the paper's §5 setup: the synthetic
    MIMIC-shaped instance, policies P1–P6 of Table 2 (tick windows), the
    queries W1–W4 of Table 3, and two users — uid 0 (not in group X, the
    interleaved fast path) and uid 1 (the policies' subject).

    Thresholds are tuned so the streams are violation-free: the paper
    measures the common case in which all policies are satisfied. *)

open Datalawyer

(* Scale knob: [quick] keeps every experiment under a few seconds,
   [full] approaches the paper's batch counts. *)
type scale = { batches : int; batch_size : int; noopt_w2_n : int; noopt_w4_n : int }

let quick_scale = { batches = 20; batch_size = 120; noopt_w2_n = 80; noopt_w4_n = 8 }
let full_scale = { batches = 50; batch_size = 120; noopt_w2_n = 400; noopt_w4_n = 10 }

(* CI smoke mode (--smoke): tiny iteration counts so regressions fail
   fast; regression floors still assert. *)
let smoke = ref false

let mimic_config = Mimic.Generate.default_config

let n_patients = mimic_config.Mimic.Generate.n_patients

(* Violation-free parameterization of Table 2 (the common case of §4.2.1). *)
let bench_params =
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

let setup ?(config = Engine.default_config) ?(policy_names = [ "P1" ]) () =
  Workload.Runner.make ~mimic:mimic_config ~params:bench_params ~config
    ~policy_names ()

let ms x = x *. 1000.

(* One of [Engine.counters]'s values, as an int. *)
let counter engine key = int_of_string (List.assoc key (Engine.counters engine))

(* Mean total (policy machinery + query) per query, in ms. *)
let mean_total stats = ms (Stats.total (Stats.mean stats))

let mean_overhead stats = ms (Stats.overhead (Stats.mean stats))

(* Formatting helpers ----------------------------------------------------- *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row_format widths cells =
  String.concat "  "
    (List.map2
       (fun w (c : string) ->
         if String.length c >= w then c else c ^ String.make (w - String.length c) ' ')
       widths cells)

let print_table widths header_cells rows =
  print_endline (row_format widths header_cells);
  print_endline (row_format widths (List.map (fun w -> String.make w '-') widths));
  List.iter (fun cells -> print_endline (row_format widths cells)) rows

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x

(* Measurement with allocation ----------------------------------------- *)

(* Per-iteration wall time and GC allocation. [minor_words] is the young
   generation only: OCaml allocates arrays above the young size limit
   straight on the major heap, so this isolates exactly the per-row
   boxing the typed kernels are meant to eliminate (big result buffers
   don't drown the signal). It is read from [Gc.minor_words], which is
   exact; [Gc.quick_stat]'s count moves only at minor collections, so a
   window shorter than one young generation read as zero allocation.
   [promoted_words] counts what survived into the major heap, which only
   minor collections change. *)
type meas = { us : float; minor_words : float; promoted_words : float }

let measure ~iters f =
  (* Settle the GC first: dead garbage from a previous case otherwise
     smears collection work (and its stat accounting) into this window. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let n = float_of_int iters in
  {
    us = dt /. n *. 1e6;
    minor_words = (w1 -. w0) /. n;
    promoted_words = (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. n;
  }

(* "123", "4.5k", "6.7M" — words per iteration, compact. *)
let words w =
  if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

(* Run one warm stream and return the stats of the last [k] queries
   (the "stabilized" regime the paper reports for DataLawyer). *)
let stable_stats s ~uid ~n ~last q =
  let stats, rejected = Workload.Runner.run_stream s ~uid ~n q in
  if rejected > 0 then
    Printf.printf "  !! %d unexpected rejections in stream\n" rejected;
  let rec drop k = function xs when k <= 0 -> xs | [] -> [] | _ :: xs -> drop (k - 1) xs in
  drop (max 0 (n - last)) stats
