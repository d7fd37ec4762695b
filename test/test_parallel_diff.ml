(* Differential property tests for the domain-pool runtime: the same
   randomized workload — submissions, rejections, mid-run policy
   registration — must behave bit-identically at [domains = 1] (the
   serial path, no pool) and [domains = 4] (pooled fan-out of policy,
   partial-policy and witness-mark queries). Compared per step: the
   outcome tag, the violation-message list (in order), the accepted
   result rows (in order), the number of policy queries issued; and at
   the end: the full contents (tid +
   cells) of every log relation and the clock — so compaction retain
   sets must match tuple for tuple. *)

open Relational
open Datalawyer

(* Scripted operations ------------------------------------------------------ *)

type op =
  | Submit of int * int  (** uid, query index *)
  | Register of int  (** policy-template index *)

let queries =
  [|
    "SELECT v FROM data WHERE k = 1";
    "SELECT k, v FROM data";
    "SELECT COUNT(*) FROM data";
    "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.v = 'b'";
  |]

(* Policies over every standard log relation, with thresholds small
   enough that rejections actually occur in short scripts. *)
let templates =
  [|
    "SELECT DISTINCT 'uid 2 blocked' FROM users u WHERE u.uid = 2";
    "SELECT DISTINCT 'quota uid 1' FROM users u, clock c WHERE u.uid = 1 AND \
     u.ts > c.ts - 4 HAVING COUNT(DISTINCT u.ts) > 2";
    "SELECT DISTINCT 'provenance cap' FROM provenance p, clock c WHERE p.irid \
     = 'data' AND p.ts > c.ts - 6 HAVING COUNT(DISTINCT p.itid) > 4";
    "SELECT DISTINCT 'schema width' FROM schema s, clock c WHERE s.irid = \
     'data' AND s.ts > c.ts - 5 HAVING COUNT(DISTINCT s.icid) > 1";
    "SELECT DISTINCT 'join fanout' FROM provenance p, users u, clock c WHERE \
     p.ts = u.ts AND u.uid = 3 AND p.irid = 'data' AND p.ts > c.ts - 8 HAVING \
     COUNT(DISTINCT p.itid) > 3";
  |]

type script = {
  strategy : Engine.strategy;
  unification : bool;
  improved_partial : bool;
  preemptive : bool;
  delta : bool;
  initial : int list;  (** template indices registered before the stream *)
  ops : op list;
}

(* Deterministic rendering of one engine run ------------------------------- *)

let render_row (r : Executor.row_out) =
  String.concat ","
    (Array.to_list (Array.map Value.to_string r.Executor.values))

let step_trace engine op =
  match op with
  | Register ti ->
    let n = List.length (Engine.policies engine) in
    let name = Printf.sprintf "p%d" n in
    ignore (Engine.add_policy engine ~name templates.(ti));
    Printf.sprintf "register %s := template %d" name ti
  | Submit (uid, qi) -> (
    let outcome = Engine.submit engine ~uid queries.(qi) in
    let calls = (Engine.stats_of outcome).Stats.policy_calls in
    match outcome with
    | Engine.Accepted (result, _) ->
      Printf.sprintf "uid %d q%d accepted [%s] calls=%d" uid qi
        (String.concat "; " (List.map render_row result.Executor.out_rows))
        calls
    | Engine.Rejected (messages, _) ->
      Printf.sprintf "uid %d q%d REJECTED [%s] calls=%d" uid qi
        (String.concat "; " messages) calls)

let dump_logs engine =
  let db = Engine.database engine in
  List.map
    (fun rel ->
      let rows =
        Table.fold
          (fun acc row ->
            Printf.sprintf "%d:%s" (Row.tid row)
              (String.concat ","
                 (Array.to_list (Array.map Value.to_string (Row.cells row))))
            :: acc)
          []
          (Database.table db rel)
      in
      Printf.sprintf "%s={%s}" rel (String.concat " " (List.rev rows)))
    [ "users"; "schema"; "provenance"; "clock" ]

let run_script ~domains script =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'), \
        (2, 'b'), (3, 'c')");
  let config =
    {
      Engine.default_config with
      Engine.strategy = script.strategy;
      unification = script.unification;
      improved_partial = script.improved_partial;
      preemptive = script.preemptive;
      delta = script.delta;
      domains;
    }
  in
  let engine = Engine.create ~config db in
  List.iteri
    (fun i ti ->
      ignore (Engine.add_policy engine ~name:(Printf.sprintf "p%d" i) templates.(ti)))
    script.initial;
  let trace = List.map (step_trace engine) script.ops in
  trace @ dump_logs engine

(* Generator ----------------------------------------------------------------- *)

let script_gen : script QCheck.Gen.t =
  let open QCheck.Gen in
  let op_gen =
    frequency
      [
        ( 6,
          map2
            (fun uid qi -> Submit (uid, qi))
            (int_range 1 3)
            (int_range 0 (Array.length queries - 1)) );
        (1, map (fun ti -> Register ti) (int_range 0 (Array.length templates - 1)));
      ]
  in
  let* strategy = oneofl [ Engine.Union_all; Engine.Serial; Engine.Interleaved ] in
  let* unification = bool in
  let* improved_partial = bool in
  let* preemptive = bool in
  let* delta = bool in
  let* initial =
    list_size (int_range 0 3) (int_range 0 (Array.length templates - 1))
  in
  let+ ops = list_size (int_range 1 12) op_gen in
  { strategy; unification; improved_partial; preemptive; delta; initial; ops }

let print_script s =
  Printf.sprintf "strategy=%s unif=%b ip=%b pre=%b delta=%b initial=[%s] ops=[%s]"
    (match s.strategy with
    | Engine.Union_all -> "union"
    | Engine.Serial -> "serial"
    | Engine.Interleaved -> "interleaved")
    s.unification s.improved_partial s.preemptive s.delta
    (String.concat ";" (List.map string_of_int s.initial))
    (String.concat ";"
       (List.map
          (function
            | Submit (u, q) -> Printf.sprintf "S%d.%d" u q
            | Register t -> Printf.sprintf "R%d" t)
          s.ops))

let script_arb = QCheck.make ~print:print_script script_gen

(* Properties ---------------------------------------------------------------- *)

let prop_serial_parallel_identical =
  QCheck.Test.make
    ~name:"domains=1 and domains=4 produce identical traces and logs"
    ~count:300 script_arb
    (fun script ->
      run_script ~domains:1 script = run_script ~domains:4 script)

(* The same check through the full workload stack (Table 2 policies over
   the synthetic MIMIC instance), fewer cases since each is costlier. *)
let prop_workload_identical =
  let stream_gen =
    QCheck.Gen.list_size (QCheck.Gen.int_range 1 10)
      (QCheck.Gen.pair (QCheck.Gen.int_range 0 2)
         (QCheck.Gen.oneofl [ "W1"; "W2"; "W3" ]))
  in
  QCheck.Test.make
    ~name:"workload decisions identical at domains=1 and domains=4" ~count:15
    (QCheck.make stream_gen)
    (fun stream ->
      let run domains =
        let s =
          Workload.Runner.make
            ~mimic:
              {
                Mimic.Generate.small_config with
                n_patients = 30;
                events_per_patient = 4;
              }
            ~params:
              {
                Workload.Policies.default_params with
                p1_window = 4;
                p1_max_users = 1;
                p5_window = 6;
                p5_max_fraction = 0.3;
              }
            ~config:{ Engine.default_config with Engine.domains = domains }
            ()
        in
        let decisions =
          List.map
            (fun (uid, qn) ->
              let q = Workload.Runner.query s qn in
              match
                Engine.submit s.Workload.Runner.engine ~uid
                  q.Workload.Queries.sql
              with
              | Engine.Accepted (r, _) ->
                "A:" ^ String.concat ";" (List.map render_row r.Executor.out_rows)
              | Engine.Rejected (ms, _) -> "R:" ^ String.concat ";" ms)
            stream
        in
        decisions @ dump_logs s.Workload.Runner.engine
      in
      run 1 = run 4)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_serial_parallel_identical; prop_workload_identical ]
