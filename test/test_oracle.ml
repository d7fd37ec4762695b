(* The differential oracle: one script generator, one runner, checked
   by two properties.

   A script draws the paper-level settings (strategy, TI rewriting,
   compaction, improved partial policies, persistence, initial
   policies) and a stream of operations:
   submissions, admission batches, policy registration and removal,
   DDL, DML on base relations, attempted writes to log relations and
   the clock (refused: only the engine writes them), restarts and
   checkpoints of the persisted store, and mid-stream flips of one
   optimization layer.

   - Layer identity (every script): with the paper-level settings
     fixed, turning the optimization layers on — §4.3's preemptive
     compaction and the post-paper unification, delta, relevance,
     shared scans, the vectorized executor and the domain pool —
     changes no outcome, message, result row, DDL/DML outcome or final
     log row (tids included). The layered run also agrees with itself
     at the other domain count, policy-call counts included.
   - Eq. 1 (scripts without base-table DML): the layered run decides
     every submission exactly as the literal reference — NoOpt
     (Algorithm 1: no TI rewriting, no compaction, one UNION) with every
     layer off and strictly serial submissions. The refused log writes
     are drawn: refusing them is what keeps Eq. 1's precondition.
   - Answers (the runs of both properties): each accepted submission's
     rows equal a plain [Database.query] of its SQL on the state right
     after the verdict, in order. User queries that read a log relation
     or the clock are drawn, so both the answer handed back from the
     provenance run and the rerun over the committed state are checked.
     Batch members reading the log or the clock are exempt: the members
     after them moved it. Eq. 1 hides those queries' rows, since a run
     that keeps a different log answers them differently.

   Base-table DML is excluded from Eq. 1 because compaction and TI
   rewriting preserve verdicts only while the rows a logged tuple joined
   with do not change (docs/ARCHITECTURE.md, "Correctness"). Deterministic pins
   in the per-feature suites check that each layer actually engages;
   this harness only checks that none changes a verdict. *)

open Relational
open Datalawyer

(* Vocabulary ------------------------------------------------------------------ *)

(* The first [data_queries] read base relations only: the engine answers
   them from the provenance run when it made one. The rest read a log
   relation or the clock, and are answered over the committed state. *)
let queries =
  [|
    "SELECT v FROM data WHERE k = 1";
    "SELECT k, v FROM data";
    "SELECT COUNT(*) FROM data";
    "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.v = 'b'";
    "SELECT u.uid FROM users u WHERE u.uid = 2";
    "SELECT ts FROM clock";
    "SELECT COUNT(*) FROM provenance p WHERE p.irid = 'data'";
  |]

let data_queries = 4

let reads_log qi = qi >= data_queries

let per_uid uid =
  Templates.no_access ~relation:"data" ~subject:(Templates.User uid)
    ~message:(Printf.sprintf "uid %d off data" uid)
    ()

(* Policy templates, by name. Between them they reach the delta route
   (the clock-free SPJ ones; aggregates always evaluate in full), the
   clock-eliminated plans of the window templates (they join the clock,
   so never take it), unification (the per-uid family and the two
   quotas), the relevance index (plain-table joins it must guard), the
   shapes footnote 7 must restrict below the top level (a UNION and a
   FROM subquery), and a join across ticks, which the interleaved loop prunes
   before [provenance] while its witness still keeps that increment's
   tid-2 rows (the preemptive probe must generate them). That join has a
   HAVING, so Lemma 4.1 keeps every witnessed row: its Boolean form
   keeps one row per Lemma 4.2 key, and unification lifts the
   registration-tick bound into that key, so the kept rows differ with
   unification on and off (ROADMAP, keyed witnesses). The windowed
   [COUNT(DISTINCT ...)] templates keep one binding per counted value
   (distinct-value witnesses): the [itid] ones repeat values, with and
   without GROUP BY, and [cross-tick-window] joins two ts classes by a
   predicate each class's witness drops, so the columns it reads key
   the representatives. Their [provenance] reads stay at [p.irid =
   'data']: the [itid]s of a log relation's rows are renumbered by
   recovery. *)
let templates =
  [|
    ("blocked", "SELECT DISTINCT 'uid 2 blocked' FROM users u WHERE u.uid = 2");
    ( "banned",
      "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid = b.uid" );
    ( "quota1",
      "SELECT DISTINCT 'quota uid 1' FROM users u, clock c WHERE u.uid = 1 AND \
       u.ts > c.ts - 4 HAVING COUNT(DISTINCT u.ts) > 2" );
    ( "quota2",
      "SELECT DISTINCT 'quota uid 2' FROM users u, clock c WHERE u.uid = 2 AND \
       u.ts > c.ts - 4 HAVING COUNT(DISTINCT u.ts) > 2" );
    ( "schema-width",
      "SELECT DISTINCT 'schema width' FROM schema s, clock c WHERE s.irid = \
       'data' AND s.ts > c.ts - 5 HAVING COUNT(DISTINCT s.icid) > 1" );
    ( "provenance-banned",
      "SELECT DISTINCT 'provenance touch' FROM provenance p, banned b WHERE \
       p.irid = 'data' AND p.itid = b.uid" );
    ( "provenance-cap",
      "SELECT DISTINCT 'provenance cap' FROM provenance p, clock c WHERE \
       p.irid = 'data' AND p.ts > c.ts - 6 HAVING COUNT(DISTINCT p.itid) > 4" );
    ( "join-fanout",
      "SELECT DISTINCT 'join fanout' FROM provenance p, users u, clock c WHERE \
       p.ts = u.ts AND u.uid = 3 AND p.irid = 'data' AND p.ts > c.ts - 8 \
       HAVING COUNT(DISTINCT p.itid) > 3" );
    ( "agg-quota2",
      "SELECT DISTINCT 'uid 2 over quota' FROM users u WHERE u.uid = 2 GROUP \
       BY u.uid HAVING COUNT(*) > 2" );
    ( "banned-pair",
      "SELECT DISTINCT 'banned pair' FROM users u, banned b WHERE u.uid = \
       b.uid GROUP BY b.uid HAVING COUNT(*) > 1" );
    ( "spread3",
      "SELECT DISTINCT 'uid 3 spread' FROM users u WHERE u.uid = 3 GROUP BY \
       u.uid HAVING MAX(u.ts) - MIN(u.ts) > 4 AND COUNT(*) > 2" );
    ( "distinct-ticks",
      "SELECT DISTINCT 'distinct ticks' FROM users u GROUP BY u.uid HAVING \
       COUNT(DISTINCT u.ts) > 5" );
    ("uid1-data", per_uid 1);
    ("uid2-data", per_uid 2);
    ("uid3-data", per_uid 3);
    ( "union",
      "SELECT DISTINCT 'uid 2 seen' FROM users u WHERE u.uid = 2 UNION SELECT \
       DISTINCT 'data tid 3 read' FROM provenance p WHERE p.irid = 'data' AND \
       p.itid = 3" );
    ( "subquery",
      "SELECT DISTINCT 'uid 2 seen' FROM (SELECT uid FROM users) x WHERE x.uid \
       = 2" );
    ( "cross-tick",
      "SELECT DISTINCT 'uid 2 after tid 2 twice' FROM users u, provenance p \
       WHERE u.uid = 2 AND p.irid = 'data' AND p.itid = 2 HAVING COUNT(DISTINCT \
       p.ts) > 1" );
    ( "itid-window",
      "SELECT DISTINCT 'data tids in window' FROM provenance p, clock c WHERE \
       p.irid = 'data' AND p.ts > c.ts - 5 HAVING COUNT(DISTINCT p.itid) > 2" );
    ( "itid-per-uid",
      "SELECT DISTINCT 'data tids per uid' FROM provenance p, users u, clock c \
       WHERE p.ts = u.ts AND p.irid = 'data' AND c.ts < p.ts + 4 GROUP BY \
       u.uid HAVING COUNT(DISTINCT p.itid) > 1" );
    ( "cross-tick-window",
      "SELECT DISTINCT 'uids before data reads' FROM users u, schema s, clock \
       c WHERE s.irid = 'data' AND u.ts < s.ts AND s.ts < u.ts + 3 AND u.ts > \
       c.ts - 6 HAVING COUNT(DISTINCT u.uid) > 1" );
  |]

let template name = List.assoc name (Array.to_list templates)

(* Index DDL bumps the catalog generation; repeats raise, and the error
   text goes into the trace. *)
let ddls =
  [|
    "CREATE INDEX o_users_uid ON users USING hash (uid)";
    "DROP INDEX o_users_uid";
    "CREATE INDEX o_data_k ON data USING sorted (k)";
    "DROP INDEX o_data_k";
  |]

(* Base-table DML bumps version counters: the [banned] flips change the
   ban-list templates' verdicts, so a stale delta base or relevance
   proof fails the diff. The writes to [users] (one at a future tick)
   and to the clock are refused, with the same error text in every
   configuration. *)
let dmls =
  [|
    "INSERT INTO banned VALUES (2)";
    "DELETE FROM banned WHERE uid = 2";
    "UPDATE data SET v = 'z' WHERE k = 2";
    "INSERT INTO data VALUES (9, 'i')";
    "DELETE FROM users WHERE uid = 2";
    "DELETE FROM users WHERE uid = 3";
    "UPDATE users SET uid = 2 WHERE uid = 3";
    "INSERT INTO users VALUES (1000, 2)";
    "UPDATE clock SET ts = 0";
  |]

let base_dmls = [ 0; 1; 2; 3 ]

let log_dmls = [ 4; 5; 6; 7; 8 ]

let log_relations = [ "users"; "schema"; "provenance"; "clock" ]

let fresh_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'), \
        (2, 'b'), (3, 'c'); CREATE TABLE banned (uid INT); INSERT INTO banned \
        VALUES (3)");
  db

(* Scripts ------------------------------------------------------------------ *)

(* The optimization layers: each must leave every verdict and log
   unchanged. *)
type layer = Preemptive | Unification | Delta | Relevance | Shared_scans | Vectorized

let all_layers = [ Preemptive; Unification; Delta; Relevance; Shared_scans; Vectorized ]

type op =
  | Submit of int * int  (** uid, query index *)
  | Batch of (int * int) list  (** concurrent admission batch *)
  | Register of int  (** template index *)
  | Remove of int  (** index into the registered policies, modulo *)
  | Ddl of int
  | Dml of int
  | Restart  (** close and recover from disk (persisted scripts) *)
  | Checkpoint  (** persisted scripts *)
  | Flip of layer  (** mid-stream [set_config] toggling one layer *)

type script = {
  strategy : Engine.strategy;
  ti : bool;
  compaction : bool;
  improved_partial : bool;
  persist : bool;
  initial : int list;  (** templates registered before the stream *)
  layers : layer list;  (** on in the layered run *)
  domains : int;  (** of the layered run; it also runs at the other count *)
  ops : op list;
}

let paper_config s =
  {
    Engine.noopt_config with
    Engine.strategy = s.strategy;
    time_independent = s.ti;
    log_compaction = s.compaction;
    improved_partial = s.improved_partial;
  }

let set_layer layer on (c : Engine.config) =
  match layer with
  | Preemptive -> { c with Engine.preemptive = on }
  | Unification -> { c with Engine.unification = on }
  | Delta -> { c with Engine.delta = on }
  | Relevance -> { c with Engine.relevance = on }
  | Shared_scans -> { c with Engine.shared_scans = on }
  | Vectorized -> { c with Engine.vectorized = on }

let layer_on layer (c : Engine.config) =
  match layer with
  | Preemptive -> c.Engine.preemptive
  | Unification -> c.Engine.unification
  | Delta -> c.Engine.delta
  | Relevance -> c.Engine.relevance
  | Shared_scans -> c.Engine.shared_scans
  | Vectorized -> c.Engine.vectorized

(* Every layer off, on one domain. *)
let layers_off (c : Engine.config) =
  List.fold_left
    (fun c l -> set_layer l false c)
    { c with Engine.domains = 1 }
    all_layers

let layered s ~domains =
  List.fold_left
    (fun c l -> set_layer l (List.mem l s.layers) c)
    { (paper_config s) with Engine.domains }
    all_layers

(* The run ---------------------------------------------------------------- *)

(* One step's observable result: its rendering, an accepted
   submission's rows, the violation messages (compared in order or as
   sets) and the policy calls it issued. [log_read]: the rows come from
   a query over the log or the clock, so they follow the log a
   configuration keeps. *)
type event = {
  what : string;
  rows : string option;
  log_read : bool;
  messages : string list;
  calls : int;
}

type run = {
  events : event list;
  logs : (string * (int * string) list) list;  (** relation, (tid, cells) rows *)
  recovery : string list;
      (** each [Restart] whose recovered state differs from the live one
          before the close *)
  answers : string list;
      (** each accepted submission whose rows differ from a plain
          {!Database.query} of its SQL on the state right after the
          verdict *)
}

let render_row cells =
  String.concat "," (Array.to_list (Array.map Value.to_string cells))

let render_rows (r : Executor.result) =
  String.concat "; "
    (List.map (fun (o : Executor.row_out) -> render_row o.Executor.values)
       r.Executor.out_rows)

let outcome_event (uid, qi) outcome =
  let label = Printf.sprintf "uid %d q%d" uid qi in
  let log_read = reads_log qi in
  match outcome with
  | Ok (Engine.Accepted (r, stats)) ->
    {
      what = label ^ " accepted";
      rows = Some (render_rows r);
      log_read;
      messages = [];
      calls = stats.Stats.policy_calls;
    }
  | Ok (Engine.Rejected (messages, stats)) ->
    {
      what = label ^ " REJECTED";
      rows = None;
      log_read;
      messages;
      calls = stats.Stats.policy_calls;
    }
  | Error e ->
    {
      what = label ^ " raised " ^ Printexc.to_string e;
      rows = None;
      log_read;
      messages = [];
      calls = 0;
    }

let note what = { what; rows = None; log_read = false; messages = []; calls = 0 }

let dump_logs ?(rels = log_relations) engine =
  let db = Engine.database engine in
  List.map
    (fun rel ->
      ( rel,
        List.rev
          (Table.fold
             (fun acc row -> (Row.tid row, render_row (Row.cells row)) :: acc)
             [] (Database.table db rel)) ))
    rels

(* Persisted runs check recovery, not durability: the WAL never fsyncs,
   and the stores live on tmpfs where there is one, so the snapshots'
   unconditional fsyncs cost nothing either. *)
let tmpfs = if Sys.file_exists "/dev/shm" then Some "/dev/shm" else None

(* Run [s] from [config]. The [optimized] run sends batches through
   [submit_batch] and applies flips; the others replay each batch one
   submission at a time and ignore flips. *)
let run ~optimized config s =
  let dir =
    if s.persist then Some (Test_support.temp_dir ?parent:tmpfs "dl_oracle")
    else None
  in
  let config = ref config in
  let db = ref (fresh_db ()) in
  let open_engine () =
    Engine.create ~config:!config ?persist_dir:dir
      ~persist_fsync:Persistence.Store.Never !db
  in
  let engine = ref (open_engine ()) in
  let recovery = ref [] in
  (* The persisted relations' cells in heap order, and the clock. *)
  let durable_state rels =
    let db = Engine.database !engine in
    ( List.map
        (fun rel ->
          ( rel,
            List.rev
              (Table.fold (fun acc row -> render_row (Row.cells row) :: acc) []
                 (Database.table db rel)) ))
        rels,
      Usage_log.current_time db )
  in
  let registered = ref 0 in
  let register ti =
    let name = Printf.sprintf "p%d" !registered in
    incr registered;
    ignore (Engine.add_policy !engine ~name (snd templates.(ti)));
    Printf.sprintf "register %s := %s" name (fst templates.(ti))
  in
  List.iter (fun ti -> ignore (register ti)) s.initial;
  (* The independent answer: a plain query of the same SQL on the
     engine's database as it stands after the verdict. *)
  let answers = ref [] in
  let check_answer (uid, qi) = function
    | Ok (Engine.Accepted (r, _)) ->
      let plain = render_rows (Database.query (Engine.database !engine) queries.(qi)) in
      if plain <> render_rows r then
        answers :=
          Printf.sprintf "uid %d q%d: engine [%s], plain [%s]" uid qi (render_rows r) plain
          :: !answers
    | Ok (Engine.Rejected _) | Error _ -> ()
  in
  let submit (uid, qi) =
    let outcome =
      match Engine.submit !engine ~uid queries.(qi) with
      | o -> Ok o
      | exception e -> Error e
    in
    check_answer (uid, qi) outcome;
    outcome_event (uid, qi) outcome
  in
  let exec_sql label sql =
    note
      (match Dml.exec (Database.catalog !db) (Parser.stmt sql) with
      | Dml.Created what -> Printf.sprintf "%s created %s" label what
      | Dml.Dropped what -> Printf.sprintf "%s dropped %s" label what
      | Dml.Affected n -> Printf.sprintf "%s affected %d" label n
      | Dml.Rows _ -> label ^ " rows")
  in
  let step op =
    try
      match op with
      | Submit (uid, qi) -> [ submit (uid, qi) ]
      | Batch members when optimized ->
        Engine.submit_batch !engine
          (List.map
             (fun (uid, qi) ->
               {
                 Engine.batch_uid = uid;
                 batch_extra = [];
                 batch_query = Parser.query queries.(qi);
               })
             members)
        |> List.map2
             (fun member outcome ->
               (* Later members moved the log and the clock since this
                  verdict; the base relations stand. *)
               if not (reads_log (snd member)) then check_answer member outcome;
               outcome_event member outcome)
             members
      | Batch members -> List.map submit members
      | Register ti -> [ note (register ti) ]
      | Remove i -> (
        match Engine.policies !engine with
        | [] -> [ note "remove: none registered" ]
        | ps ->
          let name = (List.nth ps (i mod List.length ps)).Policy.name in
          Engine.remove_policy !engine name;
          [ note ("remove " ^ name) ])
      | Ddl di -> [ exec_sql (Printf.sprintf "ddl %d" di) ddls.(di) ]
      | Dml mi -> [ exec_sql (Printf.sprintf "dml %d" mi) dmls.(mi) ]
      | Restart ->
        let rels = (Engine.plan !engine).Engine.store_rels in
        let live = durable_state rels in
        Engine.close !engine;
        db := fresh_db ();
        engine := open_engine ();
        let show (logs, clock) =
          Printf.sprintf "clock %d %s" clock
            (String.concat " "
               (List.map (fun (r, rows) -> r ^ "={" ^ String.concat " " rows ^ "}") logs))
        in
        if durable_state rels <> live then
          recovery :=
            Printf.sprintf "live %s\n  recovered %s" (show live) (show (durable_state rels))
            :: !recovery;
        [
          note
            (Printf.sprintf "restart (%d policies recovered)"
               (List.length (Engine.policies !engine)));
        ]
      | Checkpoint ->
        Engine.persist_checkpoint !engine;
        [ note "checkpoint" ]
      | Flip layer ->
        if optimized then begin
          config := set_layer layer (not (layer_on layer !config)) !config;
          Engine.set_config !engine !config
        end;
        [ note "flip" ]
    with Errors.Sql_error _ as e -> [ note ("error: " ^ Errors.to_string e) ]
  in
  let events = List.concat_map step s.ops in
  let logs = dump_logs !engine in
  (* [close] flushes the store, and also joins the process-wide domain
     pool: in-memory runs skip it, so the pool is spawned once for the
     whole property rather than once per run. *)
  if s.persist then Engine.close !engine;
  Option.iter Test_support.remove_dir dir;
  { events; logs; recovery = List.rev !recovery; answers = List.rev !answers }

(* Views for comparison ----------------------------------------------------- *)

(* What two runs must agree on: [calls] keeps policy-call counts,
   [sets] compares messages as sets (a unified policy reports its firing
   members in constants-table order and collapses exact duplicates; one
   UNION of every policy reports in its own order) and [log_rows] keeps
   the rows of log and clock reads (runs that keep different logs
   answer them differently). *)
let view ~calls ~sets ~log_rows r =
  List.map
    (fun e ->
      let messages =
        if sets then List.sort_uniq String.compare e.messages else e.messages
      in
      let rows =
        match e.rows with
        | Some rows when log_rows || not e.log_read -> Printf.sprintf " [%s]" rows
        | Some _ -> " [log read]"
        | None -> ""
      in
      Printf.sprintf "%s%s [%s]%s" e.what rows (String.concat "; " messages)
        (if calls then Printf.sprintf " calls=%d" e.calls else ""))
    r.events

(* Every accepted submission of [r] answered as the plain query. *)
let answered name r =
  match r.answers with
  | [] -> true
  | m :: _ -> QCheck.Test.fail_reportf "%s: %s" name m

(* One line per log relation, each row as [tid:cells]. *)
let render_logs logs =
  List.map
    (fun (rel, rows) ->
      Printf.sprintf "%s={%s}" rel
        (String.concat " "
           (List.map (fun (tid, cells) -> Printf.sprintf "%d:%s" tid cells) rows)))
    logs

(* Fail with the first line on which two views differ. *)
let agree ~expected:(en, e) ~actual:(an, a) =
  let rec first i = function
    | x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys)
    | x :: _, y :: _ ->
      QCheck.Test.fail_reportf "line %d:\n  %s: %s\n  %s: %s" i en x an y
    | [], [] -> true
    | x :: _, [] -> QCheck.Test.fail_reportf "line %d: only %s has %s" i en x
    | [], y :: _ -> QCheck.Test.fail_reportf "line %d: only %s has %s" i an y
  in
  first 0 (e, a)

(* Generator ---------------------------------------------------------------- *)

(* [dmls] are the indices of the DML statements a script may draw. *)
let script_gen ~dmls : script QCheck.Gen.t =
  let open QCheck.Gen in
  let member =
    pair (int_range 1 3)
      (frequency
         [
           (5, int_range 0 (data_queries - 1));
           (2, int_range data_queries (Array.length queries - 1));
         ])
  in
  let index a = int_range 0 (Array.length a - 1) in
  let* strategy = oneofl [ Engine.Union_all; Engine.Serial; Engine.Interleaved ] in
  let* ti = bool in
  let* compaction = bool in
  let* improved_partial = bool in
  (* persisted runs cost several in-memory ones; keep them a minority *)
  let* persist = frequency [ (4, return false); (1, return true) ] in
  let* initial = list_size (int_range 0 4) (index templates) in
  (* each layer on in three layered runs of four *)
  let* on =
    flatten_l
      (List.map (fun _ -> frequencyl [ (3, true); (1, false) ]) all_layers)
  in
  let* domains = oneofl [ 1; 4 ] in
  let op_gen =
    frequency
      ([
         (7, map (fun (uid, qi) -> Submit (uid, qi)) member);
         (2, map (fun ms -> Batch ms) (list_size (int_range 2 5) member));
         (1, map (fun ti -> Register ti) (index templates));
         (1, map (fun i -> Remove i) nat);
         (1, map (fun di -> Ddl di) (index ddls));
         (1, map (fun l -> Flip l) (oneofl all_layers));
       ]
      @ (if dmls = [] then [] else [ (2, map (fun mi -> Dml mi) (oneofl dmls)) ])
      @ if persist then [ (1, return Restart); (1, return Checkpoint) ] else [])
  in
  let+ ops = list_size (int_range 1 20) op_gen in
  {
    strategy;
    ti;
    compaction;
    improved_partial;
    persist;
    initial;
    layers = List.filteri (fun i _ -> List.nth on i) all_layers;
    domains;
    ops;
  }

let layer_name = function
  | Preemptive -> "preemptive"
  | Unification -> "unify"
  | Delta -> "delta"
  | Relevance -> "relevance"
  | Shared_scans -> "shared"
  | Vectorized -> "vector"

let print_script s =
  Printf.sprintf
    "strategy=%s ti=%b comp=%b ip=%b persist=%b initial=[%s] \
     layers=[%s] domains=%d ops=[%s]"
    (match s.strategy with
    | Engine.Union_all -> "union"
    | Engine.Serial -> "serial"
    | Engine.Interleaved -> "interleaved")
    s.ti s.compaction s.improved_partial s.persist
    (String.concat ";" (List.map (fun i -> fst templates.(i)) s.initial))
    (String.concat ";" (List.map layer_name s.layers))
    s.domains
    (String.concat ";"
       (List.map
          (function
            | Submit (u, q) -> Printf.sprintf "S%d.%d" u q
            | Batch ms ->
              Printf.sprintf "B(%s)"
                (String.concat ","
                   (List.map (fun (u, q) -> Printf.sprintf "%d.%d" u q) ms))
            | Register t -> "R:" ^ fst templates.(t)
            | Remove i -> Printf.sprintf "U%d" i
            | Ddl d -> Printf.sprintf "D%d" d
            | Dml m -> Printf.sprintf "M%d" m
            | Restart -> "X"
            | Checkpoint -> "C"
            | Flip l -> "F:" ^ layer_name l)
          s.ops))

let script_arb ~dmls = QCheck.make ~print:print_script (script_gen ~dmls)

let all_dmls = base_dmls @ log_dmls

(* Properties --------------------------------------------------------------- *)

let prop_layer_identity =
  QCheck.Test.make ~count:300
    ~name:"layers on and off: identical outcomes, messages, rows and logs"
    (script_arb ~dmls:all_dmls)
    (fun s ->
      let l0 = run ~optimized:false (layers_off (paper_config s)) s in
      let l = run ~optimized:true (layered s ~domains:s.domains) s in
      let l' = run ~optimized:true (layered s ~domains:(5 - s.domains)) s in
      let unifies =
        List.mem Unification s.layers
        || List.exists (function Flip Unification -> true | _ -> false) s.ops
      in
      let v r = view ~calls:false ~sets:unifies ~log_rows:true r @ render_logs r.logs in
      let full r = view ~calls:true ~sets:false ~log_rows:true r @ render_logs r.logs in
      answered "layers off" l0 && answered "layered" l && answered "other domains" l'
      && agree ~expected:("layers off", v l0) ~actual:("layered", v l)
      && agree
           ~expected:(Printf.sprintf "domains=%d" s.domains, full l)
           ~actual:(Printf.sprintf "domains=%d" (5 - s.domains), full l'))

let prop_eq1 =
  QCheck.Test.make ~count:200
    ~name:"layered runs decide as Eq. 1 (NoOpt, every layer off, serial)"
    (script_arb ~dmls:log_dmls)
    (fun s ->
      let reference =
        run ~optimized:false (layers_off Engine.noopt_config) s
      in
      let l = run ~optimized:true (layered s ~domains:s.domains) s in
      let v = view ~calls:false ~sets:true ~log_rows:false in
      answered "Eq. 1" reference && answered "layered" l
      && agree ~expected:("Eq. 1", v reference) ~actual:("layered", v l))

(* The domain-count check through the full workload stack (Table 2
   policies over the synthetic MIMIC instance), fewer cases since each
   is costlier. *)
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
              | Engine.Accepted (r, _) -> "A:" ^ render_rows r
              | Engine.Rejected (ms, _) -> "R:" ^ String.concat ";" ms)
            stream
        in
        decisions @ render_logs (dump_logs s.Workload.Runner.engine)
      in
      run 1 = run 4)

(* Delta-mark compaction against the full mark: with compaction on, an
   engine and a twin that checkpoints, closes and recovers before every
   submission — so every twin commit marks in full — hold the same logs,
   as row multisets over the persisted relations, after every step.
   Recovery restores the journaled clock, which does not count rejected
   submissions' ticks, so the twin's clock is set to the engine's after
   each restart; its fresh database replays the base DML so far. DDL is
   not drawn: it is not journaled. *)
let prop_full_mark_twin =
  QCheck.Test.make ~count:100
    ~name:"compaction: incremental marks keep the logs of a full-marking twin"
    (script_arb ~dmls:base_dmls)
    (fun s ->
      let config = ref { (layered s ~domains:1) with Engine.log_compaction = true } in
      let dir = Test_support.temp_dir ?parent:tmpfs "dl_twin" in
      let replayed = ref [] in
      let exec db sql =
        match Dml.exec (Database.catalog db) (Parser.stmt sql) with
        | _ -> ()
        | exception Errors.Sql_error _ -> ()
      in
      let twin_db () =
        let db = fresh_db () in
        List.iter (exec db) (List.rev !replayed);
        db
      in
      let db_a = fresh_db () in
      let a = Engine.create ~config:!config db_a in
      let open_b () =
        Engine.create ~config:!config ~persist_dir:dir
          ~persist_fsync:Persistence.Store.Never (twin_db ())
      in
      let b = ref (open_b ()) in
      let restart () =
        Engine.persist_checkpoint !b;
        Engine.close !b;
        b := open_b ();
        Usage_log.set_clock (Engine.database !b) (Usage_log.current_time db_a)
      in
      let registered = ref 0 in
      let register e name ti = ignore (Engine.add_policy e ~name (snd templates.(ti))) in
      List.iter
        (fun ti ->
          let name = Printf.sprintf "p%d" !registered in
          incr registered;
          register a name ti;
          register !b name ti)
        s.initial;
      let verdict = function
        | Ok (Engine.Accepted _) -> "A"
        | Ok (Engine.Rejected (ms, _)) -> "R " ^ String.concat ";" (List.sort compare ms)
        | Error e -> "E " ^ Printexc.to_string e
      in
      let both f = (f a, f !b) in
      let step op =
        match op with
        | Submit (uid, qi) ->
          restart ();
          both (fun e ->
              [ verdict (try Ok (Engine.submit e ~uid queries.(qi)) with x -> Error x) ])
        | Batch members ->
          restart ();
          let subs =
            List.map
              (fun (uid, qi) ->
                {
                  Engine.batch_uid = uid;
                  batch_extra = [];
                  batch_query = Parser.query queries.(qi);
                })
              members
          in
          both (fun e -> List.map verdict (Engine.submit_batch e subs))
        | Register ti ->
          let name = Printf.sprintf "p%d" !registered in
          incr registered;
          both (fun e ->
              register e name ti;
              [])
        | Remove i ->
          both (fun e ->
              (match Engine.policies e with
              | [] -> ()
              | ps -> Engine.remove_policy e (List.nth ps (i mod List.length ps)).Policy.name);
              [])
        | Dml mi ->
          replayed := dmls.(mi) :: !replayed;
          exec db_a dmls.(mi);
          exec (Engine.database !b) dmls.(mi);
          ([], [])
        | Flip layer ->
          config := set_layer layer (not (layer_on layer !config)) !config;
          both (fun e ->
              Engine.set_config e !config;
              [])
        | Ddl _ | Restart | Checkpoint -> ([], [])
      in
      (* A relation that leaves the persisted scope keeps its rows in
         memory but not on disk, so the twin loses them on restart: such
         relations are left out from then on. *)
      let scope = ref [] and left = ref [] in
      let logs e =
        let db = Engine.database e in
        List.filter_map
          (fun rel ->
            if List.mem rel !left then None
            else
              Some
                ( rel,
                  List.sort compare
                    (Table.fold
                       (fun acc row -> render_row (Row.cells row) :: acc)
                       [] (Database.table db rel)) ))
          !scope
      in
      let ok =
        List.for_all
          (fun (k, op) ->
            let va, vb = step op in
            let scope' = (Engine.plan a).Engine.store_rels in
            left := List.filter (fun r -> not (List.mem r scope')) !scope @ !left;
            scope := scope';
            if va <> vb then
              QCheck.Test.fail_reportf "step %d verdicts: %s vs twin %s" k
                (String.concat " | " va) (String.concat " | " vb);
            let la = logs a and lb = logs !b in
            if la <> lb then
              QCheck.Test.fail_reportf "step %d logs: %s\n  twin: %s" k
                (String.concat " " (List.map (fun (r, rows) -> r ^ "={" ^ String.concat " " rows ^ "}") la))
                (String.concat " " (List.map (fun (r, rows) -> r ^ "={" ^ String.concat " " rows ^ "}") lb));
            true)
          (List.mapi (fun k op -> (k, op)) s.ops)
      in
      Engine.close !b;
      Test_support.remove_dir dir;
      ok)

(* Recovery: at every restart of a persisted script, the recovered
   persisted relations (cells in heap order) and clock equal the live
   ones just before the close, rejected submissions' ticks included.
   Every other restart follows base-table DML, which no record
   describes and recovery must not need. *)
let prop_restart_recovers =
  QCheck.Test.make ~count:100
    ~name:"a restart recovers the live persisted logs and clock"
    (script_arb ~dmls:all_dmls)
    (fun s ->
      let k = ref 0 in
      let ops =
        List.concat_map
          (function
            | Restart ->
              incr k;
              if !k mod 2 = 1 then [ Dml 0; Restart ] else [ Restart ]
            | op -> [ op ])
          s.ops
      in
      let s = { s with persist = true; ops } in
      match (run ~optimized:true (layered s ~domains:s.domains) s).recovery with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_reportf "restart: %s" m)

(* Improved partial policies (§4.3): every increment-probe decision of a
   layered interleaved run, against the source-tid reference. An SPJ πS
   gets the reference's verdict. A grouped πS probes its HAVING-stripped
   core, so it may keep a policy the reference prunes, never the
   reverse. *)
let prop_probe_reference =
  QCheck.Test.make ~count:150
    ~name:"increment probes prune as the source-tid check"
    (script_arb ~dmls:all_dmls)
    (fun s ->
      let s = { s with strategy = Engine.Interleaved; improved_partial = true } in
      let decisions =
        Test_support.probe_decisions (fun () ->
            ignore (run ~optimized:true (layered s ~domains:s.domains) s))
      in
      List.for_all
        (fun (pq, kept, reference) ->
          let grouped =
            match pq with Ast.Select s -> s.Ast.having <> None | Ast.Union _ -> false
          in
          if (if grouped then kept || not reference else kept = reference) then true
          else
            QCheck.Test.fail_reportf "%s πS %s: probe kept=%b, reference kept=%b"
              (if grouped then "grouped" else "SPJ")
              (Sql_print.query pq) kept reference)
        decisions)

(* In-memory runs leave the shared domain pool up (see [run]); join it
   once each property is done. *)
let suite =
  List.map
    (fun t ->
      let name, speed, f = QCheck_alcotest.to_alcotest t in
      (name, speed, fun () ->
        Fun.protect ~finally:Parallel.Pool.shutdown_shared f))
    [
      prop_layer_identity;
      prop_eq1;
      prop_workload_identical;
      prop_full_mark_twin;
      prop_restart_recovers;
      prop_probe_reference;
    ]
