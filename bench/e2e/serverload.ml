(** The [server-spj] workload: multi-tenant serving over TCP.

    The policy server runs in a child process (this executable in its
    [serve] mode), persisting with fsync [Never] plus the admission
    pipeline's one forced sync per batch. Two monotone SPJ policies
    reject every uid divisible by 50. One generator thread drives two
    connections, each with at most one request in flight (the server
    leaves Nagle's algorithm on, so a second reply queued behind an
    unacknowledged one would wait for the client's delayed ACK). A
    connection carries one session and reconnects for the next, under a
    fresh uid from a population of 100 000: nine tenants in ten submit
    50 times; the tenth is banned, is rejected 5 times and gives up.

    After 1 000 warm-up submissions sent one at a time, the end-to-end
    metrics come from a closed loop over the whole window: each
    connection sends its next request when its previous verdict lands,
    and latency runs from send to verdict. An open loop at a
    fixed rate measured the same server too, but any spell in which the
    machine served fewer than that rate grew a backlog whose wait every
    later request inherited, so one run's median could read ten times
    another's.

    The traced run drives the closed loop for half the window and an
    open-loop rate ladder for the other half (100 to 700/s in steps of
    100, until p99 exceeds 10 ms or the backlog 1 %; latency from when
    each request was due), and replays the same submissions in-process
    through [Server.Admission], and through [Engine.submit_batch] plus
    [Store.flush ~sync:true], to split the server's latency into
    transport, admission, engine and flush. *)

open Relational
open Datalawyer
module Protocol = Server.Protocol

let population = 100_000
let per_session = 50
let banned_session = 5
let banned_every = 50
let ladder = List.init 7 (fun k -> 100. *. float_of_int (k + 1))
let p99_limit = 0.010
let backlog_limit = 0.01

let policies =
  [
    ("banned", "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid = b.uid");
    ( "prov",
      "SELECT DISTINCT 'provenance touch' FROM provenance p, banned b WHERE p.irid = 'data' \
       AND p.itid = b.uid" );
  ]

let queries =
  [|
    "SELECT v FROM data WHERE k = 1";
    "SELECT k, v FROM data";
    "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.v = 'b'";
  |]

let base_script =
  Printf.sprintf
    "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'), (2, 'b'), (3, 'c'); \
     CREATE TABLE banned (uid INT); INSERT INTO banned VALUES %s"
    (String.concat ", "
       (List.init (population / banned_every) (fun i ->
            Printf.sprintf "(%d)" ((i + 1) * banned_every))))

let bare_db () =
  let db = Database.create () in
  ignore (Database.exec_script db base_script);
  db

(* TI rewriting would add clock atoms and push the policies off the
   batch fast path; durability comes from the pipeline's forced flush. *)
let config = { Engine.default_config with Engine.time_independent = false }

let make_engine ~dir =
  let engine =
    Engine.create ~config ~persist_dir:dir ~persist_fsync:Persistence.Store.Never (bare_db ())
  in
  List.iter (fun (name, sql) -> ignore (Engine.add_policy engine ~name sql)) policies;
  engine

(* The stream. Request [i] travels on connection slot [i mod 2]. Each
   slot runs cycles of nine ordinary sessions and one banned one; slot 1
   runs half a cycle behind slot 0, so both are never banned at once. *)
type item = { sql : string; uid : int; expect_reject : bool }

let cycle = (9 * per_session) + banned_session

(* The session of request [i], as a key unique within the run, and
   whether its tenant is banned. *)
let session_of i =
  let slot = i mod 2 in
  let m = (i / 2) + (slot * cycle / 2) in
  let k = min 9 (m mod cycle / per_session) in
  ((((m / cycle * 10) + k) * 2) + slot, k = 9)

let session_uid ~seed key ~banned =
  let rng = Mimic.Rng.create ~seed:((seed * 7_919) + key) in
  if banned then banned_every * (1 + Mimic.Rng.int rng (population / banned_every))
  else
    let u = 1 + Mimic.Rng.int rng population in
    if u mod banned_every = 0 then u - 1 else u

let item ~seed i =
  let key, banned = session_of i in
  let rng = Mimic.Rng.create ~seed:((seed * 1_000_003) + i) in
  {
    sql = queries.(Mimic.Rng.int rng (Array.length queries));
    uid = session_uid ~seed key ~banned;
    expect_reject = banned;
  }

(* Child: the server process ----------------------------------------------- *)

(* Serve until stdin closes. Control lines on stdin: [footprint] reports
   the log rows, stored bytes and peak RSS so far. *)
let serve ~dir =
  let engine = make_engine ~dir in
  let srv =
    Server.Tcp.start ~config:{ Server.Tcp.default_config with port = 0; max_batch = 32 } engine
  in
  Printf.printf "listening %d\n%!" (Server.Tcp.port srv);
  let footprint tag =
    Printf.printf "%s %d %d %.17g\n%!" tag (Probe.log_rows engine) (Probe.stored_bytes engine)
      (Meter.rss_hwm_mb ())
  in
  let rec control () =
    match input_line stdin with
    | "footprint" ->
      footprint "footprint";
      control ()
    | _ -> control ()
    | exception End_of_file -> ()
  in
  control ();
  Server.Tcp.stop srv;
  footprint "final";
  Engine.close engine

(* Parent: the server child's handle --------------------------------------- *)

type child = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  port : int;
  mutable final : footprint option option;  (** [Some _] once stopped *)
}

and footprint = { log_rows : int; bytes : int; rss_mb : float }

let spawn ~dir =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; "--dir"; dir |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let from_child = Unix.in_channel_of_descr out_r in
  let to_child = Unix.out_channel_of_descr in_w in
  match String.split_on_char ' ' (input_line from_child) with
  | [ "listening"; p ] -> { pid; to_child; from_child; port = int_of_string p; final = None }
  | _ | (exception End_of_file) ->
    close_out_noerr to_child;
    ignore (Unix.waitpid [] pid);
    failwith "server child did not start"

let read_footprint c tag =
  match String.split_on_char ' ' (input_line c.from_child) with
  | [ t; rows; bytes; rss ] when t = tag ->
    { log_rows = int_of_string rows; bytes = int_of_string bytes; rss_mb = float_of_string rss }
  | _ -> failwith ("server child: expected " ^ tag)

let footprint c =
  output_string c.to_child "footprint\n";
  flush c.to_child;
  read_footprint c "footprint"

(* Close the child's stdin, read its final report, reap it. Idempotent. *)
let stop c =
  match c.final with
  | Some fp -> fp
  | None ->
    close_out_noerr c.to_child;
    let fp = try Some (read_footprint c "final") with Failure _ | End_of_file -> None in
    close_in_noerr c.from_child;
    ignore (Unix.waitpid [] c.pid);
    c.final <- Some fp;
    fp

(* Generator --------------------------------------------------------------- *)

type pending = { due : float; sent_at : float; enc : float; traced : bool; it : item }

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  session : int;  (** the session key this connection carries *)
  inflight : pending Queue.t;
}

(* What one drive of the generator observed. *)
type obs = {
  lat : Meter.samples;  (** due → verdict, seconds *)
  lat_traced : Meter.samples;
  lat_untraced : Meter.samples;
  late : Meter.samples;  (** send time minus due time *)
  encode : Meter.samples;
  decode : Meter.samples;
  mutable timed : (string * float) list;  (** (SQL, latency) of every answered request *)
  plain_too : bool;  (** also time each answered SQL as a plain in-process query *)
  mutable plain : (string * float) list;
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;
}

let obs ?(plain_too = false) () =
  {
    plain_too;
    plain = [];
    lat = Meter.samples ();
    lat_traced = Meter.samples ();
    lat_untraced = Meter.samples ();
    late = Meter.samples ();
    encode = Meter.samples ();
    decode = Meter.samples ();
    timed = [];
    completed = 0;
    failed = 0;
    rejected = 0;
  }

exception Protocol_failure of string

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let frame req = Protocol.encode_frame (Protocol.render_request req)

(* Read one response frame from a connection, blocking. *)
let rec read_response fd dec buf =
  match Protocol.Decoder.next dec with
  | `Frame p -> (
    match Protocol.parse_response p with Ok r -> r | Error (_, m) -> raise (Protocol_failure m))
  | `Error code -> raise (Protocol_failure ("framing error " ^ code))
  | `Awaiting ->
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    if n = 0 then raise (Protocol_failure "server closed a connection");
    Protocol.Decoder.feed dec (Bytes.sub_string buf 0 n);
    read_response fd dec buf

(* Open a session: HELLO and AUTH each wait for their reply, as a client
   must before it knows the session is bound. *)
let connect port ~session uid buf =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let dec = Protocol.Decoder.create () in
  List.iter
    (fun req ->
      write_all fd (frame req);
      match read_response fd dec buf with
      | Protocol.Hello_ok _ | Protocol.Auth_ok _ -> ()
      | r -> raise (Protocol_failure ("handshake: " ^ Protocol.render_response r)))
    [ Protocol.Hello Protocol.version; Protocol.Auth uid ];
  { fd; dec; session; inflight = Queue.create () }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* The generator's state across drives: two connection slots and the
   next request index, so sessions and uids continue where the previous
   drive stopped. *)
type gen = {
  port : int;
  seed : int;
  slots : conn option array;
  mutable next : int;
  db : Database.t;  (** a bare instance: the plain baseline *)
  rows_of : (string, int) Hashtbl.t;  (** plain row count per SQL *)
  tracer : Meter.tracer option;
  buf : Bytes.t;
}

let generator ~port ~seed ~tracer =
  let db = bare_db () in
  let rows_of = Hashtbl.create 8 in
  Array.iter
    (fun sql -> Hashtbl.replace rows_of sql (List.length (Database.query db sql).Executor.out_rows))
    queries;
  { port; seed; slots = [| None; None |]; next = 0; db; rows_of; tracer; buf = Bytes.create 65536 }

(* The connection that can take the next request, if any: its slot's
   connection once the previous request on it is answered. When the
   next request opens a new session, the old connection is replaced. *)
let ready_conn g =
  let s = g.next mod 2 and session, _ = session_of g.next in
  match g.slots.(s) with
  | Some c when not (Queue.is_empty c.inflight) -> None
  | Some c when c.session = session -> Some c
  | slot ->
    Option.iter close_conn slot;
    let c = connect g.port ~session (item ~seed:g.seed g.next).uid g.buf in
    g.slots.(s) <- Some c;
    Some c

(* Sessions alternate between traced and untraced in traced runs, so the
   untraced ones measure the tracing overhead. *)
let traced_request g i = g.tracer <> None && fst (session_of i) / 2 mod 2 = 0

let send g o c ~due =
  let i = g.next in
  let it = item ~seed:g.seed i in
  let t0 = Meter.now () in
  let bytes = frame (Protocol.Submit it.sql) in
  let t1 = Meter.now () in
  write_all c.fd bytes;
  Queue.push { due; sent_at = t0; enc = t1 -. t0; traced = traced_request g i; it } c.inflight;
  Meter.push o.late (Float.max 0. (t0 -. due));
  Meter.push o.encode (t1 -. t0);
  g.next <- i + 1

let check g o (p : pending) resp =
  match resp with
  | Protocol.Accepted { rows; _ } ->
    if p.it.expect_reject || rows <> Hashtbl.find g.rows_of p.it.sql then o.failed <- o.failed + 1
  | Protocol.Rejected _ ->
    o.rejected <- o.rejected + 1;
    if not p.it.expect_reject then o.failed <- o.failed + 1
  | _ -> o.failed <- o.failed + 1

let settle g o (p : pending) resp ~dec_start ~now =
  let l = now -. p.due in
  Meter.push o.lat l;
  o.timed <- (p.it.sql, l) :: o.timed;
  Meter.push (if p.traced then o.lat_traced else o.lat_untraced) l;
  Meter.push o.decode (now -. dec_start);
  o.completed <- o.completed + 1;
  check g o p resp;
  (* The plain query runs while the generator would idle anyway, next to
     its admission, so both see the same machine. *)
  if o.plain_too then begin
    let t0 = Meter.now () in
    ignore (Database.query g.db p.it.sql);
    o.plain <- (p.it.sql, Meter.now () -. t0) :: o.plain
  end;
  match g.tracer with
  | Some tr when p.traced ->
    let root = Meter.add_span tr ~parent:0 ~name:"server.request" ~start:p.due ~dur:l in
    List.iter
      (fun (name, start, dur) -> ignore (Meter.add_span tr ~parent:root ~name ~start ~dur))
      [
        ("server.gen_wait", p.due, p.sent_at -. p.due);
        ("server.encode", p.sent_at, p.enc);
        ("server.decode", dec_start, now -. dec_start);
      ]
  | _ -> ()

(* Read what is available on [c] and settle the completed requests. *)
let receive g o c =
  let n = try Unix.read c.fd g.buf 0 (Bytes.length g.buf) with Unix.Unix_error _ -> 0 in
  if n = 0 then raise (Protocol_failure "server closed a connection");
  Protocol.Decoder.feed c.dec (Bytes.sub_string g.buf 0 n);
  let rec frames () =
    let dec_start = Meter.now () in
    match Protocol.Decoder.next c.dec with
    | `Awaiting -> ()
    | `Error code -> raise (Protocol_failure ("framing error " ^ code))
    | `Frame payload ->
      let resp =
        match Protocol.parse_response payload with
        | Ok r -> r
        | Error (_, m) -> raise (Protocol_failure m)
      in
      settle g o (Queue.pop c.inflight) resp ~dec_start ~now:(Meter.now ());
      frames ()
  in
  frames ()

let inflight g =
  Array.fold_left (fun acc -> function Some c -> acc + Queue.length c.inflight | None -> acc) 0 g.slots

(* Wait up to [timeout] seconds for replies and settle them. *)
let poll g o timeout =
  let conns = Array.to_list g.slots |> List.filter_map Fun.id in
  match Unix.select (List.map (fun c -> c.fd) conns) [] [] (Float.max 0. timeout) with
  | ready, _, _ -> List.iter (fun c -> if List.mem c.fd ready then receive g o c) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Open loop: [count] requests due at [rate] per second from now. A due
   request whose connection is busy waits in the generator, and its
   latency still counts from when it was due. Returns the backlog —
   requests due but unanswered — when the last one fell due. *)
let drive_open g o ~rate ~count =
  let first = g.next and t0 = Meter.now () in
  let last = first + count in
  let due k = t0 +. (float_of_int (k - first) /. rate) in
  let backlog = ref None in
  while g.next < last || inflight g > 0 do
    let now = Meter.now () in
    if !backlog = None && now >= due (last - 1) then
      backlog := Some (last - g.next + inflight g);
    match if g.next < last && due g.next <= now then ready_conn g else None with
    | Some c -> send g o c ~due:(due g.next)
    | None -> poll g o (if g.next < last then Float.min 0.05 (due g.next -. now) else 0.05)
  done;
  Option.value !backlog ~default:0

(* Closed loop until [stop ()] holds: each connection sends its next
   request once its previous one is answered, with at most [outstanding]
   requests out in all. With one, the server forms the same batches (of
   one) whatever the timing, so its log and WAL repeat exactly. *)
let drive_closed g o ~outstanding ~stop =
  while (not (stop ())) || inflight g > 0 do
    match if stop () || inflight g >= outstanding then None else ready_conn g with
    | Some c -> send g o c ~due:(Meter.now ())
    | None -> poll g o 0.05
  done

let close_gen g =
  Array.iteri
    (fun s -> function
      | Some c ->
        close_conn c;
        g.slots.(s) <- None
      | None -> ())
    g.slots

(* Server counters over a fresh control connection. *)
let server_stats port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd (frame (Protocol.Hello Protocol.version) ^ frame Protocol.Stats);
      let dec = Protocol.Decoder.create () and buf = Bytes.create 65536 in
      ignore (read_response fd dec buf);
      match read_response fd dec buf with
      | Protocol.Stats_reply kvs -> fun k -> (try int_of_string (List.assoc k kvs) with _ -> 0)
      | _ -> raise (Protocol_failure "STATS"))

(* In-process replays (traced run) ----------------------------------------- *)

let p50 s = Meter.percentile (Meter.to_sorted s) 0.50

(* [Server.Admission.submit] latency without transport. *)
let replay_admission ~dir ~seed ~count =
  let engine = make_engine ~dir in
  let adm = Server.Admission.create ~engine ~max_batch:32 () in
  Server.Admission.start adm;
  let lat = Meter.samples () in
  for i = 0 to count - 1 do
    let it = item ~seed i in
    let t0 = Meter.now () in
    ignore (Server.Admission.submit adm ~uid:it.uid ~sql:it.sql);
    Meter.push lat (Meter.now () -. t0)
  done;
  Server.Admission.stop adm;
  Engine.close engine;
  lat

(* The engine's share: singleton [submit_batch] calls plus the forced
   flush that makes each accepted one durable. *)
let replay_engine ~dir ~seed ~count =
  let engine = make_engine ~dir in
  let store = Option.get (Engine.persist_store engine) in
  let a = Probe.acc () and flush = Meter.samples () in
  let c0 = Probe.read_counters engine in
  for i = 0 to count - 1 do
    let it = item ~seed i in
    let t0 = Meter.now () in
    let q = Parser.query it.sql in
    let t1 = Meter.now () in
    let r = Engine.submit_batch engine [ { Engine.batch_uid = it.uid; batch_extra = []; batch_query = q } ] in
    let t2 = Meter.now () in
    match r with
    | [ Ok outcome ] ->
      Probe.record a ~parse:(t1 -. t0) ~wall:(t2 -. t1) (Engine.stats_of outcome);
      (match outcome with
      | Engine.Accepted _ ->
        Persistence.Store.flush ~sync:true store;
        Meter.push flush (Meter.now () -. t2)
      | Engine.Rejected _ -> ())
    | _ -> raise (Protocol_failure "in-process replay failed")
  done;
  let c1 = Probe.read_counters engine in
  Engine.close engine;
  (a, c0, c1, flush)

(* The workload ---------------------------------------------------------------- *)

let setups ~smoke = if smoke then 1 else 21

(* Submissions after which the server's footprint is read. *)
let footprint_after ~smoke = if smoke then 50 else 1_000

let run ~seed ~seconds ~traced ~smoke ~tmp ~spans_path =
  (* Set-up: spawn until listening, several times, half before the
     measurement and half after it; the last child spawned before serves. *)
  let setup_times = ref [] in
  let spawn_timed k =
    let t0 = Meter.now () in
    let c = spawn ~dir:(Filename.concat tmp (Printf.sprintf "server-%d" k)) in
    setup_times := (Meter.now () -. t0) :: !setup_times;
    c
  in
  let setups = setups ~smoke in
  let before = (setups + 1) / 2 in
  for k = 1 to before - 1 do
    ignore (stop (spawn_timed k))
  done;
  let child = spawn_timed before in
  let tracer = if traced then Some (Meter.tracer ()) else None in
  let g = generator ~port:child.port ~seed ~tracer in
  let half = float_of_int seconds /. 2. in
  Fun.protect
    ~finally:(fun () ->
      close_gen g;
      ignore (stop child))
    (fun () ->
      (* Warm-up, one request at a time, after which the footprint is
         read: it then repeats exactly. *)
      let warm = obs () in
      drive_closed g warm ~outstanding:1 ~stop:(fun () -> g.next >= footprint_after ~smoke);
      let fp = footprint child in
      (* The timed closed loop keeps both connections busy: with one
         request out at a time the CPU idled between hand-offs, and the
         wake-ups it then paid moved the median by a quarter from run to
         run. The whole window, or its first half when traced. *)
      let s0 = server_stats child.port in
      let a = obs ~plain_too:true () in
      let t0 = Meter.now () in
      let window = if traced then half else float_of_int seconds in
      let last = g.next + 50 in
      drive_closed g a ~outstanding:2
        ~stop:(if smoke then fun () -> g.next >= last else fun () -> Meter.now () -. t0 >= window);
      let closed_wall = Meter.now () -. t0 in
      let s1 = server_stats child.port in
      (* The ladder's answer is the highest rate meeting the latency
         limit without a backlog. *)
      let ladder_obs = ref [] in
      if traced then begin
        let step = if smoke then 0.1 else half /. float_of_int (List.length ladder) in
        let rec climb = function
          | [] -> ()
          | rate :: rest ->
            let o = obs () in
            let backlog = drive_open g o ~rate ~count:(int_of_float (rate *. step)) in
            let p99 = Meter.percentile (Meter.to_sorted o.lat) 0.99 in
            let ok = p99 <= p99_limit && float_of_int backlog <= backlog_limit *. rate *. step in
            ladder_obs := (rate, o, ok) :: !ladder_obs;
            if ok then climb rest
        in
        climb ladder
      end;
      close_gen g;
      let plain_mean = Probe.sequence_mean a.plain in
      let final = stop child in
      for k = before + 1 to setups do
        ignore (stop (spawn_timed k))
      done;
      let all_obs = warm :: a :: List.map (fun (_, o, _) -> o) !ladder_obs in
      let attempted = List.fold_left (fun acc o -> acc + o.completed) 0 all_obs in
      let failed = List.fold_left (fun acc o -> acc + o.failed) 0 all_obs in
      let timings, absolute =
        Report.timing_metrics ~timed:a.timed ~plain:a.plain
          ~throughput:(float_of_int a.completed /. closed_wall)
      in
      let e2e =
        (("setup_s", Meter.median_of !setup_times) :: timings)
        @ [ ("rss_mb", fp.rss_mb); ("stored_kb", float_of_int fp.bytes /. 1024.) ]
      in
      let layers () =
        let count = if smoke then 50 else 400 in
        let adm = replay_admission ~dir:(Filename.concat tmp "replay-admission") ~seed ~count in
        let acc, c0, c1, flush = replay_engine ~dir:(Filename.concat tmp "replay-engine") ~seed ~count in
        let batch_p50 = p50 acc.Probe.wall +. p50 acc.Probe.parse in
        let max_rate =
          List.fold_left (fun m (r, _, ok) -> if ok then Float.max m r else m) 0. !ladder_obs
        in
        let d k = s1 k - s0 k in
        let ratio x y = if y = 0 then 0. else float_of_int x /. float_of_int y in
        let late = Meter.samples () in
        List.iter
          (fun (_, o, _) -> Array.iter (Meter.push late) (Meter.to_sorted o.late))
          !ladder_obs;
        Probe.engine_layers acc ~c0 ~c1 ~plain_ms:(plain_mean *. 1e3)
        @ [
            ("persist.flush_ms", p50 flush *. 1e3);
            ("server.codec_us", (Meter.mean a.encode +. Meter.mean a.decode) *. 1e6);
            ("server.transport_ms", (p50 a.lat -. p50 adm) *. 1e3);
            ("server.admission_ms", (p50 adm -. batch_p50 -. p50 flush) *. 1e3);
            ("server.batch_size_mean", ratio (d "submissions") (d "batches"));
            ("server.fsyncs_per_sub", ratio (d "group-commit-fsyncs") (d "submissions"));
            ("server.gen_late_ms", Meter.percentile (Meter.to_sorted late) 0.99 *. 1e3);
            ("server.max_rate_sps", max_rate);
            ( "bench.trace_overhead_pct",
              Meter.trace_overhead_pct ~traced:a.lat_traced ~untraced:a.lat_untraced );
          ]
      in
      Option.iter (fun tr -> Option.iter (Meter.write_spans tr) spans_path) tracer;
      let final_rows = match final with Some f -> f.log_rows | None -> -1 in
      {
        Report.workload = "server-spj";
        metrics = (if traced then layers () else e2e);
        extras = absolute;
        attempted;
        failed;
        counters =
          [
            ("closed_loop_submissions", a.completed);
            ("rejections", warm.rejected + a.rejected);
            ("log_rows", fp.log_rows);
            ("log_rows_end", final_rows);
          ];
        samples = Report.sample_counts (Meter.count a.lat);
        config =
          [
            ("engine", Report.engine_config_json config);
            ("fsync", Json.Str "never+forced-sync-per-batch");
            ("max_batch", Json.Num 32.);
            ("connections", Json.Num 2.);
            ("loop", Json.Str "closed");
            ("setups", Json.Num (float_of_int setups));
          ];
      })
