(** Open-loop load generator for the policy server.

    Spins an in-process server on an ephemeral port, drives it over real
    TCP with N concurrent client connections — each connection binds a
    uid sampled from a simulated tenant population (1k–1M) and fires its
    next SUBMIT as soon as the previous verdict lands — and reports
    admission throughput and p50/p99 SUBMIT latency. Two admission
    configurations run against fresh engines: serial ([--serve-batch 1]:
    one fsync per submission) and batched (admission batches of up to
    32, committed with one fsync). Both admit every submission one at a
    time, with its own policy evaluation and witness pass; batching
    amortizes the fsync only. In [--smoke] mode the batched/serial
    throughput ratio at 32 connections gates CI: batched admission must
    be at least 2x serial.

    The policy set is two SPJ policies (no clock atoms, TI rewriting
    off) over a violation-free stream — the common case the server is
    built for. *)

open Datalawyer
module Protocol = Server.Protocol

(* Workload ---------------------------------------------------------------- *)

(* Monotone SPJ policies without clock atoms, violation-free because no
   generated uid is ever -1. *)
let policies =
  [
    ( "banned",
      "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid = b.uid"
    );
    ( "prov",
      "SELECT DISTINCT 'provenance touch' FROM provenance p, banned b WHERE \
       p.irid = 'data' AND p.itid = b.uid" );
  ]

let queries =
  [|
    "SELECT v FROM data WHERE k = 1";
    "SELECT k, v FROM data";
    "SELECT d.v FROM data d, data e WHERE d.k = e.k AND e.v = 'b'";
  |]

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dl_load_%d_%d" (Unix.getpid ()) !counter)
    in
    (if Sys.file_exists dir then
       Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f)));
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let make_engine () =
  let db = Relational.Database.create () in
  ignore
    (Relational.Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'), \
        (2, 'b'), (3, 'c'); CREATE TABLE banned (uid INT); INSERT INTO banned \
        VALUES (-1)");
  (* TI rewriting off, as in every earlier reading of this benchmark; the
     store buffers ([Never]) so durability comes from the admission
     pipeline's one forced flush per batch. *)
  let config = { Engine.default_config with Engine.time_independent = false } in
  let engine =
    Engine.create ~config ~persist_dir:(temp_dir ())
      ~persist_fsync:Persistence.Store.Never db
  in
  List.iter (fun (name, sql) -> ignore (Engine.add_policy engine ~name sql)) policies;
  engine

(* Minimal blocking client ------------------------------------------------- *)

type client = { fd : Unix.file_descr; decoder : Protocol.Decoder.t; buf : Bytes.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; decoder = Protocol.Decoder.create (); buf = Bytes.create 65536 }

let write_all c s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let n = Unix.write c.fd b off (len - off) in
      if n = 0 then failwith "connection lost";
      go (off + n)
    end
  in
  go 0

let rec recv c =
  match Protocol.Decoder.next c.decoder with
  | `Frame payload -> (
    match Protocol.parse_response payload with
    | Ok r -> r
    | Error (_, m) -> failwith ("bad reply: " ^ m))
  | `Error code -> failwith ("framing error: " ^ code)
  | `Awaiting ->
    let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
    if n = 0 then failwith "server closed the connection";
    Protocol.Decoder.feed c.decoder (Bytes.sub_string c.buf 0 n);
    recv c

let rpc c req =
  write_all c (Protocol.encode_frame (Protocol.render_request req));
  recv c

let open_session port uid =
  let c = connect port in
  (match rpc c (Protocol.Hello Protocol.version) with
  | Protocol.Hello_ok _ -> ()
  | r -> failwith ("HELLO: " ^ Protocol.render_response r));
  (match rpc c (Protocol.Auth uid) with
  | Protocol.Auth_ok _ -> ()
  | r -> failwith ("AUTH: " ^ Protocol.render_response r));
  c

(* One connection's life: [reqs] submissions, re-binding a freshly
   sampled uid every [per_session] of them (tenants come and go), each
   SUBMIT timed individually. *)
let worker ~port ~pop ~reqs ~per_session ~seed (lats : float array) =
  let state = ref (seed land 0x3FFFFFFF) in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let c = ref None in
  for i = 0 to reqs - 1 do
    if i mod per_session = 0 then begin
      Option.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !c;
      c := Some (open_session port (rand () mod pop))
    end;
    let conn = Option.get !c in
    let sql = queries.(rand () mod Array.length queries) in
    let t0 = Unix.gettimeofday () in
    (match rpc conn (Protocol.Submit sql) with
    | Protocol.Accepted _ -> ()
    | r -> failwith ("unexpected verdict: " ^ Protocol.render_response r));
    lats.(i) <- Unix.gettimeofday () -. t0
  done;
  Option.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !c

type measurement = {
  throughput : float;  (** accepted submissions / s *)
  p50 : float;
  p99 : float;  (** seconds *)
  batches : int;
  fsyncs : int;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(int_of_float (p *. float_of_int (n - 1)))

let measure ~max_batch ~conns ~reqs ~pop ~per_session =
  let engine = make_engine () in
  let config =
    { Server.Tcp.default_config with Server.Tcp.port = 0; max_batch }
  in
  let srv = Server.Tcp.start ~config engine in
  let port = Server.Tcp.port srv in
  let lats = Array.init conns (fun _ -> Array.make reqs 0.0) in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init conns (fun i ->
        Thread.create
          (fun () ->
            worker ~port ~pop ~reqs ~per_session ~seed:((i * 7919) + 13)
              lats.(i))
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let stats = Server.Tcp.stats srv in
  let stat k = try int_of_string (List.assoc k stats) with _ -> 0 in
  let batches = stat "batches" and fsyncs = stat "group-commit-fsyncs" in
  Server.Tcp.stop ~close_engine:true srv;
  let all = Array.concat (Array.to_list lats) in
  Array.sort compare all;
  {
    throughput = float_of_int (conns * reqs) /. wall;
    p50 = percentile all 0.50;
    p99 = percentile all 0.99;
    batches;
    fsyncs;
  }

let run (_scale : Common.scale) =
  Common.header "load: batched concurrent admission over TCP";
  let smoke = !Common.smoke in
  let conns = 32 in
  let reqs = if smoke then 40 else 80 in
  let per_session = 20 in
  let pops = if smoke then [ 1_000 ] else [ 1_000; 100_000; 1_000_000 ] in
  Printf.printf
    "%d connections x %d submissions, re-binding a fresh uid every %d\n" conns
    reqs per_session;
  let rows = ref [] in
  let gate = ref None in
  List.iter
    (fun pop ->
      let serial = measure ~max_batch:1 ~conns ~reqs ~pop ~per_session in
      let batched = measure ~max_batch:32 ~conns ~reqs ~pop ~per_session in
      let ratio = batched.throughput /. serial.throughput in
      if !gate = None then gate := Some ratio;
      List.iter
        (fun (label, m) ->
          rows :=
            [
              Printf.sprintf "%d" pop;
              label;
              Printf.sprintf "%.0f" m.throughput;
              Printf.sprintf "%.2f" (Common.ms m.p50);
              Printf.sprintf "%.2f" (Common.ms m.p99);
              Printf.sprintf "%d" m.batches;
              Printf.sprintf "%d" m.fsyncs;
            ]
            :: !rows)
        [ ("serial", serial); ("batch32", batched) ];
      Printf.printf "  pop %d: batched/serial throughput ratio %.2fx\n" pop ratio)
    pops;
  Common.print_table
    [ 9; 8; 10; 9; 9; 8; 7 ]
    [ "uids"; "mode"; "subs/s"; "p50 ms"; "p99 ms"; "batches"; "fsyncs" ]
    (List.rev !rows);
  match !gate with
  | Some ratio when smoke ->
    Printf.printf "\nsmoke gate: batched admission %.2fx serial (floor 2.0x)\n"
      ratio;
    if ratio < 2.0 then begin
      Printf.printf "REGRESSION: batched admission below the 2x floor\n";
      exit 1
    end
  | _ -> ()
