(* Policy-server tests: protocol framing and parsing (pure), the
   session state machine (pure), which route an admission batch takes
   (batched-vs-serial verdict identity is the differential oracle's
   job, test_oracle.ml), and end-to-end socket tests:
   genuinely concurrent clients against a live server, with the
   server's own admission order replayed serially afterwards, plus
   malformed frames, oversized payloads, AUTH-before-SUBMIT and
   mid-batch disconnect. *)

open Relational
open Datalawyer
module Protocol = Server.Protocol
module Session = Server.Session
module Tcp = Server.Tcp

let tc = Test_support.tc

(* Protocol ----------------------------------------------------------------- *)

let feed_all d s = Protocol.Decoder.feed d s

let test_decoder_split_frames () =
  let d = Protocol.Decoder.create () in
  let wire = Protocol.encode_frame "PING" ^ Protocol.encode_frame "STATS" in
  (* byte-by-byte delivery must reassemble both frames, in order *)
  let frames = ref [] in
  String.iter
    (fun c ->
      feed_all d (String.make 1 c);
      match Protocol.Decoder.next d with
      | `Frame p -> frames := p :: !frames
      | `Awaiting -> ()
      | `Error code -> Alcotest.fail ("unexpected framing error: " ^ code))
    wire;
  Alcotest.(check (list string)) "both frames" [ "PING"; "STATS" ] (List.rev !frames);
  Alcotest.(check bool) "drained" true (Protocol.Decoder.next d = `Awaiting)

let test_decoder_batched_frames () =
  let d = Protocol.Decoder.create () in
  feed_all d (String.concat "" (List.map Protocol.encode_frame [ "A"; "BB"; "CCC" ]));
  let take () =
    match Protocol.Decoder.next d with
    | `Frame p -> p
    | _ -> Alcotest.fail "expected a frame"
  in
  let first = take () in
  let second = take () in
  let third = take () in
  Alcotest.(check (list string)) "all three" [ "A"; "BB"; "CCC" ]
    [ first; second; third ]

let test_decoder_malformed () =
  let d = Protocol.Decoder.create () in
  feed_all d "7x\nPAYLOAD";
  (match Protocol.Decoder.next d with
  | `Error code -> Alcotest.(check string) "code" Protocol.err_bad_frame code
  | _ -> Alcotest.fail "non-digit length must be rejected");
  (* sticky: feeding more never recovers *)
  feed_all d (Protocol.encode_frame "PING");
  match Protocol.Decoder.next d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "framing errors must be sticky"

let test_decoder_headerless_garbage () =
  let d = Protocol.Decoder.create () in
  (* more bytes than any length prefix could span, no newline *)
  feed_all d "GARBAGEGARBAGE";
  match Protocol.Decoder.next d with
  | `Error code -> Alcotest.(check string) "code" Protocol.err_bad_frame code
  | _ -> Alcotest.fail "unterminated length prefix must be rejected"

let test_decoder_oversized () =
  let d = Protocol.Decoder.create ~max_payload:16 () in
  feed_all d (Protocol.encode_frame (String.make 17 'x'));
  match Protocol.Decoder.next d with
  | `Error code -> Alcotest.(check string) "code" Protocol.err_too_large code
  | _ -> Alcotest.fail "oversized payload must be rejected"

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Hello Protocol.version;
      Protocol.Auth 42;
      Protocol.Submit "SELECT v\nFROM data\nWHERE k = 1";
      Protocol.Stats;
      Protocol.Ping;
      Protocol.Quit;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_request (Protocol.render_request r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error (_, m) -> Alcotest.fail m)
    reqs;
  (match Protocol.parse_request "SUBMIT SELECT 1" with
  | Ok (Protocol.Submit "SELECT 1") -> ()
  | _ -> Alcotest.fail "one-line SUBMIT");
  (match Protocol.parse_request "FROBNICATE" with
  | Error (code, _) -> Alcotest.(check string) "verb" Protocol.err_bad_verb code
  | Ok _ -> Alcotest.fail "unknown verb must fail");
  (match Protocol.parse_request "AUTH -3" with
  | Error (code, _) -> Alcotest.(check string) "uid" Protocol.err_bad_arg code
  | Ok _ -> Alcotest.fail "negative uid must fail");
  match Protocol.parse_request "SUBMIT" with
  | Error (code, _) -> Alcotest.(check string) "sql" Protocol.err_bad_arg code
  | Ok _ -> Alcotest.fail "empty SUBMIT must fail"

let test_response_roundtrip () =
  let resps =
    [
      Protocol.Hello_ok Protocol.version;
      Protocol.Auth_ok 7;
      Protocol.Accepted { seq = 12; rows = 3 };
      Protocol.Rejected { seq = 13; messages = [ "P1 violated"; "P2 violated" ] };
      Protocol.Rejected { seq = 14; messages = [] };
      Protocol.Stats_reply [ ("sessions-total", "4"); ("batch-hist", "1:2 3-4:1") ];
      Protocol.Pong;
      Protocol.Bye;
      Protocol.Err { code = "sql"; message = "parse error at line 1" };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_response (Protocol.render_response r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error (_, m) -> Alcotest.fail m)
    resps

(* Session ------------------------------------------------------------------ *)

let test_session_hello_first () =
  let s = Session.create () in
  (match Session.step s (Protocol.Submit "SELECT 1") with
  | Session.Terminate (Protocol.Err { code; _ }) ->
    Alcotest.(check string) "code" Protocol.err_state code
  | _ -> Alcotest.fail "SUBMIT before HELLO must terminate");
  let s = Session.create () in
  match Session.step s (Protocol.Hello "datalawyer/99") with
  | Session.Terminate (Protocol.Err _) -> ()
  | _ -> Alcotest.fail "version mismatch must terminate"

let test_session_auth_binding () =
  let s = Session.create () in
  (match Session.step s (Protocol.Hello Protocol.version) with
  | Session.Reply (Protocol.Hello_ok _) -> ()
  | _ -> Alcotest.fail "HELLO");
  (* SUBMIT before AUTH is refused but keeps the connection *)
  (match Session.step s (Protocol.Submit "SELECT 1") with
  | Session.Reply (Protocol.Err { code; _ }) ->
    Alcotest.(check string) "code" Protocol.err_auth_required code
  | _ -> Alcotest.fail "SUBMIT before AUTH");
  (match Session.step s (Protocol.Auth 4) with
  | Session.Reply (Protocol.Auth_ok 4) -> ()
  | _ -> Alcotest.fail "AUTH");
  (* the admitted uid comes from the binding, not the request *)
  (match Session.step s (Protocol.Submit "SELECT 1") with
  | Session.Admit { uid = 4; sql = "SELECT 1" } -> ()
  | _ -> Alcotest.fail "SUBMIT must carry the bound uid");
  (* re-AUTH: same uid idempotent, different uid refused, binding kept *)
  (match Session.step s (Protocol.Auth 4) with
  | Session.Reply (Protocol.Auth_ok 4) -> ()
  | _ -> Alcotest.fail "re-AUTH same uid");
  (match Session.step s (Protocol.Auth 5) with
  | Session.Reply (Protocol.Err { code; _ }) ->
    Alcotest.(check string) "code" Protocol.err_auth_rebind code
  | _ -> Alcotest.fail "re-AUTH different uid must be refused");
  (match Session.step s (Protocol.Submit "SELECT 2") with
  | Session.Admit { uid = 4; _ } -> ()
  | _ -> Alcotest.fail "binding must survive the refused re-AUTH");
  match Session.step s Protocol.Quit with
  | Session.Terminate Protocol.Bye -> ()
  | _ -> Alcotest.fail "QUIT"

(* Batched admission --------------------------------------------------------- *)

let queries = Test_oracle.queries

let make_engine ?(generators = Usage_log.standard) ~policies () =
  let config =
    { Engine.default_config with Engine.time_independent = false; domains = 1 }
  in
  let engine = Engine.create ~config ~generators (Test_oracle.fresh_db ()) in
  List.iteri
    (fun i sql -> ignore (Engine.add_policy engine ~name:(Printf.sprintf "p%d" i) sql))
    policies;
  engine

let dump_logs engine = Test_oracle.render_logs (Test_oracle.dump_logs engine)

(* A member that fails to bind fails alone, before anything is
   generated: its batch-mates are admitted, each at its own tick, and
   the clock never moves for it. *)
let test_unbound_member_fails_alone () =
  let engine = make_engine ~policies:[ Test_oracle.template "banned" ] () in
  let db = Engine.database engine in
  let subs =
    List.map
      (fun sql ->
        { Engine.batch_uid = 1; batch_extra = []; batch_query = Parser.query sql })
      [ queries.(0); "SELECT nosuch FROM data" ]
  in
  (match Engine.submit_batch engine subs with
  | [ Ok (Engine.Accepted _); Error (Errors.Sql_error (Errors.Bind_error, _)) ] -> ()
  | _ -> Alcotest.fail "only the unbound member must fail");
  Alcotest.(check int) "one tick" 1 (Usage_log.current_time db);
  Engine.close engine

let verdict = function
  | Ok (Engine.Accepted (r, _)) ->
    Printf.sprintf "accepted [%s]" (Test_oracle.render_rows r)
  | Ok (Engine.Rejected (ms, _)) ->
    Printf.sprintf "rejected [%s]" (String.concat "; " ms)
  | Error e -> "raised " ^ Printexc.to_string e

(* A log relation whose generator reads the relation itself: [n] is the
   number of rows the submitting uid already has in [seen], tentative
   ones included. *)
let seen =
  Usage_log.custom ~relation:"seen"
    ~columns:[ ("uid", Ty.Int); ("n", Ty.Int) ]
    ~rank:0
    ~generate:(fun c ->
      let uid = Value.Int c.Usage_log.uid in
      let n =
        Table.fold
          (fun n row -> if Value.equal (Row.cell row 1) uid then n + 1 else n)
          0
          (Database.table c.Usage_log.db "seen")
      in
      [ [| uid; Value.Int n |] ])

(* Batched admission is one-at-a-time admission. For each case,
   [submit_batch] gives the verdicts, messages, logs (tids included) and
   clock that submitting the members one by one in list order gives;
   each case is its own test.
   "blocked" and "banned" are clock-free SPJ, "quota1" reads the clock
   and "agg-quota2" aggregates; each of them rejects a member. The
   "seen" case accepts all three members: compaction drops each uid 1
   row at its commit, so every member counts zero rows and the log
   ends empty. Members evaluated together would count their
   predecessors' tentative rows, and the [n = 1] row would be kept. *)
let batch_cases =
  [
    ("blocked", [], Test_oracle.template "blocked", [ 1; 2; 1 ], true);
    ("banned", [], Test_oracle.template "banned", [ 1; 3; 2; 3; 1 ], true);
    ("quota1", [], Test_oracle.template "quota1", [ 1; 1; 1; 2; 2; 2; 3 ], true);
    ("agg-quota2", [], Test_oracle.template "agg-quota2", [ 1; 1; 1; 2; 2; 2; 3 ], true);
    ( "seen",
      [ seen ],
      "SELECT DISTINCT 'seen 1 then 3' FROM seen s, seen t WHERE s.uid = t.uid \
       AND s.n = 1 AND t.n = 3",
      [ 1; 1; 1 ],
      false );
  ]

let test_batch_equals_serial (label, custom, policy, uids, fires) () =
  let subs =
    List.map
      (fun uid ->
        { Engine.batch_uid = uid; batch_extra = []; batch_query = Parser.query queries.(0) })
      uids
  in
  let generators = custom @ Usage_log.standard in
  let observe submit_all =
    let engine = make_engine ~generators ~policies:[ policy ] () in
    let verdicts = List.map verdict (submit_all engine) in
    let rels =
      Test_oracle.log_relations
      @ List.map (fun (g : Usage_log.generator) -> g.Usage_log.relation) custom
    in
    let logs = Test_oracle.render_logs (Test_oracle.dump_logs ~rels engine) in
    let clock = Usage_log.current_time (Engine.database engine) in
    Engine.close engine;
    (verdicts, logs, clock)
  in
  let bv, bl, bc = observe (fun e -> Engine.submit_batch e subs) in
  let sv, sl, sc =
    observe (fun e ->
        List.map
          (fun (s : Engine.batch_submission) ->
            Ok (Engine.submit_ast e ~uid:s.batch_uid s.batch_query))
          subs)
  in
  Alcotest.(check (list string)) (label ^ ": verdicts") sv bv;
  Alcotest.(check (list string)) (label ^ ": logs") sl bl;
  Alcotest.(check int) (label ^ ": clock") sc bc;
  Alcotest.(check bool) (label ^ ": a policy fires") fires
    (List.exists (String.starts_with ~prefix:"rejected") bv)

(* End-to-end over sockets -------------------------------------------------- *)

type client = { fd : Unix.file_descr; decoder : Protocol.Decoder.t; buf : Bytes.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; decoder = Protocol.Decoder.create (); buf = Bytes.create 4096 }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_raw c s = ignore (Unix.write c.fd (Bytes.unsafe_of_string s) 0 (String.length s))

let recv c =
  let rec next () =
    match Protocol.Decoder.next c.decoder with
    | `Frame payload -> (
      match Protocol.parse_response payload with
      | Ok r -> `Reply r
      | Error (_, m) -> Alcotest.fail ("bad reply: " ^ m))
    | `Error code -> Alcotest.fail ("client-side framing error: " ^ code)
    | `Awaiting ->
      let n = try Unix.read c.fd c.buf 0 (Bytes.length c.buf) with Unix.Unix_error _ -> 0 in
      if n = 0 then `Eof
      else begin
        Protocol.Decoder.feed c.decoder (Bytes.sub_string c.buf 0 n);
        next ()
      end
  in
  next ()

let rpc c req =
  send_raw c (Protocol.encode_frame (Protocol.render_request req));
  match recv c with
  | `Reply r -> r
  | `Eof -> Alcotest.fail "server closed the connection mid-request"

let open_session port uid =
  let c = connect port in
  (match rpc c (Protocol.Hello Protocol.version) with
  | Protocol.Hello_ok _ -> ()
  | r -> Alcotest.fail ("HELLO: " ^ Protocol.render_response r));
  (match rpc c (Protocol.Auth uid) with
  | Protocol.Auth_ok _ -> ()
  | r -> Alcotest.fail ("AUTH: " ^ Protocol.render_response r));
  c

let start_server ?(max_payload = Protocol.default_max_payload) ?(max_batch = 8)
    ~policies () =
  let engine = make_engine ~policies:(List.map Test_oracle.template policies) () in
  let config =
    { Tcp.default_config with Tcp.port = 0; max_batch; max_payload }
  in
  (engine, Tcp.start ~config engine)

let test_concurrent_equivalence () =
  (* "blocked" rejects uid 2, so the concurrent mix carries both
     verdicts; afterwards the server's own admission order (the seq
     numbers it returned) is replayed one-at-a-time on a fresh engine
     and must reproduce every verdict and the usage log. *)
  let engine, srv = start_server ~policies:[ "blocked"; "banned" ] () in
  let port = Tcp.port srv in
  let n_threads = 6 and per_thread = 5 in
  let results = Array.make (n_threads * per_thread) (0, 0, 0, "") in
  let threads =
    List.init n_threads (fun i ->
        Thread.create
          (fun () ->
            let uid = (i mod 3) + 1 in
            let c = open_session port uid in
            for j = 0 to per_thread - 1 do
              let qi = (i + j) mod Array.length queries in
              let verdict, seq =
                match rpc c (Protocol.Submit queries.(qi)) with
                | Protocol.Accepted { seq; _ } -> ("A", seq)
                | Protocol.Rejected { seq; messages } ->
                  ("R[" ^ String.concat ";" messages ^ "]", seq)
                | r -> Alcotest.fail (Protocol.render_response r)
              in
              results.((i * per_thread) + j) <- (seq, uid, qi, verdict)
            done;
            close_client c)
          ())
  in
  List.iter Thread.join threads;
  (* stop the transport, keep the engine for the log comparison *)
  Tcp.stop srv;
  let by_seq =
    List.sort
      (fun (a, _, _, _) (b, _, _, _) -> compare a b)
      (Array.to_list results)
  in
  Alcotest.(check int) "every submission got a distinct seq"
    (n_threads * per_thread)
    (List.length (List.sort_uniq compare (List.map (fun (s, _, _, _) -> s) by_seq)));
  (* replay one-at-a-time, in the admission order the server reported *)
  let replay =
    make_engine ~policies:(List.map Test_oracle.template [ "blocked"; "banned" ]) ()
  in
  List.iter
    (fun (seq, uid, qi, verdict) ->
      let got =
        match Engine.submit_ast replay ~uid (Parser.query queries.(qi)) with
        | Engine.Accepted _ -> "A"
        | Engine.Rejected (messages, _) ->
          "R[" ^ String.concat ";" messages ^ "]"
      in
      Alcotest.(check string)
        (Printf.sprintf "verdict of seq %d (uid %d q%d)" seq uid qi)
        verdict got)
    by_seq;
  (* the concurrent run's usage log must equal the serial replay's *)
  Alcotest.(check (list string))
    "usage log matches the serial replay" (dump_logs replay) (dump_logs engine);
  Engine.close replay;
  Engine.close engine

let test_auth_required_over_socket () =
  let _, srv = start_server ~policies:[ "banned" ] () in
  let c = connect (Tcp.port srv) in
  (match rpc c (Protocol.Hello Protocol.version) with
  | Protocol.Hello_ok _ -> ()
  | _ -> Alcotest.fail "HELLO");
  (match rpc c (Protocol.Submit "SELECT v FROM data WHERE k = 1") with
  | Protocol.Err { code; _ } ->
    Alcotest.(check string) "code" Protocol.err_auth_required code
  | r -> Alcotest.fail ("expected auth-required: " ^ Protocol.render_response r));
  (* the connection survives; AUTH then SUBMIT succeeds *)
  (match rpc c (Protocol.Auth 1) with
  | Protocol.Auth_ok 1 -> ()
  | _ -> Alcotest.fail "AUTH after refusal");
  (match rpc c (Protocol.Submit "SELECT v FROM data WHERE k = 1") with
  | Protocol.Accepted _ -> ()
  | r -> Alcotest.fail ("SUBMIT after AUTH: " ^ Protocol.render_response r));
  close_client c;
  Tcp.stop ~close_engine:true srv

let test_malformed_frame_closes () =
  let _, srv = start_server ~policies:[] () in
  let c = connect (Tcp.port srv) in
  send_raw c "NOT A FRAME AT ALL";
  (match recv c with
  | `Reply (Protocol.Err { code; _ }) ->
    Alcotest.(check string) "code" Protocol.err_bad_frame code
  | `Reply r -> Alcotest.fail ("expected bad-frame: " ^ Protocol.render_response r)
  | `Eof -> Alcotest.fail "expected an ERR before close");
  (match recv c with
  | `Eof -> ()
  | `Reply _ -> Alcotest.fail "connection must close after a framing error");
  close_client c;
  (* the server is still healthy for other clients *)
  let c2 = open_session (Tcp.port srv) 1 in
  (match rpc c2 (Protocol.Submit "SELECT v FROM data WHERE k = 1") with
  | Protocol.Accepted _ -> ()
  | r -> Alcotest.fail (Protocol.render_response r));
  close_client c2;
  Tcp.stop ~close_engine:true srv

let test_oversized_payload_closes () =
  let _, srv = start_server ~max_payload:64 ~policies:[] () in
  let c = connect (Tcp.port srv) in
  send_raw c (Protocol.encode_frame ("SUBMIT\nSELECT '" ^ String.make 100 'x' ^ "'"));
  (match recv c with
  | `Reply (Protocol.Err { code; _ }) ->
    Alcotest.(check string) "code" Protocol.err_too_large code
  | `Reply r -> Alcotest.fail ("expected too-large: " ^ Protocol.render_response r)
  | `Eof -> Alcotest.fail "expected an ERR before close");
  (match recv c with
  | `Eof -> ()
  | `Reply _ -> Alcotest.fail "connection must close after an oversized frame");
  close_client c;
  Tcp.stop ~close_engine:true srv

let test_mid_batch_disconnect () =
  let _, srv = start_server ~policies:[ "banned" ] () in
  let port = Tcp.port srv in
  (* client A fires a SUBMIT and vanishes without reading the verdict *)
  let a = open_session port 1 in
  send_raw a
    (Protocol.encode_frame
       (Protocol.render_request (Protocol.Submit "SELECT v FROM data WHERE k = 1")));
  close_client a;
  (* client B's traffic must be unaffected *)
  let b = open_session port 2 in
  (match rpc b (Protocol.Submit "SELECT v FROM data WHERE k = 1") with
  | Protocol.Accepted _ -> ()
  | r -> Alcotest.fail ("B after A's disconnect: " ^ Protocol.render_response r));
  (* and the server still answers STATS on a fresh connection *)
  let c = connect port in
  (match rpc c (Protocol.Hello Protocol.version) with
  | Protocol.Hello_ok _ -> ()
  | _ -> Alcotest.fail "HELLO");
  (match rpc c Protocol.Stats with
  | Protocol.Stats_reply kvs ->
    Alcotest.(check bool) "counts submissions" true
      (match List.assoc_opt "submissions" kvs with
      | Some n -> int_of_string n >= 1
      | None -> false);
    (* vectorized-executor counters ride the same reply *)
    List.iter
      (fun k ->
        Alcotest.(check bool) (k ^ " present") true
          (List.assoc_opt k kvs <> None))
      [
        "vector-enabled"; "vector-batches"; "vector-rows";
        "vector-fallbacks"; "vector-hist";
      ];
    Alcotest.(check (option string)) "vector-enabled mirrors the config"
      (Some "1")
      (List.assoc_opt "vector-enabled" kvs);
    (* the histogram has one bucket per bound plus the open tail *)
    (match List.assoc_opt "vector-hist" kvs with
    | Some h ->
      Alcotest.(check int) "five histogram buckets" 5
        (List.length (String.split_on_char ' ' h))
    | None -> Alcotest.fail "vector-hist missing")
  | r -> Alcotest.fail (Protocol.render_response r));
  close_client b;
  close_client c;
  Tcp.stop ~close_engine:true srv

let test_shutdown_drains () =
  (* submissions already queued when stop begins still get verdicts *)
  let _, srv = start_server ~max_batch:4 ~policies:[ "banned" ] () in
  let port = Tcp.port srv in
  let oks = Atomic.make 0 in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            (* uid 3 sits in the banned table; stick to 1 and 2 *)
            let c = open_session port ((i mod 2) + 1) in
            (match rpc c (Protocol.Submit "SELECT v FROM data WHERE k = 1") with
            | Protocol.Accepted _ -> Atomic.incr oks
            | _ -> ());
            close_client c)
          ())
  in
  List.iter Thread.join threads;
  Tcp.stop ~close_engine:true srv;
  Alcotest.(check int) "all verdicts delivered" 4 (Atomic.get oks)

let suite =
  [
    tc "decoder reassembles frames split across reads" test_decoder_split_frames;
    tc "decoder drains multiple frames from one read" test_decoder_batched_frames;
    tc "decoder rejects malformed length prefixes, stickily" test_decoder_malformed;
    tc "decoder rejects unterminated garbage" test_decoder_headerless_garbage;
    tc "decoder rejects oversized payloads" test_decoder_oversized;
    tc "requests round-trip through render/parse" test_request_roundtrip;
    tc "responses round-trip through render/parse" test_response_roundtrip;
    tc "session requires HELLO first" test_session_hello_first;
    tc "session binds the uid and refuses rebinding" test_session_auth_binding;
  ]
  @ List.map
      (fun ((label, _, _, _, _) as case) ->
        tc
          (Printf.sprintf "batch = one-at-a-time: %s" label)
          (test_batch_equals_serial case))
      batch_cases
  @ [
    tc "a batch member that fails to bind fails alone" test_unbound_member_fails_alone;
    tc "concurrent clients == the server's serial order (sockets)"
      test_concurrent_equivalence;
    tc "AUTH is required before SUBMIT over the wire"
      test_auth_required_over_socket;
    tc "malformed frame gets an ERR then a close" test_malformed_frame_closes;
    tc "oversized payload gets an ERR then a close" test_oversized_payload_closes;
    tc "mid-batch disconnect leaves other clients unharmed"
      test_mid_batch_disconnect;
    tc "shutdown drains queued submissions" test_shutdown_drains;
  ]

