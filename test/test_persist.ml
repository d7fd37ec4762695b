(** The durable usage-log store (lib/persist).

    Codec round-trips on random rows, the CRC reference vector, crash
    simulation (torn WAL tails, corrupted records), snapshot and catalog
    round-trips, catalog segments (crash between catalog and snapshot,
    missing or corrupt catalogs, the v1 snapshot refusal, the catalog
    kept across checkpoints, disk accounting), and end-to-end
    kill-and-restart: a recovered engine must hold
    byte-identical log relations, the same clock, and give identical
    verdicts to an engine that never died — including across witness
    compaction (which checkpoints) and config changes (which re-scope
    persistence). *)

open Relational
open Datalawyer
module P = Persistence

let tc = Test_support.tc

let temp_dir () = Test_support.temp_dir "dl_persist"

(* Exact (bit-level) value equality: the codec must preserve floats by
   bit pattern, not just up to [Value.equal]'s numeric coercions. *)
let value_eq a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let row_eq a b = Array.length a = Array.length b && Array.for_all2 value_eq a b

let rows_eq a b = List.length a = List.length b && List.for_all2 row_eq a b

(* Codec ------------------------------------------------------------------- *)

let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (1, return Value.Null);
      (2, map (fun b -> Value.Bool b) bool);
      (4, map (fun i -> Value.Int i) (oneof [ int; return max_int; return min_int ]));
      ( 3,
        map
          (fun f -> Value.Float (if Float.is_nan f then 0. else f))
          (oneof [ float; return infinity; return neg_infinity; return (-0.) ]) );
      (4, map (fun s -> Value.Str s) (string_size (int_range 0 24)));
    ]

let row_gen = QCheck.Gen.(map Array.of_list (list_size (int_range 0 8) value_gen))

let print_row r =
  "[" ^ String.concat "; " (Array.to_list (Array.map Value.to_sql r)) ^ "]"

let prop_row_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec round-trips random rows"
    (QCheck.make ~print:print_row row_gen)
    (fun row ->
      let b = Buffer.create 64 in
      P.Codec.w_row b row;
      let c = P.Codec.cursor (Buffer.contents b) in
      let row' = P.Codec.r_row c in
      P.Codec.expect_end c;
      row_eq row row')

(* A commit that expires nothing keeps the kind-1 encoding; one that
   expires rows is kind 4 and carries their ascending positions. *)
let prop_commit_roundtrip =
  QCheck.Test.make ~count:200 ~name:"commit records round-trip"
    (QCheck.make
       ~print:(fun (clock, rows, positions) ->
         Printf.sprintf "clock=%d rows=%s positions=%s" clock
           (String.concat " " (List.map print_row rows))
           (String.concat "," (List.map string_of_int positions)))
       QCheck.Gen.(
         triple nat (list_size (int_range 0 6) row_gen)
           (map (List.sort_uniq compare) (list_size (int_range 0 4) (int_range 0 1000)))))
    (fun (clock, rows, positions) ->
      let expired = if positions = [] then [] else [ ("users", positions) ] in
      let r =
        P.Record.Commit { clock; expired; increments = [ ("users", rows); ("r2", []) ] }
      in
      let s = P.Record.encode r in
      Char.code s.[0] = (if positions = [] then 1 else 4)
      &&
      match P.Record.decode s with
      | P.Record.Commit
          { clock = c'; expired = e'; increments = [ ("users", rows'); ("r2", []) ] } ->
        c' = clock && e' = expired && rows_eq rows rows'
      | _ -> false)

let crc_vectors () =
  Alcotest.(check int)
    "crc32(123456789)" 0xCBF43926
    (P.Crc32.string "123456789");
  Alcotest.(check int) "crc32(empty)" 0 (P.Crc32.string "");
  Alcotest.(check int)
    "incremental = whole"
    (P.Crc32.string "hello world")
    (P.Crc32.update (P.Crc32.string "hello ") "world" 0 5 |> fun _ ->
     P.Crc32.update 0 "hello world" 0 11)

let codec_rejects_garbage () =
  Alcotest.check_raises "truncated value"
    (P.Codec.Corrupt "truncated payload: need 8 bytes at offset 1 of 1")
    (fun () ->
      let c = P.Codec.cursor "\x03" in
      ignore (P.Codec.r_value c));
  let b = Buffer.create 8 in
  P.Codec.w_u8 b 9;
  match P.Codec.r_value (P.Codec.cursor (Buffer.contents b)) with
  | exception P.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "unknown tag must raise"

(* Snapshot ---------------------------------------------------------------- *)

let snapshot_roundtrip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "snapshot-00000007.dls" in
  let state =
    {
      P.Snapshot.clock = 42;
      policies =
        [ { P.Record.name = "P1"; source = "SELECT DISTINCT 'x' FROM users"; active_from = 3 } ];
      relations =
        [
          ( "users",
            {
              P.Snapshot.schema = [ ("ts", Ty.Int); ("uid", Ty.Int) ];
              rows = [ [| Value.Int 1; Value.Int 7 |]; [| Value.Int 2; Value.Int 9 |] ];
            } );
        ];
    }
  in
  P.Snapshot.write path ~catalog:5 state;
  let catalog, state' = P.Snapshot.read path in
  Alcotest.(check int) "catalog generation" 5 catalog;
  Alcotest.(check int) "clock" 42 state'.P.Snapshot.clock;
  Alcotest.(check int) "policies live in the catalog" 0
    (List.length state'.P.Snapshot.policies);
  let cat_path = Filename.concat dir (P.Recovery.catalog_file 5) in
  P.Catalog_segment.write cat_path state.P.Snapshot.policies;
  (match P.Catalog_segment.read cat_path with
  | [ p ] ->
    Alcotest.(check string) "policy name" "P1" p.P.Record.name;
    Alcotest.(check string) "policy source" "SELECT DISTINCT 'x' FROM users"
      p.P.Record.source;
    Alcotest.(check int) "active_from" 3 p.P.Record.active_from
  | _ -> Alcotest.fail "one policy expected");
  match state'.P.Snapshot.relations with
  | [ ("users", r) ] ->
    Alcotest.(check bool) "rows" true
      (rows_eq r.P.Snapshot.rows [ [| Value.Int 1; Value.Int 7 |]; [| Value.Int 2; Value.Int 9 |] ])
  | _ -> Alcotest.fail "one relation expected"

(* WAL crash simulation ----------------------------------------------------- *)

let commit i =
  P.Record.Commit
    { clock = i; expired = []; increments = [ ("users", [ [| Value.Int i; Value.Int 1 |] ]) ] }

let store_with_commits dir n =
  let store, recovered = P.Store.open_dir ~fsync:P.Store.Always dir in
  Alcotest.(check bool) "fresh dir" true (recovered = None);
  for i = 1 to n do
    match commit i with
    | P.Record.Commit { clock; increments; _ } ->
      P.Store.log_commit store ~clock ~expired:[] ~increments
    | _ -> assert false
  done;
  P.Store.close store

let wal_path dir = Filename.concat dir (P.Recovery.wal_file 0)

let torn_tail_drops_only_last () =
  let dir = temp_dir () in
  store_with_commits dir 3;
  (* Tear the final record: cut 3 bytes off the file. *)
  let size = (Unix.stat (wal_path dir)).Unix.st_size in
  Unix.truncate (wal_path dir) (size - 3);
  let store, recovered = P.Store.open_dir ~fsync:P.Store.Always dir in
  (match recovered with
  | None -> Alcotest.fail "expected recovered state"
  | Some r ->
    Alcotest.(check bool) "torn flagged" true r.P.Recovery.torn_dropped;
    Alcotest.(check int) "only the torn commit dropped" 2 r.P.Recovery.wal_records;
    Alcotest.(check int) "clock from last whole commit" 2 r.P.Recovery.state.P.Snapshot.clock;
    match r.P.Recovery.state.P.Snapshot.relations with
    | [ ("users", rel) ] ->
      Alcotest.(check bool) "two rows survive" true
        (rows_eq rel.P.Snapshot.rows
           [ [| Value.Int 1; Value.Int 1 |]; [| Value.Int 2; Value.Int 1 |] ])
    | _ -> Alcotest.fail "users relation expected");
  (* The torn bytes are gone from disk and appends work again. *)
  P.Store.log_commit store ~clock:3 ~expired:[] ~increments:[];
  P.Store.close store;
  let r = P.Wal.read (wal_path dir) in
  Alcotest.(check bool) "file clean after truncation" false r.P.Wal.torn;
  Alcotest.(check int) "records on disk" 3 (List.length r.P.Wal.payloads)

let corruption_is_an_error () =
  let dir = temp_dir () in
  store_with_commits dir 3;
  (* Flip a byte inside the FIRST record's payload: mid-file corruption,
     not a torn tail — recovery must refuse, not silently drop. *)
  let path = wal_path dir in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  match P.Store.open_dir ~fsync:P.Store.Always dir with
  | exception P.Recovery.Recovery_error _ -> ()
  | _ -> Alcotest.fail "corrupted WAL must raise Recovery_error"

let missing_snapshot_is_an_error () =
  let dir = temp_dir () in
  (* A generation-3 WAL whose snapshot vanished: replay would silently
     resurrect a partial state, so recovery refuses. *)
  let w = P.Wal.open_append ~path:(Filename.concat dir (P.Recovery.wal_file 3)) ~fsync:P.Wal.Always in
  P.Wal.append w (P.Record.encode (commit 1));
  P.Wal.close w;
  match P.Recovery.run ~dir with
  | exception P.Recovery.Recovery_error _ -> ()
  | _ -> Alcotest.fail "WAL without its base snapshot must raise"

(* Engine end-to-end -------------------------------------------------------- *)

let base_db () =
  Test_support.db_of_script
    {|
    CREATE TABLE person (id INT, name TEXT);
    INSERT INTO person VALUES (1, 'ada'), (2, 'bob'), (3, 'cyd')
    |}

(* At most 3 queries ever for uid 1: time-dependent (whole history). *)
let budget_policy =
  "SELECT DISTINCT 'budget exceeded for user 1' AS errorMessage FROM users u \
   WHERE u.uid = 1 GROUP BY u.uid HAVING COUNT(DISTINCT u.ts) > 3"

(* Sliding window: more than [max] distinct ticks of uid 1 within [w]. *)
let window_policy ~w ~max =
  Printf.sprintf
    "SELECT DISTINCT 'window budget exceeded' AS errorMessage FROM users u, \
     clock c WHERE u.uid = 1 AND u.ts > c.ts - %d GROUP BY u.uid HAVING \
     COUNT(DISTINCT u.ts) > %d"
    w max

let outcome_sig = function
  | Engine.Accepted _ -> "accept"
  | Engine.Rejected (ms, _) -> "reject:" ^ String.concat "|" ms

let submit_ok engine ~uid sql =
  match Engine.submit engine ~uid sql with
  | Engine.Accepted _ -> ()
  | Engine.Rejected (ms, _) ->
    Alcotest.fail ("unexpected rejection: " ^ String.concat "; " ms)

let table_cells engine rel =
  Table.to_seq (Database.table (Engine.database engine) rel)
  |> Seq.map Row.cells |> List.of_seq

(* Byte-identical contents: compare through the codec. *)
let encode_cells rows =
  let b = Buffer.create 256 in
  P.Codec.w_rows b rows;
  Buffer.contents b

let check_same_log_state ~rels a b =
  List.iter
    (fun rel ->
      Alcotest.(check string)
        (rel ^ " byte-identical")
        (encode_cells (table_cells a rel))
        (encode_cells (table_cells b rel)))
    rels;
  Alcotest.(check int)
    "clock equal"
    (Usage_log.current_time (Engine.database a))
    (Usage_log.current_time (Engine.database b))

let recovered_engine_rejects_like_live () =
  let dir = temp_dir () in
  let a = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  ignore (Engine.add_policy a ~name:"budget" budget_policy);
  for _ = 1 to 3 do
    submit_ok a ~uid:1 "SELECT name FROM person WHERE id = 1"
  done;
  (* Crash: no close, no flush — fsync Always means nothing is lost. *)
  let b = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  check_same_log_state ~rels:[ "users" ] a b;
  (match Engine.policies b with
  | [ p ] -> Alcotest.(check string) "policy recovered" "budget" p.Policy.name
  | _ -> Alcotest.fail "expected exactly the recovered policy");
  (* The 4th uid-1 query violates the budget — in both engines. *)
  let probe = "SELECT name FROM person WHERE id = 2" in
  Alcotest.(check string)
    "same verdict" (outcome_sig (Engine.submit a ~uid:1 probe))
    (outcome_sig (Engine.submit b ~uid:1 probe));
  (match Engine.submit b ~uid:1 "SELECT 1 FROM person" with
  | Engine.Rejected _ -> ()
  | Engine.Accepted _ -> Alcotest.fail "recovered engine lost enforcement history");
  (* Control: a fresh engine without the history accepts the same query. *)
  let c = Engine.create (base_db ()) in
  ignore (Engine.add_policy c ~name:"budget" budget_policy);
  match Engine.submit c ~uid:1 "SELECT 1 FROM person" with
  | Engine.Accepted _ -> Engine.close a; Engine.close b
  | Engine.Rejected _ -> Alcotest.fail "control engine should accept"

let kill_and_restart_100 () =
  let dir = temp_dir () in
  let a = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  ignore (Engine.add_policy a ~name:"window" (window_policy ~w:50 ~max:25));
  (* 120 accepted submissions; uid 1 appears in a third of them, always
     below the window threshold. Witness compaction prunes rows leaving
     the window, so checkpoints fire along the way. *)
  for i = 1 to 120 do
    submit_ok a ~uid:(i mod 3) "SELECT COUNT(*) FROM person"
  done;
  let store = Option.get (Engine.persist_store a) in
  Alcotest.(check bool) "compaction triggered checkpoints" true (P.Store.generation store > 0);
  (* Crash and recover. *)
  let b = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  check_same_log_state ~rels:[ "users" ] a b;
  (* Identical verdicts on a mixed probe workload (some get rejected as
     uid 1 exceeds the window budget, then accepted again as it slides). *)
  for i = 1 to 40 do
    let uid = if i mod 4 = 0 then 0 else 1 in
    Alcotest.(check string)
      (Printf.sprintf "probe %d verdict" i)
      (outcome_sig (Engine.submit a ~uid "SELECT id FROM person WHERE id = 3"))
      (outcome_sig (Engine.submit b ~uid "SELECT id FROM person WHERE id = 3"))
  done;
  check_same_log_state ~rels:[ "users" ] a b;
  Engine.close a;
  Engine.close b

let compaction_checkpoint_bounds_disk () =
  let dir = temp_dir () in
  let a = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  (* A 5-tick window can hold at most 5 distinct ticks, so max = 5 keeps
     the stream violation-free while still compacting expired rows. *)
  ignore (Engine.add_policy a ~name:"window" (window_policy ~w:5 ~max:5));
  let store = Option.get (Engine.persist_store a) in
  for _ = 1 to 30 do
    submit_ok a ~uid:1 "SELECT COUNT(*) FROM person"
  done;
  let bytes_30 = P.Store.disk_bytes store in
  Alcotest.(check bool) "checkpoints happened" true (P.Store.generation store > 0);
  for _ = 1 to 30 do
    submit_ok a ~uid:1 "SELECT COUNT(*) FROM person"
  done;
  (* The in-memory log is bounded by the window, and an expiring commit
     checkpoints once the WAL holds more than 1/32 of it to reclaim, so
     the on-disk footprint stays bounded too instead of growing linearly
     with the WAL. *)
  let bytes_60 = P.Store.disk_bytes store in
  Alcotest.(check bool)
    (Printf.sprintf "disk stays bounded (%d vs %d bytes)" bytes_30 bytes_60)
    true
    (bytes_60 <= bytes_30 + 256);
  let b = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  check_same_log_state ~rels:[ "users" ] a b;
  Engine.close a;
  Engine.close b

let rejects_leave_wal_untouched () =
  let dir = temp_dir () in
  let a = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  ignore (Engine.add_policy a ~name:"budget" budget_policy);
  for _ = 1 to 3 do
    submit_ok a ~uid:1 "SELECT 1 FROM person"
  done;
  let store = Option.get (Engine.persist_store a) in
  let records_before = P.Store.wal_records store in
  let bytes_before = P.Store.disk_bytes store in
  (match Engine.submit a ~uid:1 "SELECT 2 FROM person" with
  | Engine.Rejected _ -> ()
  | Engine.Accepted _ -> Alcotest.fail "4th uid-1 query should be rejected");
  Alcotest.(check int) "no WAL record for a reject" records_before (P.Store.wal_records store);
  Alcotest.(check int) "no bytes for a reject" bytes_before (P.Store.disk_bytes store);
  Engine.close a

(* The set_config regression: a policy that is TI-rewritten (so its log
   relation is outside the persistence scope) becomes time-dependent when
   TI rewriting is switched off — the scope must be recomputed on plan
   invalidation or its tuples silently skip persistence. *)
let set_config_rescopes_persistence () =
  let dir = temp_dir () in
  (* Compaction off so retained rows are the raw increments; the point
     here is scope recomputation, not witnesses. *)
  let cfg_ti = { Engine.default_config with log_compaction = false } in
  let a =
    Engine.create ~config:cfg_ti ~persist_dir:dir ~persist_fsync:P.Store.Always
      (base_db ())
  in
  ignore (Engine.add_policy a ~name:"no9" "SELECT DISTINCT 'uid 9 banned' FROM users u WHERE u.uid = 9");
  for _ = 1 to 3 do
    submit_ok a ~uid:1 "SELECT 1 FROM person"
  done;
  Alcotest.(check (list string)) "TI policy: nothing needs storing" []
    (Engine.plan a).Engine.store_rels;
  (* Disable TI rewriting: the policy becomes time-dependent and users
     enters the persistence scope. *)
  Engine.set_config a { cfg_ti with time_independent = false };
  for _ = 1 to 3 do
    submit_ok a ~uid:2 "SELECT 2 FROM person"
  done;
  Alcotest.(check (list string)) "users now persisted" [ "users" ]
    (Engine.plan a).Engine.store_rels;
  let b = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  check_same_log_state ~rels:[ "users" ] a b;
  Alcotest.(check bool) "post-flip rows were persisted" true
    (table_cells b "users" <> []);
  Engine.close a;
  Engine.close b

let policy_removal_recovers () =
  let dir = temp_dir () in
  let a = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  ignore (Engine.add_policy a ~name:"budget" budget_policy);
  ignore (Engine.add_policy a ~name:"other" (window_policy ~w:10 ~max:9));
  submit_ok a ~uid:1 "SELECT 1 FROM person";
  Engine.remove_policy a "budget";
  let b = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  Alcotest.(check (list string)) "only the surviving policy recovers" [ "other" ]
    (List.map (fun p -> p.Policy.name) (Engine.policies b));
  Engine.close a;
  Engine.close b

(* Rejected submissions consume clock ticks that no WAL record carries,
   so recovery restores the clock of the last journaled record. A policy
   registered after rejections journals its [active_from] past the last
   commit's clock; recovery must restore at least that, or the recovered
   policy's [ts > active_from] guard hides the next submissions. *)
let clock_recovers_past_registration () =
  let dir = temp_dir () in
  let open_engine () =
    Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ())
  in
  let a = open_engine () in
  let block uid =
    Printf.sprintf
      "SELECT DISTINCT 'uid %d blocked' FROM users u WHERE u.uid = %d" uid uid
  in
  ignore (Engine.add_policy a ~name:"no_uid_2" (block 2));
  for _ = 1 to 3 do
    match Engine.submit a ~uid:2 "SELECT 1 FROM person" with
    | Engine.Rejected _ -> ()
    | Engine.Accepted _ -> Alcotest.fail "uid 2 must be rejected"
  done;
  ignore (Engine.add_policy a ~name:"no_uid_3" (block 3));
  Engine.close a;
  let b = open_engine () in
  (match Engine.submit b ~uid:3 "SELECT 1 FROM person" with
  | Engine.Rejected (ms, _) ->
    Alcotest.(check (list string)) "recovered policy fires" [ "uid 3 blocked" ] ms
  | Engine.Accepted _ -> Alcotest.fail "uid 3 must be rejected after recovery");
  Engine.close b

(* The recovered clock must not depend on when checkpoints happened to
   run: a checkpoint records the journaled clock, not the live one that
   also counts rejected submissions' ticks. *)
let recovered_clock_ignores_checkpoint_timing () =
  let recovered_clock ~checkpoint =
    let dir = temp_dir () in
    let open_engine () =
      Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ())
    in
    let a = open_engine () in
    ignore (Engine.add_policy a ~name:"budget" budget_policy);
    for _ = 1 to 6 do
      ignore (Engine.submit a ~uid:1 "SELECT 1 FROM person")
    done;
    if checkpoint then Engine.persist_checkpoint a;
    Engine.close a;
    let b = open_engine () in
    let clock = Usage_log.current_time (Engine.database b) in
    Engine.close b;
    clock
  in
  Alcotest.(check int) "same clock with and without a checkpoint"
    (recovered_clock ~checkpoint:false)
    (recovered_clock ~checkpoint:true)

(* Catalog segments ----------------------------------------------------------- *)

let files_with ~prefix dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix f)
  |> List.sort compare

let policy_rec name active_from =
  { P.Record.name; source = "SELECT DISTINCT 'x' FROM users"; active_from }

(* A store at generation 1: one policy, one commit, one checkpoint. *)
let store_with_checkpoint dir =
  let store, _ = P.Store.open_dir ~fsync:P.Store.Always dir in
  let policies = [ policy_rec "p1" 0 ] in
  P.Store.log_add_policy store (List.hd policies);
  P.Store.log_commit store ~clock:1 ~expired:[] ~increments:[ ("users", [ [| Value.Int 1; Value.Int 1 |] ]) ];
  P.Store.checkpoint store
    {
      P.Snapshot.clock = 1;
      policies;
      relations =
        [ ("users", { P.Snapshot.schema = []; rows = [ [| Value.Int 1; Value.Int 1 |] ] }) ];
    };
  store

let recovery_error_matching ~dir ~needle what =
  match P.Recovery.run ~dir with
  | exception P.Recovery.Recovery_error m ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: message %S names %S" what m needle)
      true
      (Test_policy.contains_substring m needle)
  | _ -> Alcotest.fail (what ^ " must raise Recovery_error")

(* A crash after catalog-(g+1) is renamed but before snapshot-(g+1) is:
   generation g is live and the orphan catalog is garbage. *)
let orphan_catalog_is_dropped () =
  let dir = temp_dir () in
  let store = store_with_checkpoint dir in
  P.Store.log_add_policy store (policy_rec "p2" 1);
  P.Store.close store;
  P.Catalog_segment.write
    (Filename.concat dir (P.Recovery.catalog_file 2))
    [ policy_rec "p1" 0; policy_rec "p2" 1 ];
  match P.Recovery.run ~dir with
  | None -> Alcotest.fail "expected recovered state"
  | Some r ->
    Alcotest.(check int) "generation" 1 r.P.Recovery.generation;
    Alcotest.(check (option int)) "named catalog" (Some 1) r.P.Recovery.catalog;
    Alcotest.(check (list string)) "policies: catalog + WAL" [ "p1"; "p2" ]
      (List.map (fun p -> p.P.Record.name) r.P.Recovery.state.P.Snapshot.policies);
    Alcotest.(check (list string)) "orphan deleted" [ P.Recovery.catalog_file 1 ]
      (files_with ~prefix:"catalog-" dir)

let missing_catalog_is_an_error () =
  let dir = temp_dir () in
  P.Store.close (store_with_checkpoint dir);
  Sys.remove (Filename.concat dir (P.Recovery.catalog_file 1));
  recovery_error_matching ~dir ~needle:(P.Recovery.catalog_file 1) "missing catalog"

let corrupt_catalog_is_an_error () =
  let dir = temp_dir () in
  P.Store.close (store_with_checkpoint dir);
  let path = Filename.concat dir (P.Recovery.catalog_file 1) in
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let byte = Bytes.create 1 in
  ignore (Unix.lseek fd (size - 2) Unix.SEEK_SET);
  ignore (Unix.read fd byte 0 1);
  Bytes.set byte 0 (Char.chr (Char.code (Bytes.get byte 0) lxor 0xff));
  ignore (Unix.lseek fd (size - 2) Unix.SEEK_SET);
  ignore (Unix.write fd byte 0 1);
  Unix.close fd;
  recovery_error_matching ~dir ~needle:"checksum" "flipped catalog byte"

(* A version-1 snapshot (policies inline), framed by hand: refused with
   the version named, never decoded as version 2. *)
let v1_snapshot_is_refused () =
  let dir = temp_dir () in
  let payload =
    let b = Buffer.create 32 in
    P.Codec.w_i64 b 7 (* clock *);
    P.Codec.w_u32 b 0 (* policies *);
    P.Codec.w_u32 b 0 (* relations *);
    Buffer.contents b
  in
  let b = Buffer.create 64 in
  Buffer.add_string b "DLSNAP";
  P.Codec.w_u8 b 1;
  P.Codec.w_u8 b 0;
  P.Codec.w_u32 b (String.length payload);
  P.Codec.w_u32 b (P.Crc32.string payload);
  Buffer.add_string b payload;
  Out_channel.with_open_bin (Filename.concat dir (P.Recovery.snapshot_file 1)) (fun oc ->
      Out_channel.output_string oc (Buffer.contents b));
  recovery_error_matching ~dir ~needle:"version 1" "v1 snapshot"

(* Register, checkpoint, remove and register again, with or without a
   second checkpoint before the restart: the set and its order survive,
   whether the removal is replayed from the WAL or read from a catalog. *)
let policy_changes_survive_checkpoints () =
  List.iter
    (fun checkpoint_again ->
      let dir = temp_dir () in
      let open_engine () =
        Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ())
      in
      let a = open_engine () in
      List.iter
        (fun (name, uid) ->
          ignore
            (Engine.add_policy a ~name
               (Printf.sprintf "SELECT DISTINCT '%s' FROM users u WHERE u.uid = %d" name uid)))
        [ ("a", 7); ("b", 8); ("c", 9) ];
      Engine.persist_checkpoint a;
      Engine.remove_policy a "b";
      ignore (Engine.add_policy a ~name:"d" budget_policy);
      if checkpoint_again then Engine.persist_checkpoint a;
      Engine.close a;
      let b = open_engine () in
      Alcotest.(check (list string))
        (Printf.sprintf "policies after restart (second checkpoint: %b)" checkpoint_again)
        [ "a"; "c"; "d" ]
        (List.map (fun p -> p.Policy.name) (Engine.policies b));
      Alcotest.(check int) "one catalog on disk" 1
        (List.length (files_with ~prefix:"catalog-" dir));
      Engine.close b)
    [ false; true ]

(* A checkpoint with no policy change since the last one names the same
   catalog instead of rewriting it. *)
let unchanged_policies_keep_their_catalog () =
  let dir = temp_dir () in
  let a = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  ignore (Engine.add_policy a ~name:"budget" budget_policy);
  let store = Option.get (Engine.persist_store a) in
  Engine.persist_checkpoint a;
  let g = P.Store.generation store in
  let catalogs = files_with ~prefix:"catalog-" dir in
  Alcotest.(check int) "one catalog" 1 (List.length catalogs);
  submit_ok a ~uid:1 "SELECT 1 FROM person";
  Engine.persist_checkpoint a;
  Alcotest.(check int) "generation bumps once per checkpoint" (g + 1) (P.Store.generation store);
  Alcotest.(check (list string)) "same catalog" catalogs (files_with ~prefix:"catalog-" dir);
  Alcotest.(check (list string)) "snapshot advanced"
    [ P.Recovery.snapshot_file (g + 1) ]
    (files_with ~prefix:"snapshot-" dir);
  Engine.close a

let disk_bytes_counts_all_three_files () =
  let dir = temp_dir () in
  let a = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  ignore (Engine.add_policy a ~name:"budget" budget_policy);
  Engine.persist_checkpoint a;
  submit_ok a ~uid:1 "SELECT 1 FROM person";
  let store = Option.get (Engine.persist_store a) in
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string)) "snapshot, WAL and catalog"
    (List.sort compare
       (List.map
          (fun f -> f (P.Store.generation store))
          [ P.Recovery.snapshot_file; P.Recovery.wal_file ]
       @ files_with ~prefix:"catalog-" dir))
    files;
  Alcotest.(check int) "catalog present" 1 (List.length (files_with ~prefix:"catalog-" dir));
  Alcotest.(check int) "disk_bytes = sum of file sizes"
    (List.fold_left (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size) 0 files)
    (P.Store.disk_bytes store);
  Engine.close a

(* Registration and replay are linear in the policy count; 10^4 policies
   come back in registration order. *)
let many_policies_recover_in_order () =
  let dir = temp_dir () in
  let n = 10_000 in
  let name i = Printf.sprintf "p%05d" i in
  let a = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Never (base_db ()) in
  for i = 1 to n do
    ignore
      (Engine.add_policy a ~name:(name i)
         (Printf.sprintf "SELECT DISTINCT 'no %d' FROM users u WHERE u.uid = %d" i i))
  done;
  (match Engine.add_policy a ~name:(name 1) budget_policy with
  | exception Errors.Sql_error (_, m) ->
    Alcotest.(check string) "duplicate rejected" "policy p00001 already registered" m
  | _ -> Alcotest.fail "duplicate name must be rejected");
  Engine.close a;
  let b = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Never (base_db ()) in
  Alcotest.(check bool) "registration order" true
    (List.map (fun p -> p.Policy.name) (Engine.policies b) = List.init n (fun i -> name (i + 1)));
  Engine.close b

(* With compaction off every stored relation keeps its whole increment
   and the commit releases it in place: on this mixed script of accepts
   and rejects, the WAL's commit records hold every generated row of
   the accepted submissions, and the final log holds the same rows
   under consecutive tids. *)
let compaction_off_keeps_raw_increments () =
  let dir = temp_dir () in
  let config =
    {
      Engine.default_config with
      Engine.log_compaction = false;
      time_independent = false;
      domains = 1;
    }
  in
  let a =
    Engine.create ~config ~persist_dir:dir ~persist_fsync:P.Store.Always
      (base_db ())
  in
  List.iter
    (fun (name, sql) -> ignore (Engine.add_policy a ~name sql))
    [
      ("budget", budget_policy);
      ("window", window_policy ~w:4 ~max:2);
      ( "wide",
        "SELECT DISTINCT 'too many person rows' FROM provenance p WHERE \
         p.irid = 'person' GROUP BY p.ts HAVING COUNT(*) > 2" );
      ( "ids",
        "SELECT DISTINCT 'uid 2 read ids' FROM schema s, users u WHERE \
         s.ts = u.ts AND u.uid = 2 AND s.icid = 'id' GROUP BY u.uid \
         HAVING COUNT(DISTINCT u.ts) > 2" );
    ];
  let outcomes =
    List.init 12 (fun i ->
        let sql =
          if i mod 4 = 3 then "SELECT id FROM person"
          else Printf.sprintf "SELECT name FROM person WHERE id = %d" (1 + (i mod 3))
        in
        match Engine.submit a ~uid:(1 + (i mod 2)) sql with
        | Engine.Accepted _ -> 'A'
        | Engine.Rejected _ -> 'R')
  in
  let cells r = String.concat "," (Array.to_list (Array.map Value.to_string r)) in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  let store = Option.get (Engine.persist_store a) in
  let wal =
    P.Wal.read (Filename.concat dir (P.Recovery.wal_file (P.Store.generation store)))
  in
  List.iter
    (fun payload ->
      match P.Record.decode payload with
      | P.Record.Commit { clock; increments; _ } ->
        List.iter
          (fun (rel, rows) ->
            List.iter (fun r -> line "wal@%d %s %s" clock rel (cells r)) rows)
          increments
      | P.Record.Add_policy _ | P.Record.Remove_policy _ -> ())
    wal.P.Wal.payloads;
  List.iter
    (fun rel ->
      Table.iter
        (fun row -> line "%s %d %s" rel (Row.tid row) (cells (Row.cells row)))
        (Database.table (Engine.database a) rel))
    [ "users"; "schema"; "provenance" ];
  Alcotest.(check string) "verdicts" "AAARAARRRRRR"
    (String.of_seq (List.to_seq outcomes));
  Alcotest.(check int) "commit records" 5 (P.Store.wal_records store);
  Alcotest.(check string) "WAL increments, then log rows with tids"
    {|wal@1 provenance 1,0,person,0
wal@1 schema 1,name,person,name,false
wal@1 schema 1,NULL,person,id,false
wal@1 users 1,1
wal@2 provenance 2,0,person,1
wal@2 schema 2,name,person,name,false
wal@2 schema 2,NULL,person,id,false
wal@2 users 2,2
wal@3 provenance 3,0,person,2
wal@3 schema 3,name,person,name,false
wal@3 schema 3,NULL,person,id,false
wal@3 users 3,1
wal@5 provenance 5,0,person,1
wal@5 schema 5,name,person,name,false
wal@5 schema 5,NULL,person,id,false
wal@5 users 5,1
wal@6 provenance 6,0,person,2
wal@6 schema 6,name,person,name,false
wal@6 schema 6,NULL,person,id,false
wal@6 users 6,2
users 0 1,1
users 1 2,2
users 2 3,1
users 3 5,1
users 4 6,2
schema 0 1,name,person,name,false
schema 1 1,NULL,person,id,false
schema 2 2,name,person,name,false
schema 3 2,NULL,person,id,false
schema 4 3,name,person,name,false
schema 5 3,NULL,person,id,false
schema 6 5,name,person,name,false
schema 7 5,NULL,person,id,false
schema 8 6,name,person,name,false
schema 9 6,NULL,person,id,false
provenance 0 1,0,person,0
provenance 1 2,0,person,1
provenance 2 3,0,person,2
provenance 3 5,0,person,1
provenance 4 6,0,person,2
|}
    (Buffer.contents b);
  (* Recovery replays the same log (the clock differs: rejections
     advance the live clock without a commit record). *)
  let c = Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ()) in
  List.iter
    (fun rel ->
      Alcotest.(check string) (rel ^ " recovered")
        (encode_cells (table_cells a rel))
        (encode_cells (table_cells c rel)))
    [ "users"; "schema"; "provenance" ];
  Engine.close a;
  Engine.close c


(* Journaled compaction --------------------------------------------------- *)

(* SQL may not write a log relation or the clock, so every change to a
   stored relation is a commit record: each refused write leaves the
   rows, the clock and the store as they were, and a restart recovers
   that state. *)
let refused_log_writes () =
  let dir = temp_dir () in
  let open_engine () =
    Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ())
  in
  let a = open_engine () in
  ignore (Engine.add_policy a ~name:"window" (window_policy ~w:200 ~max:200));
  for i = 1 to 4 do
    submit_ok a ~uid:(1 + (i mod 2)) "SELECT COUNT(*) FROM person"
  done;
  let db = Engine.database a in
  let store = Option.get (Engine.persist_store a) in
  let state () =
    ( List.map
        (fun rel -> encode_cells (table_cells a rel))
        [ "users"; "schema"; "provenance"; "clock" ],
      (P.Store.wal_records store, P.Store.disk_bytes store) )
  in
  let before = state () in
  let refused what write =
    (match write () with
    | exception Errors.Sql_error _ -> ()
    | _ -> Alcotest.failf "%s must be refused" what);
    Alcotest.(check (pair (list string) (pair int int))) (what ^ ": nothing moved") before (state ())
  in
  List.iter
    (fun sql -> refused sql (fun () -> ignore (Database.exec db sql)))
    [
      "DELETE FROM users WHERE ts <= 3";
      "UPDATE users SET ts = 2 WHERE ts = 1";
      "INSERT INTO users VALUES (1, 1)";
      "DELETE FROM schema";
      "UPDATE clock SET ts = 0";
      "INSERT INTO clock VALUES (10)";
      "DELETE FROM clock";
      "DROP TABLE provenance";
      "DROP TABLE IF EXISTS clock";
    ];
  refused "CSV import into users" (fun () -> ignore (Csv_io.import db ~table:"users" "ts,uid\n9,1\n"));
  Engine.close a;
  let b = open_engine () in
  check_same_log_state ~rels:(Engine.plan a).Engine.store_rels a b;
  Engine.close b

(* A refused log write needs no checkpoint: the commit after it journals
   one record, as any commit does, and a crash after that commit
   recovers the live state. The narrow window makes compaction expire
   rows in that commit when it is on. *)
let refused_write_then_crash ~compaction () =
  let dir = temp_dir () in
  let config = { Engine.default_config with Engine.log_compaction = compaction } in
  let open_engine () =
    Engine.create ~config ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ())
  in
  let a = open_engine () in
  ignore (Engine.add_policy a ~name:"window" (window_policy ~w:3 ~max:25));
  for i = 1 to 6 do
    submit_ok a ~uid:(1 + (i mod 2)) "SELECT COUNT(*) FROM person"
  done;
  (match Database.exec (Engine.database a) "DELETE FROM users WHERE ts <= 3" with
  | exception Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "a DELETE on users must be refused");
  let store = Option.get (Engine.persist_store a) in
  let g = P.Store.generation store and r = P.Store.wal_records store in
  submit_ok a ~uid:1 "SELECT COUNT(*) FROM person";
  Alcotest.(check (pair int int))
    "the commit after: generation, WAL records" (g, r + 1)
    (P.Store.generation store, P.Store.wal_records store);
  let b = open_engine () in
  check_same_log_state ~rels:(Engine.plan a).Engine.store_rels a b;
  Engine.close b;
  Engine.close a

(* The WAL cut at every byte of a final record that expires rows
   recovers the state before that commit; the whole record, the state
   after it. The window is wide enough that the commit journals
   instead of checkpointing. *)
let torn_expiring_record () =
  let dir = temp_dir () in
  let open_engine dir =
    Engine.create ~persist_dir:dir ~persist_fsync:P.Store.Always (base_db ())
  in
  let a = open_engine dir in
  ignore (Engine.add_policy a ~name:"window" (window_policy ~w:200 ~max:200));
  let store = Option.get (Engine.persist_store a) in
  let state e = (table_cells e "users", Usage_log.current_time (Engine.database e)) in
  let last_expires () =
    let wal = P.Wal.read (Filename.concat dir (P.Recovery.wal_file (P.Store.generation store))) in
    match List.rev wal.P.Wal.payloads with
    | last :: _ -> (
      match P.Record.decode last with
      | P.Record.Commit { expired = _ :: _; _ } ->
        Some (wal.P.Wal.valid_bytes - 8 - String.length last, wal.P.Wal.valid_bytes)
      | _ -> None)
    | [] -> None
  in
  let rec go n =
    if n = 0 then Alcotest.fail "no commit journaled its expired rows";
    let before = state a in
    let g = P.Store.generation store in
    submit_ok a ~uid:1 "SELECT COUNT(*) FROM person";
    match last_expires () with
    | Some range when P.Store.generation store = g -> (before, range)
    | _ -> go (n - 1)
  in
  let before, (start, stop) = go 400 in
  let after = state a in
  let copy = temp_dir () in
  let recovered cut =
    Array.iter (fun f -> Sys.remove (Filename.concat copy f)) (Sys.readdir copy);
    Array.iter
      (fun f ->
        let data = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
        Out_channel.with_open_bin (Filename.concat copy f) (fun oc ->
            Out_channel.output_string oc data))
      (Sys.readdir dir);
    Unix.truncate (Filename.concat copy (P.Recovery.wal_file (P.Store.generation store))) cut;
    let e = open_engine copy in
    let st = state e in
    Engine.close e;
    st
  in
  let show (rows, clock) = Printf.sprintf "clock %d, %s" clock (encode_cells rows) in
  for cut = start to stop - 1 do
    Alcotest.(check string)
      (Printf.sprintf "WAL cut at byte %d of [%d, %d)" cut start stop)
      (show before) (show (recovered cut))
  done;
  Alcotest.(check string) "whole record" (show after) (show (recovered stop));
  Test_support.remove_dir copy;
  Engine.close a

(* Store.fsyncs counts a checkpoint's file and directory fsyncs: two per
   file written, so four when the catalog is rewritten too. *)
let checkpoint_fsyncs () =
  let dir = temp_dir () in
  let store, _ = P.Store.open_dir ~fsync:P.Store.Never dir in
  let policies = [ policy_rec "p1" 0 ] in
  let state = { P.Snapshot.clock = 0; policies; relations = [] } in
  let added f =
    let before = P.Store.fsyncs store in
    f ();
    P.Store.fsyncs store - before
  in
  P.Store.log_add_policy store (List.hd policies);
  Alcotest.(check int) "snapshot and catalog" 4 (added (fun () -> P.Store.checkpoint store state));
  Alcotest.(check int) "snapshot only" 2 (added (fun () -> P.Store.checkpoint store state));
  P.Store.close store

let suite =
  [
    tc "crc32 reference vectors" crc_vectors;
    tc "codec rejects garbage" codec_rejects_garbage;
    tc "snapshot round-trip" snapshot_roundtrip;
    tc "torn WAL tail drops only the torn commit" torn_tail_drops_only_last;
    tc "mid-file corruption raises Recovery_error" corruption_is_an_error;
    tc "WAL without base snapshot raises" missing_snapshot_is_an_error;
    tc "recovered engine rejects like the live one" recovered_engine_rejects_like_live;
    tc "kill-and-restart after 120 submissions" kill_and_restart_100;
    tc "compaction checkpoints bound disk size" compaction_checkpoint_bounds_disk;
    tc "rejects leave the WAL untouched" rejects_leave_wal_untouched;
    tc "compaction off keeps raw increments" compaction_off_keeps_raw_increments;
    tc "set_config recomputes persistence scope" set_config_rescopes_persistence;
    tc "policy removal survives recovery" policy_removal_recovers;
    tc "recovered clock reaches a registration after rejections"
      clock_recovers_past_registration;
    tc "recovered clock ignores checkpoint timing"
      recovered_clock_ignores_checkpoint_timing;
    tc "orphan catalog from a crashed checkpoint is dropped" orphan_catalog_is_dropped;
    tc "missing catalog raises Recovery_error" missing_catalog_is_an_error;
    tc "corrupt catalog raises Recovery_error" corrupt_catalog_is_an_error;
    tc "version-1 snapshot is refused by version" v1_snapshot_is_refused;
    tc "policy changes survive checkpoints in order" policy_changes_survive_checkpoints;
    tc "unchanged policies keep their catalog" unchanged_policies_keep_their_catalog;
    tc "disk_bytes counts snapshot, WAL and catalog" disk_bytes_counts_all_three_files;
    tc "10^4 policies recover in registration order" many_policies_recover_in_order;
    tc "SQL writes to the log and the clock are refused" refused_log_writes;
    tc "refused log write, a commit, a crash (compaction on)"
      (refused_write_then_crash ~compaction:true);
    tc "refused log write, a commit, a crash (compaction off)"
      (refused_write_then_crash ~compaction:false);
    tc "WAL cut inside a final expiring record" torn_expiring_record;
    tc "a checkpoint counts its fsyncs" checkpoint_fsyncs;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_row_roundtrip; prop_commit_roundtrip ]
