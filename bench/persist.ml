(** Persistence micro-benchmark (lib/persist): submission throughput
    under each WAL fsync policy, recovery time as a function of WAL
    length, and two gates (exit 1): the on-disk log stays within 33/32
    of its checkpointed size under journaled compaction (§4.1.2
    compaction keeps the durable log bounded too), and a snapshot's size
    does not depend on the registered-policy count. *)

open Relational
open Datalawyer
module P = Persistence

(* Fresh scratch directory per phase; existing contents are cleared so a
   previous run's files are never recovered by accident. *)
let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dl_bench_persist_%d_%d" (Unix.getpid ()) !counter)
    in
    (if Sys.file_exists dir then
       Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f)));
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
    Unix.rmdir dir
  end

let base_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       {|
       CREATE TABLE person (id INT, name TEXT);
       INSERT INTO person VALUES (1, 'ada'), (2, 'bob'), (3, 'cyd')
       |});
  db

(* Sliding window over the usage log: time-dependent, so [users] is in
   [store_rels] and every accepted submission hits the WAL. *)
let window_policy ~w ~max =
  Printf.sprintf
    "SELECT DISTINCT 'window budget exceeded' AS errorMessage FROM users u, \
     clock c WHERE u.uid = 1 AND u.ts > c.ts - %d GROUP BY u.uid HAVING \
     COUNT(DISTINCT u.ts) > %d"
    w max

let make_engine ?persist_dir ?persist_fsync ~w ~max () =
  let engine = Engine.create ?persist_dir ?persist_fsync (base_db ()) in
  ignore (Engine.add_policy engine ~name:"window" (window_policy ~w ~max));
  engine

let query = "SELECT COUNT(*) FROM person"

let submit_stream engine ~n =
  let rejected = ref 0 in
  for i = 1 to n do
    match Engine.submit engine ~uid:(i mod 3) query with
    | Engine.Accepted _ -> ()
    | Engine.Rejected _ -> incr rejected
  done;
  if !rejected > 0 then
    Printf.printf "  !! %d unexpected rejections in stream\n" !rejected

(* Phase 1: submissions/sec per fsync policy (plus a no-persistence
   baseline). Violation-free window so every submission commits. *)
let throughput (scale : Common.scale) =
  let n = scale.Common.batch_size * 4 in
  let run fsync =
    let dir = Option.map (fun _ -> fresh_dir ()) fsync in
    let engine = make_engine ?persist_dir:dir ?persist_fsync:fsync ~w:50 ~max:25 () in
    let t0 = Unix.gettimeofday () in
    submit_stream engine ~n;
    Engine.close engine;
    let dt = Unix.gettimeofday () -. t0 in
    Option.iter rm_rf dir;
    float_of_int n /. dt
  in
  let policies =
    [
      ("none (baseline)", None);
      ("fsync always", Some P.Store.Always);
      ("fsync interval:32", Some (P.Store.Interval 32));
      ("fsync never", Some P.Store.Never);
    ]
  in
  Common.print_table [ 20; 14 ]
    [ "persistence"; "subs/sec" ]
    (List.map
       (fun (label, persist) -> [ label; Common.f1 (run persist) ])
       policies)

(* Phase 2: recovery time vs WAL length. A wide violation-free window
   means no compaction, so the WAL just grows with every commit. *)
let recovery (scale : Common.scale) =
  let lengths =
    [ scale.Common.batch_size; scale.Common.batch_size * 4; scale.Common.batch_size * 16 ]
  in
  let run n =
    let dir = fresh_dir () in
    let a = make_engine ~persist_dir:dir ~persist_fsync:P.Store.Never ~w:(4 * n) ~max:n () in
    submit_stream a ~n;
    (* Simulate a crash: flush the OS buffers but skip close's checkpoint-free
       shutdown path and just drop the engine after flushing. *)
    (match Engine.persist_store a with Some s -> P.Store.flush s | None -> ());
    let wal_records =
      match Engine.persist_store a with Some s -> P.Store.wal_records s | None -> 0
    in
    let t0 = Unix.gettimeofday () in
    let b = Engine.create ~persist_dir:dir (base_db ()) in
    let dt = Unix.gettimeofday () -. t0 in
    Engine.close b;
    rm_rf dir;
    (wal_records, dt)
  in
  Common.print_table [ 12; 12; 14 ]
    [ "commits"; "WAL records"; "recovery (ms)" ]
    (List.map
       (fun n ->
         let records, dt = run n in
         [ string_of_int n; string_of_int records; Common.f2 (Common.ms dt) ])
       lengths)

(* Phase 3: on-disk footprint under journaled compaction, a gate. A
   uid-1 stream under a [w]-tick window appends one row per commit and,
   once the window is full, expires one: each such commit journals the
   expired position and checkpoints only when the reclaimable bytes pass
   1/32 of the live log. After each step the store's snapshot and WAL,
   catalog and headers excluded, must hold at most 33/32 of what an
   immediate checkpoint leaves (exit 1 otherwise); steps that end before
   the window fills journal appends only and are reported, not gated. *)
let footprint_gate ~w ~step =
  let dir = fresh_dir () in
  let engine = make_engine ~persist_dir:dir ~persist_fsync:P.Store.Never ~w ~max:w () in
  let store = Option.get (Engine.persist_store engine) in
  let log_bytes () =
    P.Store.flush store;
    let size f h =
      match (Unix.stat (Filename.concat dir f)).Unix.st_size with
      | n -> n - h
      | exception Unix.Unix_error _ -> 0
    in
    let g = P.Store.generation store in
    size (P.Recovery.snapshot_file g) P.Snapshot.header_len
    + size (P.Recovery.wal_file g) P.Wal.header_len
  in
  let failed = ref false in
  let rows =
    List.init 4 (fun i ->
        let g0 = P.Store.generation store in
        for _ = 1 to step do
          match Engine.submit engine ~uid:1 query with
          | Engine.Accepted _ -> ()
          | Engine.Rejected _ -> failwith "persist: window stream rejected"
        done;
        let checkpoints = P.Store.generation store - g0 in
        let disk = log_bytes () in
        Engine.persist_checkpoint engine;
        let compact = log_bytes () in
        let gated = (i + 1) * step > w in
        let ok = disk * 32 <= compact * 33 in
        if gated && not ok then begin
          Printf.eprintf
            "persist: w=%d after %d commits the log takes %d bytes on disk, over 33/32 of \
             the %d a checkpoint leaves\n"
            w ((i + 1) * step) disk compact;
          failed := true
        end;
        [
          string_of_int ((i + 1) * step);
          string_of_int disk;
          string_of_int compact;
          Common.f3 (float_of_int disk /. float_of_int (max 1 compact));
          (if gated then if ok then "ok" else "FAIL" else "filling");
          Common.f3 (float_of_int checkpoints /. float_of_int step);
        ])
  in
  Engine.close engine;
  rm_rf dir;
  Common.print_table [ 10; 12; 14; 8; 9; 14 ]
    [ "commits"; "disk bytes"; "checkpointed"; "ratio"; "gate"; "ckpt/commit" ]
    rows;
  not !failed

(* Phase 4: checkpoint cost vs registered-policy count. The same
   200-row log is checkpointed twice under 0 and under 1 000 registered
   policies. Policies live in their own catalog segment, written by the
   first checkpoint only, so the snapshot files must be byte-for-byte the
   same size — a deterministic gate (exit 1), unlike the printed times. *)
let catalog_independence () =
  let rows = List.init 200 (fun i -> [| Value.Int (i / 3); Value.Int (i mod 7) |]) in
  let state policies =
    {
      P.Snapshot.clock = 200;
      policies;
      relations =
        [ ("users", { P.Snapshot.schema = [ ("ts", Ty.Int); ("uid", Ty.Int) ]; rows }) ];
    }
  in
  let run n =
    let dir = fresh_dir () in
    let store, _ = P.Store.open_dir ~fsync:P.Store.Never dir in
    let policies =
      List.init n (fun i ->
          {
            P.Record.name = Printf.sprintf "no_access_%d" i;
            source =
              Printf.sprintf
                "SELECT DISTINCT 'uid %d may not read secret' FROM users u WHERE u.uid = %d"
                i i;
            active_from = 0;
          })
    in
    List.iter (P.Store.log_add_policy store) policies;
    let timed () =
      let t0 = Unix.gettimeofday () in
      P.Store.checkpoint store (state policies);
      Common.ms (Unix.gettimeofday () -. t0)
    in
    let first = timed () in
    let steady = timed () in
    let size f = (Unix.stat (Filename.concat dir f)).Unix.st_size in
    let snapshot = size (P.Recovery.snapshot_file (P.Store.generation store)) in
    let catalog =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> String.starts_with ~prefix:"catalog-" f)
      |> List.fold_left (fun acc f -> acc + size f) 0
    in
    P.Store.close store;
    rm_rf dir;
    (n, first, steady, snapshot, catalog)
  in
  let results = List.map run [ 0; 1000 ] in
  Common.print_table [ 10; 16; 16; 16; 14 ]
    [ "policies"; "1st ckpt (ms)"; "next ckpt (ms)"; "snapshot bytes"; "catalog bytes" ]
    (List.map
       (fun (n, first, steady, snapshot, catalog) ->
         [
           string_of_int n;
           Common.f2 first;
           Common.f2 steady;
           string_of_int snapshot;
           string_of_int catalog;
         ])
       results);
  match results with
  | [ (_, _, _, s0, _); (_, _, _, s1, _) ] when s0 <> s1 ->
    Printf.eprintf
      "persist: snapshot size depends on the policy count (%d vs %d bytes)\n" s0 s1;
    exit 1
  | _ -> ()

let run (scale : Common.scale) =
  Common.header "Persistence (WAL / snapshots / recovery)";
  print_endline "\nThroughput by fsync policy:";
  throughput scale;
  print_endline "\nRecovery time vs WAL length:";
  recovery scale;
  let gates =
    List.map
      (fun (w, step) ->
        Printf.printf "\nDisk footprint under journaled compaction (window w=%d):\n" w;
        footprint_gate ~w ~step)
      [ (5, scale.Common.batch_size); (500, 299) ]
  in
  print_endline "\nCheckpoint cost vs registered policies (same 200-row log):";
  catalog_independence ();
  if List.mem false gates then exit 1
