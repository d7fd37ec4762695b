type fsync_policy = Wal.fsync_policy = Always | Interval of int | Never

type t = {
  dir : string;
  fsync : fsync_policy;
  mutable generation : int;
  mutable catalog : int option;  (** catalog the live snapshot names *)
  mutable catalog_stale : bool;  (** policy records journaled since [catalog] *)
  mutable wal : Wal.t;
  mutable wal_base : int;  (** records already in the WAL file at open *)
  mutable fsync_base : int;
      (** fsyncs of WAL handles already rotated out and of checkpoint
          files *)
  mutable snapshot_bytes : int;  (** the live snapshot's size; 0 without one *)
  mutable live_bytes : int;
      (** what a snapshot written now would take: [snapshot_bytes] plus
          the Codec sizes of the rows journaled since, minus those of the
          rows journaled as expired *)
  mutable closed : bool;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let path t file = Filename.concat t.dir file
let wal_path t = path t (Recovery.wal_file t.generation)
let snap_path t = path t (Recovery.snapshot_file t.generation)

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let open_dir ?(fsync = Interval 32) dir =
  mkdir_p dir;
  let recovered = Recovery.run ~dir in
  let generation, catalog, catalog_stale, wal_base, row_bytes =
    match recovered with
    | None -> (0, None, false, 0, 0)
    | Some r ->
      ( r.Recovery.generation,
        r.Recovery.catalog,
        r.Recovery.policy_records > 0,
        r.Recovery.wal_records,
        r.Recovery.row_bytes )
  in
  let wal =
    Wal.open_append ~path:(Filename.concat dir (Recovery.wal_file generation)) ~fsync
  in
  let snapshot_bytes = file_size (Filename.concat dir (Recovery.snapshot_file generation)) in
  ( { dir; fsync; generation; catalog; catalog_stale; wal; wal_base; fsync_base = 0;
      snapshot_bytes; live_bytes = snapshot_bytes + row_bytes; closed = false },
    recovered )

let dir t = t.dir
let fsync_policy t = t.fsync
let generation t = t.generation
let wal_records t = t.wal_base + Wal.records_appended t.wal

let fsyncs t = t.fsync_base + Wal.fsyncs t.wal

let check_open t = if t.closed then invalid_arg "Persistence.Store: store is closed"

let log_record t r =
  check_open t;
  Wal.append t.wal (Record.encode r)

let rows_size = List.fold_left (fun n row -> n + Codec.row_size row) 0

let log_commit t ~clock ~expired ~increments =
  log_record t
    (Record.Commit
       { clock; expired = List.map (fun (rel, rows) -> (rel, List.map fst rows)) expired;
         increments });
  List.iter (fun (_, rows) -> t.live_bytes <- t.live_bytes - rows_size (List.map snd rows)) expired;
  List.iter (fun (_, rows) -> t.live_bytes <- t.live_bytes + rows_size rows) increments

let live_bytes t = t.live_bytes

let reclaimable_bytes t = t.snapshot_bytes + Wal.bytes t.wal - t.live_bytes

let log_add_policy t p =
  log_record t (Record.Add_policy p);
  t.catalog_stale <- true

let log_remove_policy t name =
  log_record t (Record.Remove_policy name);
  t.catalog_stale <- true

let flush ?(sync = false) t =
  check_open t;
  Wal.flush ~sync t.wal

let checkpoint t (state : Snapshot.state) =
  check_open t;
  let old_wal = wal_path t and old_snap = snap_path t and old_catalog = t.catalog in
  let g' = t.generation + 1 in
  (* The catalog goes first, so a durable snapshot never names a
     catalog that is not on disk; a crash in between leaves an orphan
     catalog that recovery deletes. *)
  let catalog =
    match t.catalog with
    | Some c when not t.catalog_stale -> c
    | Some _ | None ->
      Catalog_segment.write (path t (Recovery.catalog_file g')) state.Snapshot.policies;
      t.fsync_base <- t.fsync_base + Framed.write_fsyncs;
      g'
  in
  let snap = path t (Recovery.snapshot_file g') in
  Snapshot.write snap ~catalog state;
  t.fsync_base <- t.fsync_base + Framed.write_fsyncs;
  t.snapshot_bytes <- file_size snap;
  t.live_bytes <- t.snapshot_bytes;
  t.catalog <- Some catalog;
  t.catalog_stale <- false;
  (* Buffered (and even already-written) WAL records are subsumed by the
     durable snapshot: drop the old WAL without writing or syncing it. *)
  t.fsync_base <- t.fsync_base + Wal.fsyncs t.wal;
  Wal.discard t.wal;
  t.generation <- g';
  t.wal_base <- 0;
  t.wal <- Wal.open_append ~path:(wal_path t) ~fsync:t.fsync;
  (* Only now — the new snapshot's rename is durable — is the old
     generation garbage. *)
  (try Sys.remove old_wal with Sys_error _ -> ());
  if Sys.file_exists old_snap then (try Sys.remove old_snap with Sys_error _ -> ());
  match old_catalog with
  | Some c when c <> catalog ->
    (try Sys.remove (path t (Recovery.catalog_file c)) with Sys_error _ -> ())
  | Some _ | None -> ()

let disk_bytes t =
  let catalog =
    match t.catalog with Some c -> file_size (path t (Recovery.catalog_file c)) | None -> 0
  in
  file_size (wal_path t) + file_size (snap_path t) + catalog

let close t =
  if not t.closed then begin
    Wal.close t.wal;
    t.closed <- true
  end
