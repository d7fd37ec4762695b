exception Recovery_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Recovery_error m)) fmt

let snapshot_file g = Printf.sprintf "snapshot-%08d.dls" g
let wal_file g = Printf.sprintf "wal-%08d.dlw" g

let parse_gen ~prefix ~suffix name =
  let pl = String.length prefix and sl = String.length suffix in
  let nl = String.length name in
  if nl > pl + sl && String.sub name 0 pl = prefix && String.sub name (nl - sl) sl = suffix
  then int_of_string_opt (String.sub name pl (nl - pl - sl))
  else None

type recovered = {
  generation : int;
  state : Snapshot.state;
  wal_records : int;
  torn_dropped : bool;
}

(* Replay WAL records on top of a snapshot state. Rows are accumulated in
   reverse per relation so replay stays linear in the WAL length. *)
let replay (state : Snapshot.state) (records : Record.t list) : Snapshot.state =
  let rels : (string, Snapshot.rel * Relational.Value.t array list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (name, (r : Snapshot.rel)) ->
      Hashtbl.replace rels name (r, ref (List.rev r.Snapshot.rows)))
    state.Snapshot.relations;
  let clock = ref state.Snapshot.clock in
  let policies = ref state.Snapshot.policies in
  List.iter
    (function
      | Record.Commit { clock = c; increments } ->
        clock := c;
        List.iter
          (fun (name, rows) ->
            match Hashtbl.find_opt rels name with
            | Some (_, acc) -> List.iter (fun row -> acc := row :: !acc) rows
            | None ->
              Hashtbl.replace rels name
                ({ Snapshot.schema = []; rows = [] }, ref (List.rev rows)))
          increments
      | Record.Add_policy p ->
        (* registration is journaled at its own clock reading, which a
           run of rejected submissions may have moved past the last
           commit's *)
        clock := max !clock p.Record.active_from;
        policies := !policies @ [ p ]
      | Record.Remove_policy name ->
        policies := List.filter (fun p -> p.Record.name <> name) !policies)
    records;
  let relations =
    Hashtbl.fold
      (fun name (r, acc) out ->
        (name, { r with Snapshot.rows = List.rev !acc }) :: out)
      rels []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { Snapshot.clock = !clock; policies = !policies; relations }

let run ~dir : recovered option =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  (* Leftover temp files from a crash mid-checkpoint are garbage. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    entries;
  let gens_of ~prefix ~suffix =
    Array.to_list entries |> List.filter_map (parse_gen ~prefix ~suffix)
  in
  let snap_gens = gens_of ~prefix:"snapshot-" ~suffix:".dls" in
  let wal_gens = gens_of ~prefix:"wal-" ~suffix:".dlw" in
  match List.sort compare (snap_gens @ wal_gens) |> List.rev with
  | [] -> None
  | g :: _ ->
    (* Drop stale lower generations (superseded by checkpoint [g]). *)
    List.iter
      (fun g' ->
        if g' < g then
          try Sys.remove (Filename.concat dir (snapshot_file g')) with Sys_error _ -> ())
      snap_gens;
    List.iter
      (fun g' ->
        if g' < g then
          try Sys.remove (Filename.concat dir (wal_file g')) with Sys_error _ -> ())
      wal_gens;
    let snap_path = Filename.concat dir (snapshot_file g) in
    let base =
      if Sys.file_exists snap_path then (
        try Snapshot.read snap_path
        with Codec.Corrupt m -> error "corrupt snapshot: %s" m)
      else if g > 0 then
        (* A generation > 0 WAL without its snapshot: the snapshot this
           WAL's records build on is gone — replaying would silently
           resurrect a partial state. *)
        error "missing %s for generation %d WAL" (snapshot_file g) g
      else Snapshot.empty
    in
    let wal_path = Filename.concat dir (wal_file g) in
    let records, wal_records, torn =
      if Sys.file_exists wal_path then begin
        let r = try Wal.read wal_path with Codec.Corrupt m -> error "corrupt WAL: %s" m in
        if r.Wal.torn then Wal.truncate wal_path r.Wal.valid_bytes;
        let records =
          List.map
            (fun payload ->
              try Record.decode payload
              with Codec.Corrupt m -> error "corrupt WAL record: %s" m)
            r.Wal.payloads
        in
        (records, List.length records, r.Wal.torn)
      end
      else ([], 0, false)
    in
    Some
      {
        generation = g;
        state = replay base records;
        wal_records;
        torn_dropped = torn;
      }
