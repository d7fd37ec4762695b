exception Recovery_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Recovery_error m)) fmt

let snapshot_file g = Printf.sprintf "snapshot-%08d.dls" g
let wal_file g = Printf.sprintf "wal-%08d.dlw" g
let catalog_file c = Printf.sprintf "catalog-%08d.dlc" c

let parse_gen ~prefix ~suffix name =
  let pl = String.length prefix and sl = String.length suffix in
  let nl = String.length name in
  if nl > pl + sl && String.sub name 0 pl = prefix && String.sub name (nl - sl) sl = suffix
  then int_of_string_opt (String.sub name pl (nl - pl - sl))
  else None

type recovered = {
  generation : int;
  catalog : int option;
  state : Snapshot.state;
  wal_records : int;
  policy_records : int;
  row_bytes : int;
  torn_dropped : bool;
}

(* One relation during replay: every row it holds at any point, in
   arrival order, with a Fenwick tree over which are still live, so a
   deletion by rank costs O(log n) and replay stays O(WAL log n) however
   many records delete. *)
type slots = {
  rows : Relational.Value.t array array;
  dead : Bytes.t;
  tree : int array;  (** 1-based Fenwick tree of the live flags *)
  mutable len : int;  (** rows placed so far *)
  mutable live : int;
}

let slots cap =
  { rows = Array.make cap [||]; dead = Bytes.make cap '\000'; tree = Array.make (cap + 1) 0;
    len = 0; live = 0 }

let fenwick_add s i d =
  let i = ref (i + 1) in
  while !i < Array.length s.tree do
    s.tree.(!i) <- s.tree.(!i) + d;
    i := !i + (!i land - !i)
  done

let push s row =
  s.rows.(s.len) <- row;
  fenwick_add s s.len 1;
  s.len <- s.len + 1;
  s.live <- s.live + 1

(* Delete the live row of rank [k] (0-based) and return it. *)
let delete s k =
  let n = Array.length s.tree - 1 in
  let step = ref 1 in
  while !step * 2 <= n do step := !step * 2 done;
  (* Descend to the last index whose prefix holds at most [k] live rows:
     the next one is the row of rank [k]. *)
  let i = ref 0 and rem = ref k in
  while !step > 0 do
    let j = !i + !step in
    if j <= n && s.tree.(j) <= !rem then begin
      i := j;
      rem := !rem - s.tree.(j)
    end;
    step := !step / 2
  done;
  fenwick_add s !i (-1);
  Bytes.set s.dead !i '\001';
  s.live <- s.live - 1;
  s.rows.(!i)

let live_rows s =
  let acc = ref [] in
  for i = s.len - 1 downto 0 do
    if Bytes.get s.dead i = '\000' then acc := s.rows.(i) :: !acc
  done;
  !acc

(* Replay WAL records on top of a snapshot state: per commit and
   relation, delete the expired positions, then append the increment.
   Also returns how many records changed the policy set, and the Codec
   bytes of the rows appended minus those deleted. *)
let replay (state : Snapshot.state) (records : Record.t list) : Snapshot.state * int * int =
  let cap : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let reserve name n =
    Hashtbl.replace cap name (n + Option.value (Hashtbl.find_opt cap name) ~default:0)
  in
  List.iter
    (fun (name, (r : Snapshot.rel)) -> reserve name (List.length r.Snapshot.rows))
    state.Snapshot.relations;
  List.iter
    (function
      | Record.Commit { increments; _ } ->
        List.iter (fun (name, rows) -> reserve name (List.length rows)) increments
      | Record.Add_policy _ | Record.Remove_policy _ -> ())
    records;
  let rels : (string, Snapshot.rel * slots) Hashtbl.t = Hashtbl.create 8 in
  let rel name schema =
    match Hashtbl.find_opt rels name with
    | Some (_, s) -> s
    | None ->
      let s = slots (Option.value (Hashtbl.find_opt cap name) ~default:0) in
      Hashtbl.replace rels name ({ Snapshot.schema; rows = [] }, s);
      s
  in
  List.iter
    (fun (name, (r : Snapshot.rel)) -> List.iter (push (rel name r.Snapshot.schema)) r.Snapshot.rows)
    state.Snapshot.relations;
  let clock = ref state.Snapshot.clock in
  let policies_rev = ref (List.rev state.Snapshot.policies) in
  let policy_records = ref 0 in
  let row_bytes = ref 0 in
  List.iter
    (function
      | Record.Commit { clock = c; expired; increments } ->
        clock := c;
        List.iter
          (fun (name, positions) ->
            let s =
              match Hashtbl.find_opt rels name with
              | Some (_, s) -> s
              | None -> error "WAL expires rows of unknown relation %s" name
            in
            (* Descending, so each rank still counts the rows before it. *)
            List.iter
              (fun p ->
                if p >= s.live then
                  error "WAL expires position %d of %s, which holds %d rows" p name s.live;
                row_bytes := !row_bytes - Codec.row_size (delete s p))
              (List.rev positions))
          expired;
        List.iter
          (fun (name, rows) ->
            let s = rel name [] in
            List.iter
              (fun row ->
                row_bytes := !row_bytes + Codec.row_size row;
                push s row)
              rows)
          increments
      | Record.Add_policy p ->
        (* registration is journaled at its own clock reading, which a
           run of rejected submissions may have moved past the last
           commit's *)
        clock := max !clock p.Record.active_from;
        incr policy_records;
        policies_rev := p :: !policies_rev
      | Record.Remove_policy name ->
        incr policy_records;
        policies_rev := List.filter (fun p -> p.Record.name <> name) !policies_rev)
    records;
  let relations =
    Hashtbl.fold
      (fun name (r, s) out -> (name, { r with Snapshot.rows = live_rows s }) :: out)
      rels []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  ( { Snapshot.clock = !clock; policies = List.rev !policies_rev; relations },
    !policy_records,
    !row_bytes )

let remove dir f = try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()

(* The snapshot of generation [g] with the policies of the catalog it
   names. A catalog that is missing or unreadable is an error: reading it
   as an empty policy set would silently drop enforcement. *)
let load_snapshot ~dir g =
  let c, st =
    try Snapshot.read (Filename.concat dir (snapshot_file g))
    with Codec.Corrupt m -> error "unreadable snapshot: %s" m
  in
  let cat_path = Filename.concat dir (catalog_file c) in
  if not (Sys.file_exists cat_path) then
    error "missing %s named by %s" (catalog_file c) (snapshot_file g);
  let policies =
    try Catalog_segment.read cat_path
    with Codec.Corrupt m -> error "unreadable catalog: %s" m
  in
  (c, { st with Snapshot.policies })

let run ~dir : recovered option =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  (* Leftover temp files from a crash mid-checkpoint are garbage. *)
  Array.iter (fun f -> if Filename.check_suffix f ".tmp" then remove dir f) entries;
  let gens_of ~prefix ~suffix =
    Array.to_list entries |> List.filter_map (parse_gen ~prefix ~suffix)
  in
  let snap_gens = gens_of ~prefix:"snapshot-" ~suffix:".dls" in
  let wal_gens = gens_of ~prefix:"wal-" ~suffix:".dlw" in
  (* Every catalog but the one the live snapshot names is garbage — an
     orphan written by a checkpoint that crashed before its snapshot's
     rename included. *)
  let drop_catalogs_except keep =
    List.iter
      (fun c -> if Some c <> keep then remove dir (catalog_file c))
      (gens_of ~prefix:"catalog-" ~suffix:".dlc")
  in
  match List.sort compare (snap_gens @ wal_gens) |> List.rev with
  | [] ->
    drop_catalogs_except None;
    None
  | g :: _ ->
    (* Drop stale lower generations (superseded by checkpoint [g]). *)
    List.iter (fun g' -> if g' < g then remove dir (snapshot_file g')) snap_gens;
    List.iter (fun g' -> if g' < g then remove dir (wal_file g')) wal_gens;
    let catalog, base =
      if List.mem g snap_gens then
        let c, st = load_snapshot ~dir g in
        (Some c, st)
      else if g > 0 then
        (* A generation > 0 WAL without its snapshot: the snapshot this
           WAL's records build on is gone — replaying would silently
           resurrect a partial state. *)
        error "missing %s for generation %d WAL" (snapshot_file g) g
      else (None, Snapshot.empty)
    in
    drop_catalogs_except catalog;
    let wal_path = Filename.concat dir (wal_file g) in
    let records, torn =
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
        (records, r.Wal.torn)
      end
      else ([], false)
    in
    let state, policy_records, row_bytes = replay base records in
    Some
      {
        generation = g;
        catalog;
        state;
        wal_records = List.length records;
        policy_records;
        row_bytes;
        torn_dropped = torn;
      }
