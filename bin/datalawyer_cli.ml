(** The [datalawyer] command-line tool.

    - [datalawyer repl] — interactive SQL console over the synthetic
      MIMIC instance with policy enforcement; [:help] lists commands.
    - [datalawyer check -p POLICY.sql -q QUERY.sql] — one-shot check of a
      query against policies (exit code 1 on violation).
    - [datalawyer demo] — a short guided tour. *)

open Relational
open Datalawyer

(* --fsync values: always | never | interval:N. *)
let fsync_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Persistence.Store.Always
  | "never" -> Ok Persistence.Store.Never
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
    match int_of_string_opt (String.sub s 9 (String.length s - 9)) with
    | Some n when n > 0 -> Ok (Persistence.Store.Interval n)
    | _ -> Error (`Msg (Printf.sprintf "bad fsync interval in %S" s)))
  | _ -> Error (`Msg (Printf.sprintf "unknown fsync policy %S (always|never|interval:N)" s))

let make_engine ~noopt ~with_table2 ?domains ?delta ?persist_dir ?persist_fsync
    () =
  let mimic = Mimic.Generate.small_config in
  let db = Mimic.Generate.database ~config:mimic () in
  let config = if noopt then Engine.noopt_config else Engine.default_config in
  let config =
    match domains with
    | Some n when n >= 1 -> { config with Engine.domains = n }
    | Some n ->
      Printf.eprintf "--domains %d: must be >= 1\n" n;
      exit 2
    | None -> config
  in
  let config =
    match delta with
    | Some b -> { config with Engine.delta = b }
    | None -> config
  in
  let engine =
    try Engine.create ~config ?persist_dir ?persist_fsync db with
    | Persistence.Recovery.Recovery_error msg ->
      Printf.eprintf
        "cannot recover persisted usage log: %s\n\
         (fix or move the directory aside; refusing to start rather than \
         silently lose log history)\n"
        msg;
      exit 1
    | Unix.Unix_error (err, _, path) ->
      Printf.eprintf "cannot open persistence directory %s: %s\n"
        (match persist_dir with Some d -> d | None -> path)
        (Unix.error_message err);
      exit 1
  in
  (match Engine.persist_store engine with
  | Some store ->
    Printf.printf "persisting usage log to %s (fsync %s, generation %d, %d WAL records)\n"
      (Persistence.Store.dir store)
      (Format.asprintf "%a" Persistence.Wal.pp_fsync_policy
         (Persistence.Store.fsync_policy store))
      (Persistence.Store.generation store)
      (Persistence.Store.wal_records store)
  | None -> ());
  (* Recovery re-registers persisted policies; only add the missing ones. *)
  let registered =
    List.map (fun p -> p.Policy.name) (Engine.policies engine)
  in
  if with_table2 then
    List.iter
      (fun (p : Workload.Policies.t) ->
        if not (List.mem p.Workload.Policies.name registered) then
          ignore
            (Engine.add_policy engine ~name:p.Workload.Policies.name
               p.Workload.Policies.sql))
      (Workload.Policies.all ~n_patients:mimic.Mimic.Generate.n_patients ());
  (db, engine)

(* serve ------------------------------------------------------------------ *)

(* [repl --serve PORT]: run the policy server instead of the console.
   Blocks until stdin closes or Ctrl-C, then shuts down cleanly (drains
   the admission queue, closes the store, stops the domain pools). *)
let run_server engine ~port ~max_batch =
  let config = { Server.Tcp.default_config with Server.Tcp.port; max_batch } in
  let srv = Server.Tcp.start ~config engine in
  Printf.printf
    "policy server listening on %s:%d (admission batches of <= %d)\n\
     Ctrl-C or EOF on stdin stops it\n\
     %!"
    config.Server.Tcp.host (Server.Tcp.port srv) max_batch;
  Sys.catch_break true;
  let rec wait () =
    match In_channel.input_line stdin with Some _ -> wait () | None -> ()
  in
  (try wait () with Sys.Break -> ());
  print_endline "shutting down";
  Server.Tcp.stop ~close_engine:true srv;
  `Ok ()

(* repl ------------------------------------------------------------------- *)

let repl_help =
  {|commands:
  :help                 show this help
  :user N               switch current user id (default 1)
  :policy NAME SQL...   register a policy
  :policies             list registered policies
  :drop NAME            remove a policy
  :log                  show usage-log sizes (and on-disk state)
  :stats                show index, plan-cache, delta-eval, unification,
                        relevance-index, shared-scan and vectorized-executor
                        statistics
  :checkpoint           force a persistence checkpoint
  :tables               list tables
  :load TABLE FILE.csv  import a CSV file (creates the table if needed)
  :export TABLE FILE    export a table to CSV
  :quit                 exit
CREATE/DROP statements (e.g. CREATE INDEX ix ON t USING hash (col))
run directly; anything else is SQL, checked against the policies|}

let run_repl noopt no_policies domains delta persist_dir persist_fsync serve
    serve_batch =
  (* Under --serve the admission pipeline group-commits: it forces one
     synced flush per batch, so the WAL itself should buffer. An
     explicit --fsync still wins. *)
  let persist_fsync =
    match (serve, persist_fsync) with
    | Some _, None -> Some Persistence.Store.Never
    | _ -> persist_fsync
  in
  let db, engine =
    make_engine ~noopt ~with_table2:(not no_policies) ?domains ?delta
      ?persist_dir ?persist_fsync ()
  in
  match serve with
  | Some port ->
    ignore db;
    run_server engine ~port ~max_batch:serve_batch
  | None ->
  let uid = ref 1 in
  Printf.printf
    "DataLawyer console — synthetic MIMIC instance%s\ntype :help for commands\n"
    (if no_policies then "" else ", Table 2 policies enforced");
  let rec loop () =
    Printf.printf "dl:%d> %!" !uid;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let line = String.trim line in
      (try
         if line = "" then ()
         else if line = ":quit" || line = ":q" then raise Exit
         else if line = ":help" then print_endline repl_help
         else if line = ":policies" then
           List.iter
             (fun p -> Format.printf "%a@." Policy.pp p)
             (Engine.policies engine)
         else if line = ":log" then begin
           List.iter
             (fun rel -> Printf.printf "  %-12s %6d rows\n" rel (Engine.log_size engine rel))
             [ "users"; "schema"; "provenance" ];
           match Engine.persist_store engine with
           | Some store ->
             Printf.printf "  on disk: generation %d, %d WAL records, %d bytes\n"
               (Persistence.Store.generation store)
               (Persistence.Store.wal_records store)
               (Persistence.Store.disk_bytes store)
           | None -> ()
         end
         else if line = ":stats" then begin
           let cat = Database.catalog db in
           List.iter
             (fun tname ->
               let table = Catalog.find cat tname in
               match Table.indexes table with
               | [] -> ()
               | ixs ->
                 Printf.printf "  %s (%d rows)\n" tname (Table.row_count table);
                 List.iter
                   (fun ix ->
                     Printf.printf "    %-24s %-6s on %-10s %8d entries\n"
                       (Index.name ix)
                       (Index.kind_to_string (Index.kind ix))
                       (Index.column_name ix) (Index.entries ix))
                   ixs)
             (Catalog.table_names cat);
           List.iter
             (fun (k, v) -> Printf.printf "  %s: %s\n" k v)
             (Engine.counters engine)
         end
         else if line = ":checkpoint" then begin
           Engine.persist_checkpoint engine;
           match Engine.persist_store engine with
           | Some store ->
             Printf.printf "checkpointed: generation %d, %d bytes on disk\n"
               (Persistence.Store.generation store)
               (Persistence.Store.disk_bytes store)
           | None -> print_endline "no persistence directory (start with --persist DIR)"
         end
         else if line = ":tables" then
           List.iter print_endline (Catalog.table_names (Database.catalog db))
         else if String.length line > 6 && String.sub line 0 6 = ":user " then
           uid := int_of_string (String.trim (String.sub line 6 (String.length line - 6)))
         else if String.length line > 6 && String.sub line 0 6 = ":drop " then
           Engine.remove_policy engine (String.trim (String.sub line 6 (String.length line - 6)))
         else if String.length line > 6 && String.sub line 0 6 = ":load " then begin
           match String.split_on_char ' ' (String.sub line 6 (String.length line - 6)) with
           | [ table; path ] ->
             let n = Csv_io.import_from_file db ~table ~path in
             Printf.printf "imported %d rows into %s\n" n table
           | _ -> print_endline "usage: :load TABLE FILE.csv"
         end
         else if String.length line > 8 && String.sub line 0 8 = ":export " then begin
           match String.split_on_char ' ' (String.sub line 8 (String.length line - 8)) with
           | [ table; path ] ->
             Csv_io.export_to_file db ~table ~path;
             Printf.printf "exported %s to %s\n" table path
           | _ -> print_endline "usage: :export TABLE FILE"
         end
         else if String.length line > 8 && String.sub line 0 8 = ":policy " then begin
           let rest = String.sub line 8 (String.length line - 8) in
           match String.index_opt rest ' ' with
           | None -> print_endline "usage: :policy NAME SQL..."
           | Some i ->
             let name = String.sub rest 0 i in
             let sql = String.sub rest (i + 1) (String.length rest - i - 1) in
             let p = Engine.add_policy engine ~name sql in
             Format.printf "registered %a@." Policy.pp p
         end
         else if
           (* DDL bypasses policy checking: statements aren't submissions. *)
           match String.index_opt line ' ' with
           | Some i ->
             let w = String.lowercase_ascii (String.sub line 0 i) in
             w = "create" || w = "drop"
           | None -> false
         then begin
           match Dml.exec (Database.catalog db) (Parser.stmt line) with
           | Dml.Created what -> Printf.printf "created %s\n" what
           | Dml.Dropped what -> Printf.printf "dropped %s\n" what
           | Dml.Affected n -> Printf.printf "%d rows affected\n" n
           | Dml.Rows result -> print_endline (Database.render result)
         end
         else
           match Engine.submit engine ~uid:!uid line with
           | Engine.Accepted (result, stats) ->
             print_endline (Database.render result);
             Printf.printf "(policy machinery: %.2fms)\n"
               (Stats.overhead stats *. 1000.)
           | Engine.Rejected (messages, _) ->
             List.iter (fun m -> Printf.printf "REJECTED: %s\n" m) messages
       with
      | Exit -> raise Exit
      | Errors.Sql_error _ as e -> print_endline (Errors.to_string e)
      | Failure m -> print_endline m);
      loop ()
  in
  (try loop () with Exit -> ());
  Engine.close engine;
  `Ok ()

(* check ------------------------------------------------------------------ *)

let run_check policy_files query_file uid domains delta persist_dir
    persist_fsync =
  let db, engine =
    make_engine ~noopt:false ~with_table2:false ?domains ?delta ?persist_dir
      ?persist_fsync ()
  in
  ignore db;
  List.iteri
    (fun i file ->
      let sql = In_channel.with_open_text file In_channel.input_all in
      let name = Printf.sprintf "policy_%d" i in
      (* Recovery may have re-registered this policy from a previous run;
         keep it unless the file's text changed. *)
      match
        List.find_opt (fun p -> p.Policy.name = name) (Engine.policies engine)
      with
      | Some p when String.trim p.Policy.source = String.trim sql -> ()
      | Some _ ->
        Engine.remove_policy engine name;
        ignore (Engine.add_policy engine ~name sql)
      | None -> ignore (Engine.add_policy engine ~name sql))
    policy_files;
  let sql = In_channel.with_open_text query_file In_channel.input_all in
  match Engine.submit engine ~uid sql with
  | Engine.Accepted (result, _) ->
    print_endline (Database.render result);
    Engine.close engine;
    `Ok ()
  | Engine.Rejected (messages, _) ->
    List.iter (fun m -> Printf.eprintf "REJECTED: %s\n" m) messages;
    Engine.close engine;
    exit 1

(* demo ------------------------------------------------------------------- *)

let run_demo () =
  let _, engine = make_engine ~noopt:false ~with_table2:true () in
  let script =
    [
      (0, "SELECT COUNT(*) FROM d_patients");
      (1, "SELECT sex, dob FROM d_patients WHERE subject_id = 7");
      (1, "SELECT o.drug, m.dose FROM poe_order o, poe_med m WHERE o.order_id = m.order_id LIMIT 3");
      (1, "SELECT o.drug, p.sex FROM poe_order o, d_patients p WHERE o.subject_id = p.subject_id LIMIT 3");
    ]
  in
  List.iter
    (fun (uid, sql) ->
      Printf.printf "[uid %d] %s\n" uid sql;
      (match Engine.submit engine ~uid sql with
      | Engine.Accepted (result, _) ->
        Printf.printf "  accepted (%d rows)\n" (List.length result.Executor.out_rows)
      | Engine.Rejected (messages, _) ->
        List.iter (fun m -> Printf.printf "  REJECTED: %s\n" m) messages);
      print_newline ())
    script;
  `Ok ()

(* cmdliner wiring ---------------------------------------------------------- *)

open Cmdliner

let noopt =
  Arg.(value & flag & info [ "noopt" ] ~doc:"Use the NoOpt baseline engine.")

let no_policies =
  Arg.(value & flag & info [ "no-policies" ] ~doc:"Start without the Table 2 policies.")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Evaluating domains for policy, partial-policy and witness-query \
           batches. $(b,1) forces the serial code path (no pool); the \
           default honours $(b,DL_DOMAINS) or the machine's core count.")

let delta =
  Arg.(
    value
    & opt (some bool) None
    & info [ "delta" ] ~docv:"BOOL"
        ~doc:
          "Delta-driven policy evaluation: re-check delta-eligible policies \
           against only the usage-log rows appended since the last accepted \
           submission, falling back to full re-evaluation where the plan \
           shape or an invalidation requires it. On by default. \
           Decisions are identical either way.")

let persist_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "persist" ] ~docv:"DIR"
        ~doc:
          "Persist the usage log to $(docv): accepted submissions are \
           appended to a write-ahead log and the log state is recovered on \
           the next start.")

let fsync_conv : Persistence.Store.fsync_policy Arg.conv =
  let print ppf p = Persistence.Wal.pp_fsync_policy ppf p in
  Arg.conv (fsync_of_string, print)

let persist_fsync =
  Arg.(
    value
    & opt (some fsync_conv) None
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "WAL durability policy: $(b,always) (fsync every commit), \
           $(b,interval:N) (fsync every N commits, the default with N=32), or \
           $(b,never) (leave flushing to the OS).")

let serve =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "Run the multi-tenant policy server on $(docv) instead of the \
           console: clients HELLO/AUTH over a length-prefixed TCP protocol \
           and concurrent SUBMITs are admitted in batches. $(b,0) picks an \
           ephemeral port. Combine with $(b,--persist) for a durable usage \
           log with per-batch group commit.")

let serve_batch =
  Arg.(
    value
    & opt int Server.Tcp.default_config.Server.Tcp.max_batch
    & info [ "serve-batch" ] ~docv:"N"
        ~doc:
          "Maximum admission batch size: up to $(docv) queued concurrent \
           submissions are decided one at a time in arrival order and \
           committed with one fsync.")

let repl_cmd =
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Interactive SQL console with policy enforcement (or --serve)")
    Term.(
      ret
        (const run_repl $ noopt $ no_policies $ domains $ delta $ persist_dir
       $ persist_fsync $ serve $ serve_batch))

let check_cmd =
  let policies =
    Arg.(
      value & opt_all file []
      & info [ "p"; "policy" ] ~docv:"FILE" ~doc:"Policy SQL file (repeatable).")
  in
  let query =
    Arg.(required & opt (some file) None & info [ "q"; "query" ] ~docv:"FILE" ~doc:"Query SQL file.")
  in
  let uid = Arg.(value & opt int 1 & info [ "u"; "uid" ] ~doc:"User id.") in
  Cmd.v
    (Cmd.info "check" ~doc:"Check one query against policies; exit 1 on violation")
    Term.(
      ret
        (const run_check $ policies $ query $ uid $ domains $ delta
       $ persist_dir $ persist_fsync))

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Short guided tour") Term.(ret (const run_demo $ const ()))

let () =
  let info =
    Cmd.info "datalawyer" ~version:"1.0.0"
      ~doc:"Automatic enforcement of data use policies (SIGMOD'15 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info [ repl_cmd; check_cmd; demo_cmd ]))
