(** Benchmark harness regenerating every table and figure of the paper's
    evaluation (§5). Run with no argument for the full suite at quick
    scale, or name experiments: fig1 fig2 fig3 tab4 fig4 fig5 ablate
    persist micro load scale. Pass --full for paper-scale batch counts. *)

let experiments =
  [
    ("fig1", Fig1.run);
    ("fig2", Fig2.run);
    ("fig3", Fig3.run);
    ("tab4", Tab4.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("ablate", Ablate.run);
    ("persist", Persist.run);
    ("micro", fun _ -> Micro.run ());
    ("typedcols", fun _ -> if not (Micro.typed_columns_case ()) then exit 1);
    ("load", Load.run);
    ("scale", Scale.run);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  Common.smoke := List.mem "--smoke" args;
  let names = List.filter (fun a -> a <> "--full" && a <> "--smoke") args in
  let scale = if full then Common.full_scale else Common.quick_scale in
  let names = if names = [] then List.map fst experiments else names in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run scale
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1)
    names;
  Printf.printf "\n(total bench time: %.1fs)\n" (Unix.gettimeofday () -. t0)
