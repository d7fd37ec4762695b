(* Offline phase (§4.4): registered policies to the evaluation plan. *)

open Relational

type t = {
  active : Policy.t list;
  inter : Policy.t list;
  rest : Policy.t list;
  required : string list;
  store_rels : string list;
  unified_groups : Unify.group list;
  relevance : Relevance.t;
  witnesses : (string * Witness.t) list;
  witness_bases : string list;
}

let compute cat ~unification ~time_independent ~interleaved ps : t =
  let is_log = Catalog.is_log cat in
  let ps, unified_groups =
    if unification then
      let o = Unify.run cat ~is_log ps in
      (o.Unify.policies, o.Unify.groups)
    else (ps, [])
  in
  let ps =
    if time_independent then List.map (Time_independent.apply ~is_log) ps
    else ps
  in
  let inter, rest =
    if interleaved then
      List.partition
        (fun p -> p.Policy.interleavable || p.Policy.core_prunable)
        ps
    else ([], ps)
  in
  let union_rels pols =
    List.sort_uniq String.compare (List.concat_map (fun p -> p.Policy.log_rels) pols)
  in
  let time_dependent = List.filter (fun p -> not p.Policy.ti_rewritten) ps in
  let store_rels = union_rels time_dependent in
  let witnesses =
    let per_policy = List.map (Witness.for_policy ~is_log) time_dependent in
    List.map
      (fun rel ->
        ( rel,
          List.fold_left
            (fun acc ws ->
              match List.assoc_opt rel ws with
              | Some w -> Witness.merge acc w
              | None -> acc)
            (Witness.Queries []) per_policy ))
      store_rels
  in
  let witness_bases =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (_, w) ->
           match w with
           | Witness.Keep_all -> []
           | Witness.Queries qs ->
             List.concat_map
               (fun (q : Witness.query) ->
                 List.filter_map
                   (function
                     | Ast.From_table { name; _ } when not (is_log name) ->
                       Some (Analysis.lc name)
                     | Ast.From_table _ | Ast.From_subquery _ -> None)
                   q.Witness.select.Ast.from)
               qs)
         witnesses)
  in
  {
    active = ps;
    inter;
    rest;
    required = union_rels ps;
    store_rels;
    unified_groups;
    relevance =
      Relevance.build cat ~is_log ~clock_rel:Usage_log.clock_relation ps;
    witnesses;
    witness_bases;
  }
