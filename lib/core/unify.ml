(** Policy unification (§4.2.2).

    Policies that are structurally identical except for literal constants
    (e.g. one rate-limit policy per user, per group, per dataset) are
    consolidated into one {e template} policy that joins a generated
    constants table carrying one column per differing literal position and
    one row per member instance, grouping by the constants — the n-way
    generalization of Example 4.6. Evaluation cost then stays constant in
    the number of unified instances (Fig. 5): 10k instances of one
    template cost one evaluation.

    Policies are grouped by their {e shape} — the masked query carried on
    {!Policy.t.shape}, computed once at registration — so grouping never
    re-discovers templates by printing and string-comparing SQL. A group
    unifies when every differing position sits in a clause of the
    top-level SELECT (the constants alias is only in scope there) and the
    differing values of each position share a type. Differing
    error-message literals are lifted like any other constant, so the
    unified policy projects each member's {e original} message — verdicts
    and messages are identical to unrolled evaluation. *)

open Relational

type group = {
  policy : Policy.t;  (** the unified replacement policy *)
  members : Policy.t list;  (** original policies it subsumes *)
  constants_table : string option;
      (** the generated [dl_constants_<k>] table; [None] when the members
          are exact duplicates and no constants are needed *)
}

type outcome = { policies : Policy.t list; groups : group list }

let constants_alias = "dl_consts"

let const_col j = Printf.sprintf "c%d" j

(* Try to unify one shape-group of policies (already known to share a
   masked shape, hence the same literal-site skeleton). *)
let unify_group (cat : Catalog.t) ~(is_log : string -> bool) ~(index : int)
    (ps : Policy.t list) : group option =
  match ps with
  | [] | [ _ ] -> None
  | first :: _ ->
    let n = List.length ps in
    let sites =
      Array.of_list
        (List.map (fun p -> Array.of_list (Ast.query_literals p.Policy.query)) ps)
    in
    let nsites = Array.length sites.(0) in
    if Array.exists (fun s -> Array.length s <> nsites) sites then None
    else begin
      (* Positions whose values differ across members. *)
      let differing = ref [] in
      for i = nsites - 1 downto 0 do
        let v0 = sites.(0).(i).Ast.value in
        let d = ref false in
        for j = 1 to n - 1 do
          if not (Value.equal v0 sites.(j).(i).Ast.value) then d := true
        done;
        if !d then differing := i :: !differing
      done;
      match !differing with
      | [] ->
        (* Exact duplicates: the first member subsumes the whole group. *)
        Some
          {
            policy = { first with Policy.name = Printf.sprintf "unified_%d" index };
            members = ps;
            constants_table = None;
          }
      | positions -> (
        (* The constants columns are only in scope in the top-level
           SELECT's own clauses: a differing literal buried in a FROM
           subquery or UNION branch cannot reference them. *)
        let in_scope i =
          match sites.(0).(i).Ast.clause with
          | Ast.Clause_from _ | Ast.Clause_union -> false
          | _ -> true
        in
        (* The shared value type of position [i], if any. *)
        let column_type i =
          match Value.type_of sites.(0).(i).Ast.value with
          | None -> None
          | Some ty ->
            let ok = ref true in
            for j = 1 to n - 1 do
              if Value.type_of sites.(j).(i).Ast.value <> Some ty then ok := false
            done;
            if !ok then Some ty else None
        in
        let types =
          if List.for_all in_scope positions then
            List.fold_right
              (fun i acc ->
                match (acc, column_type i) with
                | Some tys, Some ty -> Some (ty :: tys)
                | _ -> None)
              positions (Some [])
          else None
        in
        match (types, first.Policy.query) with
        | None, _ | _, Ast.Union _ -> None
        | Some tys, Ast.Select _ ->
          (* Create (or refresh) the constants table: one typed column per
             differing position, one row per distinct member constant
             vector. *)
          let table_name = Printf.sprintf "dl_constants_%d" index in
          if Catalog.mem cat table_name then Catalog.drop cat table_name;
          let schema = Schema.make (List.mapi (fun j ty -> (const_col j, ty)) tys) in
          let table = Catalog.create_table cat ~name:table_name ~schema in
          List.iter
            (fun row -> ignore (Table.insert table row))
            (Value.Key.dedup Fun.id
               (List.map
                  (fun s ->
                    Array.of_list
                      (List.map (fun i -> (s.(i) : Ast.lit_site).Ast.value) positions))
                  (Array.to_list sites)));
          (* Rewrite the template query: each differing literal becomes a
             reference to its constants column. Message literals are
             lifted like any other constant, so firing rows project the
             original member messages. *)
          let q =
            List.fold_left
              (fun q (j, i) ->
                Ast.query_map_literal q ~path:sites.(0).(i).Ast.path ~f:(fun _ ->
                    Ast.Col (Some constants_alias, const_col j)))
              first.Policy.query
              (List.mapi (fun j i -> (j, i)) positions)
          in
          let const_refs =
            List.mapi (fun j _ -> Ast.Col (Some constants_alias, const_col j)) positions
          in
          let q =
            match q with
            | Ast.Select s ->
              let has_agg =
                s.having <> None
                || List.exists
                     (function
                       | Ast.Sel_expr (e, _) -> Ast.expr_has_agg e
                       | _ -> false)
                     s.items
              in
              Ast.Select
                {
                  s with
                  from =
                    s.from
                    @ [
                        Ast.From_table
                          { name = table_name; alias = Some constants_alias };
                      ];
                  (* Grouping by the constants gives one group per member
                     instance — the n-way Example 4.6. *)
                  group_by =
                    (if has_agg then s.group_by @ const_refs else s.group_by);
                }
            | q -> q
          in
          let policy =
            {
              (Policy.with_query ~is_log first q) with
              Policy.name = Printf.sprintf "unified_%d" index;
            }
          in
          Some { policy; members = ps; constants_table = Some table_name })
    end

(* Run unification over a policy set. Policies that do not unify are
   returned unchanged. *)
let run (cat : Catalog.t) ~(is_log : string -> bool) (policies : Policy.t list) :
    outcome =
  let by_shape : (Ast.query, Policy.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun p ->
      let key = p.Policy.shape in
      match Hashtbl.find_opt by_shape key with
      | Some cell -> cell := p :: !cell
      | None ->
        Hashtbl.add by_shape key (ref [ p ]);
        order := key :: !order)
    policies;
  let counter = ref 0 in
  let groups = ref [] in
  let out = ref [] in
  List.iter
    (fun key ->
      let members = List.rev !(Hashtbl.find by_shape key) in
      let idx = !counter in
      incr counter;
      match unify_group cat ~is_log ~index:idx members with
      | Some g ->
        groups := g :: !groups;
        out := g.policy :: !out
      | None -> out := List.rev_append (List.rev members) !out)
    (List.rev !order);
  { policies = List.rev !out; groups = List.rev !groups }
