(** Usage-based data pricing (§2).

    The paper observes that DataLawyer's usage log can drive usage-based
    pricing — Factual-style "pay for what you touched" schemes. This
    module computes a bill from the [provenance] and [users] logs: each
    provenance record is one {e tuple use} of an input relation, priced
    per relation.

    Because log compaction deletes tuples no policy needs, a deployment
    that bills from the log must also {e retain} it for the billing
    window. {!retention_policy} produces a policy that can never fire
    (its threshold is astronomically large) but whose absolute witness
    keeps every provenance/users tuple of the window alive — pricing thus
    reuses the enforcement machinery instead of bypassing it. *)

open Relational

type rate = { relation : string; per_use : float }

type line = { relation : string; uses : int; amount : float }

type bill = { uid : int; since : int; until : int; lines : line list; total : float }

(* A never-firing policy whose witness retains the last [window] ticks of
   provenance and users tuples. It counts rows, not distinct values: a
   [COUNT(DISTINCT e)] policy's witness keeps only one binding per value
   of [e] (Witness, distinct-value witnesses), while a [COUNT( * )]
   keeps Lemma 4.1's, every joined row. Register it under any name with
   [Engine.add_policy]. *)
let retention_policy ~(window : int) : string =
  Printf.sprintf
    "SELECT DISTINCT 'retention window' AS errorMessage FROM provenance p, \
     users u, clock c WHERE p.ts = u.ts AND p.ts > c.ts - %d HAVING \
     COUNT(*) > 1000000000"
    window

(* Tuple-use counts per input relation for [uid] in (since, until]. *)
let usage_counts (db : Database.t) ~(uid : int) ~(since : int) ~(until : int) :
    (string * int) list =
  let sql =
    Printf.sprintf
      "SELECT p.irid, COUNT(*) AS uses FROM provenance p, users u WHERE p.ts \
       = u.ts AND u.uid = %d AND p.ts > %d AND p.ts <= %d GROUP BY p.irid"
      uid since until
  in
  List.filter_map
    (function
      | [ Value.Str relation; Value.Int uses ] -> Some (relation, uses)
      | _ -> None)
    (Database.rows db sql)

let bill (db : Database.t) ~(uid : int) ~(since : int) ~(until : int)
    ~(rates : rate list) : bill =
  let counts = usage_counts db ~uid ~since ~until in
  let lines =
    List.filter_map
      (fun { relation; per_use } ->
        match
          List.find_opt (fun (r, _) -> String.lowercase_ascii r = String.lowercase_ascii relation) counts
        with
        | Some (_, uses) when uses > 0 ->
          Some { relation; uses; amount = float_of_int uses *. per_use }
        | _ -> None)
      rates
  in
  {
    uid;
    since;
    until;
    lines;
    total = List.fold_left (fun acc l -> acc +. l.amount) 0. lines;
  }

let pp_bill ppf (b : bill) =
  Format.fprintf ppf "bill for uid %d, ticks (%d, %d]:@." b.uid b.since b.until;
  List.iter
    (fun l ->
      Format.fprintf ppf "  %-16s %6d uses  $%8.4f@." l.relation l.uses l.amount)
    b.lines;
  Format.fprintf ppf "  %-16s %17s $%8.4f" "total" "" b.total
