(** Policy templates (§6).

    The paper's survey found real-world terms of use to be highly
    structured, and names templates as the way to reduce the cost of
    translating legal text into policies: "it may be possible to come up
    with templates (domain specific, if required) that can be later
    tweaked". This module provides constructors for every restriction
    type of Table 1; each returns the policy SQL, ready for
    {!Engine.add_policy}.

    Templates compose with unification (§4.2.2) by design: instantiating
    a template for many subjects yields policies identical up to one
    constant, which the engine collapses into a single unified policy. *)

let sql_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

(* Restrict the subject of a template: everyone, one user, or one group
   (groups resolve through a (uid, gid) membership relation). *)
type subject = Everyone | User of int | Group of { table : string; gid : string }

let subject_join ~users_alias = function
  | Everyone -> ("", "")
  | User uid -> ("", Printf.sprintf " AND %s.uid = %d" users_alias uid)
  | Group { table; gid } ->
    ( Printf.sprintf ", %s dl_g" table,
      Printf.sprintf " AND %s.uid = dl_g.uid AND dl_g.gid = %s" users_alias
        (sql_string gid) )

(* Table 1, P1 (Navteq): prohibit combining [relation] with any other
   relation in one query. *)
let no_overlay ~(relation : string) ?(message : string option) () : string =
  let message =
    Option.value message
      ~default:(Printf.sprintf "%s may not be combined with other datasets" relation)
  in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM schema s1, schema s2 WHERE s1.ts \
     = s2.ts AND s1.irid = %s AND s2.irid != %s"
    (sql_string message) (sql_string relation) (sql_string relation)

(* Variant with an allow-list, as in Table 2's P2 (poe_order may join
   poe_med only). *)
let no_overlay_except ~(relation : string) ~(allowed : string list)
    ?(subject = Everyone) ?(message : string option) () : string =
  let message =
    Option.value message
      ~default:
        (Printf.sprintf "%s may only be combined with: %s" relation
           (String.concat ", " allowed))
  in
  let extra_from, extra_where = subject_join ~users_alias:"u" subject in
  let allow_clauses =
    String.concat ""
      (List.map
         (fun rel -> Printf.sprintf " AND s2.irid != %s" (sql_string rel))
         (relation :: allowed))
  in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM schema s1, schema s2, users u%s \
     WHERE s1.ts = s2.ts AND s2.ts = u.ts AND s1.irid = %s%s%s"
    (sql_string message) extra_from (sql_string relation) allow_clauses
    extra_where

(* Table 1, P4 (Twitter/Foursquare): at most [max_calls] queries per user
   within [window] ticks. *)
let rate_limit ~(max_calls : int) ~(window : int) ?(subject = Everyone)
    ?(message : string option) () : string =
  let message =
    Option.value message
      ~default:
        (Printf.sprintf "rate limit exceeded: more than %d calls in %d ticks"
           max_calls window)
  in
  let extra_from, extra_where = subject_join ~users_alias:"u" subject in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM users u, clock c%s WHERE u.ts > \
     c.ts - %d%s GROUP BY u.uid HAVING COUNT(DISTINCT u.ts) > %d"
    (sql_string message) extra_from window extra_where max_calls

(* Table 1, P3 (MS Translator): total result volume derived from
   [relation] over a window, per user. Volume is counted in result tuples
   (the substrate has no char counts). *)
let volume_quota ~(relation : string) ~(max_tuples : int) ~(window : int)
    ?(subject = Everyone) ?(message : string option) () : string =
  let message =
    Option.value message
      ~default:
        (Printf.sprintf "free tier exceeded: more than %d result tuples from \
                         %s in %d ticks" max_tuples relation window)
  in
  let extra_from, extra_where = subject_join ~users_alias:"u" subject in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM provenance p, users u, clock \
     c%s WHERE p.ts = u.ts AND p.irid = %s AND u.ts > c.ts - %d%s GROUP BY \
     u.uid HAVING COUNT(DISTINCT p.ts * 1000000 + p.otid) > %d"
    (sql_string message) extra_from (sql_string relation) window extra_where
    max_tuples

(* Table 1, P5 / Example 3.1 (MIMIC): k-anonymity-style output check — no
   answer tuple may be contributed to by fewer than [k] distinct tuples of
   [relation]. *)
let k_anonymity ~(relation : string) ~(k : int) ?(message : string option) () :
    string =
  let message =
    Option.value message
      ~default:
        (Printf.sprintf "fewer than %d %s tuples contribute to an answer" k
           relation)
  in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM provenance p WHERE p.irid = %s \
     GROUP BY p.ts, p.otid HAVING COUNT(DISTINCT p.itid) < %d"
    (sql_string message) (sql_string relation) k

(* Table 1, P7 (Yelp): joins and unions are fine, aggregation of
   [column] of [relation] is prohibited. *)
let no_aggregation ~(relation : string) ?(column : string option)
    ?(message : string option) () : string =
  let message =
    Option.value message
      ~default:(Printf.sprintf "aggregating %s is prohibited" relation)
  in
  let column_clause =
    match column with
    | None -> ""
    | Some c -> Printf.sprintf " AND s.icid = %s" (sql_string c)
  in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM schema s WHERE s.irid = %s%s \
     AND s.agg = TRUE"
    (sql_string message) (sql_string relation) column_clause

(* Table 1, P2 (Kindle group licenses): at most [max_users] distinct users
   of [subject] may touch [relation] within [window] ticks (Example
   3.2's P2b). *)
let group_license ~(relation : string) ~(max_users : int) ~(window : int)
    ?(subject = Everyone) ?(message : string option) () : string =
  let message =
    Option.value message
      ~default:
        (Printf.sprintf "more than %d distinct users accessed %s within %d \
                         ticks" max_users relation window)
  in
  let extra_from, extra_where = subject_join ~users_alias:"u" subject in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM users u, schema s, clock c%s \
     WHERE u.ts = s.ts AND s.irid = %s AND u.ts > c.ts - %d%s HAVING \
     COUNT(DISTINCT u.uid) > %d"
    (sql_string message) extra_from (sql_string relation) window extra_where
    max_users

(* Access prohibition: [subject] may not touch [relation] at all. *)
let no_access ~(relation : string) ?(subject = Everyone)
    ?(message : string option) () : string =
  let message =
    Option.value message ~default:(Printf.sprintf "%s is off-limits" relation)
  in
  let extra_from, extra_where = subject_join ~users_alias:"u" subject in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM users u, schema s%s WHERE u.ts \
     = s.ts AND s.irid = %s%s"
    (sql_string message) extra_from (sql_string relation) extra_where

(* Per-tuple reuse cap, Table 2's P6: the same input tuple of [relation]
   may be used at most [max_uses] times within [window] ticks. *)
let reuse_cap ~(relation : string) ~(max_uses : int) ~(window : int)
    ?(subject = Everyone) ?(message : string option) () : string =
  let message =
    Option.value message
      ~default:
        (Printf.sprintf "a %s tuple was used more than %d times within %d \
                         ticks" relation max_uses window)
  in
  let extra_from, extra_where = subject_join ~users_alias:"u" subject in
  Printf.sprintf
    "SELECT DISTINCT %s AS errorMessage FROM provenance p, users u, clock \
     c%s WHERE p.ts = u.ts AND p.irid = %s AND p.ts > c.ts - %d%s GROUP BY \
     p.itid HAVING COUNT(DISTINCT p.ts * 1000000 + p.otid) > %d"
    (sql_string message) extra_from (sql_string relation) window extra_where
    max_uses

(* Families ---------------------------------------------------------------- *)

(* Instantiating one constructor across many subjects yields policies
   that differ only in literal constants — a single shape, which
   registration stamps on each policy ({!Policy.t.shape}) and unification
   collapses into one template + constants-table policy. [per_user]
   produces [(name, sql)] pairs ready for {!Engine.add_policy}; it is
   what the scale bench uses to instantiate 10k+ policy sets. *)

let per_user ~(name_prefix : string) ~(uids : int list)
    (make : subject:subject -> string) : (string * string) list =
  List.map
    (fun uid -> (Printf.sprintf "%s_u%d" name_prefix uid, make ~subject:(User uid)))
    uids
