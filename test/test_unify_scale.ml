(* Deterministic pins for the scale machinery: n-way template
   unification (one shape, many lifted constants), the policy relevance
   index and shared-subplan admission. Each pin checks the machinery
   actually engages — groups form, skips happen, skipped policies fire
   again after the exact mutations that invalidate their proofs, shared
   scans hit — since the differential oracle (test_oracle.ml), which
   checks these layers change no verdict, would pass if everything
   silently fell back. *)

open Relational
open Datalawyer

let tc = Test_support.tc

(* Everything pinned explicitly — [domains] is not inherited from
   DL_DOMAINS — so the cases assert under any environment. TI is off
   so the skip pins exercise the based path (valid proved-empty base +
   blocked slots); the TI-pinned baseless path has its own pin below. *)
let scale_cfg =
  {
    Engine.default_config with
    Engine.domains = 1;
    time_independent = false;
    delta = true;
    unification = true;
    relevance = true;
    shared_scans = true;
  }

let make_engine ?(config = scale_cfg) () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'); \
        CREATE TABLE banned (uid INT); INSERT INTO banned VALUES (9)");
  (db, Engine.create ~config db)

let test_unification_groups_form () =
  let _, engine = make_engine () in
  List.iter
    (fun (name, sql) -> ignore (Engine.add_policy engine ~name sql))
    (Templates.per_user ~name_prefix:"noacc" ~uids:(List.init 50 (fun i -> i + 1))
       (fun ~subject -> Templates.no_access ~relation:"data" ~subject ()));
  let counter = Test_support.counter engine in
  Alcotest.(check int) "registered" 50 (counter "unify-registered");
  Alcotest.(check int) "one group" 1 (counter "unify-groups");
  Alcotest.(check int) "all members absorbed" 50 (counter "unify-members");
  Alcotest.(check int) "one active policy" 1 (counter "unify-active");
  (match Engine.submit engine ~uid:7 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "member message" "data is off-limits" m
  | _ -> Alcotest.fail "uid 7 must be rejected");
  match Engine.submit engine ~uid:60 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 60 is not a member"

let test_unified_member_message () =
  (* the lifted message column must surface exactly the firing member's
     message, not the template's *)
  let _, engine = make_engine () in
  List.iteri
    (fun i uid ->
      ignore
        (Engine.add_policy engine ~name:(Printf.sprintf "m%d" i)
           (Test_oracle.per_uid uid)))
    [ 1; 2; 3 ];
  match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "uid 2's message" "uid 2 off data" m
  | _ -> Alcotest.fail "uid 2 must be rejected"

let test_relevance_skips_unrelated_uid () =
  let _, engine = make_engine () in
  List.iteri
    (fun i uid ->
      ignore
        (Engine.add_policy engine ~name:(Printf.sprintf "m%d" i)
           (Test_oracle.per_uid uid)))
    [ 2; 3; 4 ];
  (* first accepted submission establishes the base... *)
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  let before = (Engine.relevance_stats engine).Engine.rel_skips in
  (* ...then uid 1's increment binds no slot of the unified uid∈{2,3,4}
     policy: it must be skipped without evaluation *)
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must still pass");
  let after = (Engine.relevance_stats engine).Engine.rel_skips in
  Alcotest.(check bool) "the policy was skipped" true (after > before);
  (* a member uid's increment matches the enumerated filter: no skip,
     the policy fires with the right member message *)
  match Engine.submit engine ~uid:3 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "uid 3's message" "uid 3 off data" m
  | _ -> Alcotest.fail "uid 3 must be rejected"

let test_relevance_skips_time_independent () =
  (* Under TI rewriting (the default config) the policy is pinned to the
     current clock tick, so the index needs no base at all: even the
     very first admission skips, and the clock dependency bumping every
     tick doesn't disable the index. *)
  let _, engine =
    make_engine ~config:{ scale_cfg with Engine.time_independent = true } ()
  in
  List.iteri
    (fun i uid ->
      ignore
        (Engine.add_policy engine ~name:(Printf.sprintf "m%d" i)
           (Test_oracle.per_uid uid)))
    [ 2; 3; 4 ];
  (match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Accepted _ -> ()
  | Engine.Rejected _ -> Alcotest.fail "uid 1 must pass");
  let r = Engine.relevance_stats engine in
  Alcotest.(check bool) "skipped without a base" true (r.Engine.rel_skips > 0);
  match Engine.submit engine ~uid:3 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "uid 3's message" "uid 3 off data" m
  | _ -> Alcotest.fail "uid 3 must be rejected"

(* Run for both operand orders of the ban-list join: the index filters
   the [users] slot either way. *)
let test_relevance_refires_after_mutation () =
  List.iter
    (fun policy ->
      let db, engine = make_engine () in
      ignore (Engine.add_policy engine ~name:"banned" policy);
      ignore (Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1");
      let before = (Engine.relevance_stats engine).Engine.rel_skips in
      ignore (Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1");
      let after = (Engine.relevance_stats engine).Engine.rel_skips in
      Alcotest.(check bool) "uid 2 skipped while not banned" true (after > before);
      (* the mutation bumps [banned]'s version: the enumeration guard and
         the base both go stale, and the policy must fire *)
      ignore
        (Dml.exec (Database.catalog db) (Parser.stmt "INSERT INTO banned VALUES (2)"));
      match Engine.submit engine ~uid:2 "SELECT v FROM data WHERE k = 1" with
      | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "message" "banned uid" m
      | _ -> Alcotest.fail "uid 2 must be rejected after the banned insert")
    [
      Test_oracle.template "banned";
      "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE b.uid = u.uid";
    ]

let test_relevance_refires_after_policy_change () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"first" (Test_oracle.per_uid 9));
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  (* registering uid 1's prohibition bumps the plan generation: the old
     proofs are dead and the new policy must catch uid 1's NEXT
     submission (its own registration point is its history start) *)
  ignore (Engine.add_policy engine ~name:"second" (Test_oracle.per_uid 1));
  match Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" with
  | Engine.Rejected ([ m ], _) ->
    Alcotest.(check string) "message" "uid 1 off data" m
  | _ -> Alcotest.fail "uid 1 must be rejected after registration"

(* A window policy (the shape of Table 2's P5) reads the clock without
   TI rewriting. The clock moves at every submission, so no accept
   proof ever covers it: it is not index-eligible, costs no relevance
   check, and still fires. *)
let test_relevance_window_policy_ineligible () =
  let _, engine = make_engine () in
  ignore (Engine.add_policy engine ~name:"window" (Test_oracle.template "quota1"));
  let submit () = Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1" in
  for _ = 1 to 2 do
    match submit () with
    | Engine.Accepted _ -> ()
    | Engine.Rejected _ -> Alcotest.fail "two uid-1 submissions must pass"
  done;
  (match submit () with
  | Engine.Rejected ([ m ], _) -> Alcotest.(check string) "message" "quota uid 1" m
  | _ -> Alcotest.fail "the third uid-1 submission must be rejected");
  let r = Engine.relevance_stats engine in
  Alcotest.(check int) "indexed" 1 r.Engine.rel_indexed;
  Alcotest.(check int) "not eligible" 0 r.Engine.rel_eligible;
  Alcotest.(check int) "never checked" 0 r.Engine.rel_checks

let test_relevance_off_counts_nothing () =
  let _, engine =
    make_engine ~config:{ scale_cfg with Engine.relevance = false } ()
  in
  ignore (Engine.add_policy engine ~name:"m" (Test_oracle.per_uid 2));
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
  let r = Engine.relevance_stats engine in
  Alcotest.(check int) "no checks when off" 0 r.Engine.rel_checks;
  Alcotest.(check int) "no skips when off" 0 r.Engine.rel_skips

let test_shared_scans_hit () =
  (* two different-shape policies (no unification) both scan [users]
     with no pushed-down predicates: within one admission the second
     plan must reuse the first's materialization *)
  let shared ~improved_partial =
    let _, engine =
      make_engine
        ~config:{ scale_cfg with Engine.delta = false; improved_partial }
        ()
    in
    ignore
      (Engine.add_policy engine ~name:"a"
         "SELECT DISTINCT 'a' FROM users u, schema s WHERE u.ts = s.ts AND \
          s.irid = 'never'");
    ignore
      (Engine.add_policy engine ~name:"b"
         "SELECT DISTINCT 'b' FROM users u, provenance p WHERE u.ts = p.ts AND \
          p.irid = 'never'");
    ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
    ignore (Engine.submit engine ~uid:1 "SELECT v FROM data WHERE k = 1");
    Test_support.(counter engine "shared-scan-hits", counter engine "shared-scan-misses")
  in
  (* Exact counts on this fixed script pin which plans share. Both
     policies are Boolean (DISTINCT), so their witnesses are Lemma 4.2's
     and every commit marks in full: four tracked witness queries, one
     each for provenance and schema (provenance ⋈ users, schema ⋈ users)
     and two for users (users ⋈ schema, users ⋈ provenance), eight scan
     reads in all, of users and of the filtered schema and provenance
     scans. Every admission appended to all three, so a read is a hit
     only within one commit.

     With improved partial policies every check here is decided by
     increment probes, which run through clock-eliminated plans: their
     [ts] pin reads the clock at execution time, so they never share.
     Each commit's mark misses once per relation (provenance, users,
     schema) and hits on the other five reads: (5, 3) per admission. *)
  Alcotest.(check (pair int int)) "improved partial: hits, misses" (10, 6)
    (shared ~improved_partial:true);
  (* Without them each check runs its partial policy unpinned, and a
     policy is checked only at a stage that generated one of its own
     relations. The first admission reads users for both users-only
     partials (miss, hit), for a over users + schema at the schema stage
     (hit, miss) and for b over users + provenance at the provenance
     stage (hit, miss); b is not re-checked at the schema stage. Its
     commit reads the same three relations at the same versions, so all
     eight mark reads hit: (11, 3). The second, with relevance bases in
     place, runs the two users-only partials (miss, hit); its commit
     finds users cached and misses on provenance and schema, which the
     checks did not read: (7, 3). *)
  Alcotest.(check (pair int int)) "plain partial: hits, misses" (18, 6)
    (shared ~improved_partial:false)

(* The two policies of bench/e2e's [server-spj] over a ban list of [n]
   rows (multiples of 50), one engine as the server runs it but serial.
   Returns the shared-scan misses, the rows batches read
   ([Compile_batch.batch_rows]) and the rows joins hashed
   ([Compile_batch.join_build_rows]) that 20 admissions add after one
   warm-up, then the same for one admission by a uid inserted into the
   list just before it, and that admission's verdict. *)
let ban_list_counts n =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE data (k INT, v TEXT); INSERT INTO data VALUES (1, 'a'); \
        CREATE TABLE banned (uid INT)");
  let banned = Database.table db "banned" in
  for i = 1 to n do
    ignore (Table.insert banned [| Value.Int (50 * i) |])
  done;
  let engine =
    Engine.create
      ~config:{ Engine.default_config with Engine.time_independent = false; domains = 1 }
      db
  in
  ignore
    (Engine.add_policy engine ~name:"banned"
       "SELECT DISTINCT 'banned uid' FROM users u, banned b WHERE u.uid = b.uid");
  ignore
    (Engine.add_policy engine ~name:"prov"
       "SELECT DISTINCT 'provenance touch' FROM provenance p, banned b WHERE p.irid = \
        'data' AND p.itid = b.uid");
  let submit uid = Engine.submit engine ~uid "SELECT v FROM data WHERE k = 1" in
  let snapshot () =
    ( Test_support.counter engine "shared-scan-misses",
      Atomic.get Compile_batch.batch_rows,
      Atomic.get Compile_batch.join_build_rows )
  in
  let since (m0, r0, h0) =
    let m, r, h = snapshot () in
    (m - m0, r - r0, h - h0)
  in
  ignore (submit 1);
  let s0 = snapshot () in
  for uid = 2 to 21 do
    match submit uid with
    | Engine.Accepted _ -> ()
    | Engine.Rejected _ -> Alcotest.failf "uid %d is not banned" uid
  done;
  let steady = since s0 in
  ignore (Database.exec db "INSERT INTO banned VALUES (22)");
  let s1 = snapshot () in
  let verdict = submit 22 in
  let rebuilt = since s1 in
  Engine.close engine;
  (steady, rebuilt, verdict)

let test_ban_list_scale_counted () =
  (* A join over an unchanged base relation costs the increment, not the
     relation: with the ban list cached as the build side of every policy
     and witness join, 20 admissions miss the cache as often, read as
     many rows and hash as many over 20 000 banned rows as over 2 000. *)
  let steady_small, rebuilt_small, verdict_small = ban_list_counts 2_000 in
  let steady_large, rebuilt_large, verdict_large = ban_list_counts 20_000 in
  Alcotest.(check (triple int int int))
    "20 admissions: misses, rows read, rows hashed at 2 000 = at 20 000" steady_small
    steady_large;
  List.iter
    (function
      | Engine.Rejected ([ "banned uid" ], _) -> ()
      | _ -> Alcotest.fail "a uid inserted into the ban list must be rejected")
    [ verdict_small; verdict_large ];
  (* The INSERT moved the list's [ver_mut], so the next admission
     rebuilds its entry. Misses are size-blind, and the rows read and
     hashed each differ by exactly one pass over the larger list
     (20 001 - 2 001 rows): the list is rescanned and rehashed once, not
     once per plan that joins it. Both policies and their witnesses
     build on [b.uid], so they share one table. *)
  let m_small, r_small, h_small = rebuilt_small
  and m_large, r_large, h_large = rebuilt_large in
  Alcotest.(check int) "after the INSERT: misses at 2 000 = at 20 000" m_small m_large;
  Alcotest.(check (pair int int)) "after the INSERT: one rescan, one rehash" (18_000, 18_000)
    (r_large - r_small, h_large - h_small)

let test_batch_everything_on () =
  (* batched admission (submit_batch), the domain pool, delta,
     unification, relevance and shared scans composed: verdicts must
     match the one-at-a-time semantics *)
  let _, engine =
    make_engine ~config:{ scale_cfg with Engine.domains = 3 } ()
  in
  List.iteri
    (fun i uid ->
      ignore
        (Engine.add_policy engine ~name:(Printf.sprintf "m%d" i)
           (Test_oracle.per_uid uid)))
    [ 2; 3 ];
  let subs =
    List.map
      (fun uid ->
        {
          Engine.batch_uid = uid;
          batch_extra = [];
          batch_query = Parser.query "SELECT v FROM data WHERE k = 1";
        })
      [ 1; 2; 1 ]
  in
  (match Engine.submit_batch engine subs with
  | [ Ok (Engine.Accepted _); Ok (Engine.Rejected ([ m ], _)); Ok (Engine.Accepted _) ]
    -> Alcotest.(check string) "uid 2's message" "uid 2 off data" m
  | _ -> Alcotest.fail "batch must be accept/reject/accept");
  Engine.close engine

let suite =
  [
    tc "per-user instances unify into one group" test_unification_groups_form;
    tc "unified policy reports the firing member's message"
      test_unified_member_message;
    tc "relevance index skips the policy an unrelated uid cannot fire"
      test_relevance_skips_unrelated_uid;
    tc "TI-pinned policies skip without a base"
      test_relevance_skips_time_independent;
    tc "skipped policy fires again after a plain-table mutation"
      test_relevance_refires_after_mutation;
    tc "skipped policy fires again after a policy-set change"
      test_relevance_refires_after_policy_change;
    tc "relevance off checks and skips nothing" test_relevance_off_counts_nothing;
    tc "a clock-reading policy without TI rewriting is not index-eligible"
      test_relevance_window_policy_ineligible;
    tc "shared subplans are materialized once per admission"
      test_shared_scans_hit;
    tc "a ban list 10x larger adds no misses and no rows read per admission"
      test_ban_list_scale_counted;
    tc "batched admission composes with the full scale stack"
      test_batch_everything_on;
  ]
