(* The §6 extensibility scenarios: new log-generating functions (device
   log, system-load log), policy templates, and usage-based pricing. *)

open Relational
open Datalawyer
open Test_support

let accepted = function Engine.Accepted _ -> true | Engine.Rejected _ -> false

(* §6 example 1: restrict queries from 'mobile' devices to small outputs.
   Requires a custom log relation populated from the connection context. *)
let test_device_log_policy () =
  let db = sample_db () in
  let devices =
    Usage_log.custom ~relation:"devices"
      ~columns:[ ("device", Ty.Text) ]
      ~rank:0
      ~generate:(fun c ->
        match List.assoc_opt "device" c.Usage_log.extra with
        | Some v -> [ [| v |] ]
        | None -> [ [| Value.Str "desktop" |] ])
  in
  let e = Engine.create ~generators:(devices :: Usage_log.standard) db in
  ignore
    (Engine.add_policy e ~name:"mobile_cap"
       "SELECT DISTINCT 'mobile queries are limited to 2 output tuples' \
        FROM devices d, provenance p WHERE d.ts = p.ts AND d.device = \
        'mobile' GROUP BY p.ts HAVING COUNT(DISTINCT p.otid) > 2");
  let big = "SELECT name FROM emp" in
  Alcotest.(check bool) "desktop unrestricted" true
    (accepted (Engine.submit e ~uid:1 big));
  Alcotest.(check bool) "mobile big query rejected" false
    (accepted (Engine.submit e ~uid:1 ~extra:[ ("device", s "mobile") ] big));
  Alcotest.(check bool) "mobile small query fine" true
    (accepted
       (Engine.submit e ~uid:1
          ~extra:[ ("device", s "mobile") ]
          "SELECT name FROM emp WHERE id = 1"))

(* §6 example 2: load-sensitive rate limit — "no user should be able to
   issue more than 50 requests per hour when the system load exceeds 80%". *)
let test_system_load_policy () =
  let db = sample_db () in
  let load = ref 10 in
  let sysload =
    Usage_log.custom ~relation:"sysload"
      ~columns:[ ("loadpct", Ty.Int) ]
      ~rank:0
      ~generate:(fun _ -> [ [| Value.Int !load |] ])
  in
  let e = Engine.create ~generators:(sysload :: Usage_log.standard) db in
  ignore
    (Engine.add_policy e ~name:"load_limit"
       "SELECT DISTINCT 'load shedding: limit is 2 requests in 10 ticks \
        under load > 80' FROM users u, sysload l, clock c WHERE u.ts = l.ts \
        AND l.loadpct > 80 AND u.ts > c.ts - 10 GROUP BY u.uid HAVING \
        COUNT(DISTINCT u.ts) > 2");
  let q = "SELECT name FROM emp WHERE id = 1" in
  for _ = 1 to 5 do
    Alcotest.(check bool) "low load unrestricted" true
      (accepted (Engine.submit e ~uid:1 q))
  done;
  load := 95;
  Alcotest.(check bool) "1st high-load call ok" true (accepted (Engine.submit e ~uid:1 q));
  Alcotest.(check bool) "2nd high-load call ok" true (accepted (Engine.submit e ~uid:1 q));
  Alcotest.(check bool) "3rd high-load call shed" false
    (accepted (Engine.submit e ~uid:1 q))

(* Templates instantiate into policies with the expected classification
   and behaviour. *)
let test_template_no_overlay () =
  let db = sample_db () in
  let e = Engine.create db in
  let p =
    Engine.add_policy e ~name:"t1" (Templates.no_overlay ~relation:"emp" ())
  in
  Alcotest.(check bool) "TI" true p.Policy.time_independent;
  Alcotest.(check bool) "emp alone ok" true
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp"));
  Alcotest.(check bool) "emp joined rejected" false
    (accepted
       (Engine.submit e ~uid:1
          "SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname"))

let test_template_rate_limit () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"t2"
       (Templates.rate_limit ~max_calls:2 ~window:5 ~subject:(Templates.User 9) ()));
  let q = "SELECT name FROM emp WHERE id = 1" in
  Alcotest.(check bool) "call 1" true (accepted (Engine.submit e ~uid:9 q));
  Alcotest.(check bool) "call 2" true (accepted (Engine.submit e ~uid:9 q));
  Alcotest.(check bool) "call 3 limited" false (accepted (Engine.submit e ~uid:9 q));
  Alcotest.(check bool) "other user free" true (accepted (Engine.submit e ~uid:3 q))

let test_template_k_anonymity () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"t3" (Templates.k_anonymity ~relation:"emp" ~k:3 ()));
  Alcotest.(check bool) "coarse ok" true
    (accepted (Engine.submit e ~uid:1 "SELECT COUNT(*) FROM emp"));
  Alcotest.(check bool) "singling out rejected" false
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp WHERE id = 1"))

let test_template_no_aggregation () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"t4"
       (Templates.no_aggregation ~relation:"emp" ~column:"salary" ()));
  Alcotest.(check bool) "join fine" true
    (accepted
       (Engine.submit e ~uid:1
          "SELECT e.salary, d.budget FROM emp e, dept d WHERE e.dept = d.dname"));
  Alcotest.(check bool) "aggregate rejected" false
    (accepted (Engine.submit e ~uid:1 "SELECT SUM(salary) FROM emp"));
  Alcotest.(check bool) "aggregating other columns fine" true
    (accepted (Engine.submit e ~uid:1 "SELECT COUNT(id) FROM emp"))

let test_template_group_license () =
  let db = sample_db () in
  ignore
    (Database.exec_script db
       "CREATE TABLE members (uid INT, gid TEXT); \
        INSERT INTO members VALUES (1, 'trial'), (2, 'trial'), (3, 'trial')");
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"t5"
       (Templates.group_license ~relation:"emp" ~max_users:2 ~window:10
          ~subject:(Templates.Group { table = "members"; gid = "trial" })
          ()));
  let q = "SELECT name FROM emp WHERE id = 1" in
  Alcotest.(check bool) "member 1" true (accepted (Engine.submit e ~uid:1 q));
  Alcotest.(check bool) "member 2" true (accepted (Engine.submit e ~uid:2 q));
  Alcotest.(check bool) "member 3 over license" false
    (accepted (Engine.submit e ~uid:3 q));
  Alcotest.(check bool) "non-member unaffected" true
    (accepted (Engine.submit e ~uid:99 q))

let test_template_volume_quota () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"tq"
       (Templates.volume_quota ~relation:"emp" ~max_tuples:6 ~window:20 ()));
  (* each full scan derives 5 result tuples from emp *)
  Alcotest.(check bool) "first scan ok (5 tuples)" true
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp"));
  Alcotest.(check bool) "second scan trips the quota (10 > 6)" false
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp"));
  Alcotest.(check bool) "another user has their own quota" true
    (accepted (Engine.submit e ~uid:2 "SELECT name FROM emp"))

let test_template_no_access () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"na"
       (Templates.no_access ~relation:"dept" ~subject:(Templates.User 6) ()));
  Alcotest.(check bool) "subject blocked" false
    (accepted (Engine.submit e ~uid:6 "SELECT dname FROM dept"));
  Alcotest.(check bool) "subject can use other tables" true
    (accepted (Engine.submit e ~uid:6 "SELECT name FROM emp"));
  Alcotest.(check bool) "others unaffected" true
    (accepted (Engine.submit e ~uid:7 "SELECT dname FROM dept"))

let test_template_reuse_cap () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"rc"
       (Templates.reuse_cap ~relation:"emp" ~max_uses:2 ~window:30 ()));
  let point = "SELECT name FROM emp WHERE id = 1" in
  Alcotest.(check bool) "use 1" true (accepted (Engine.submit e ~uid:1 point));
  Alcotest.(check bool) "use 2" true (accepted (Engine.submit e ~uid:1 point));
  Alcotest.(check bool) "use 3 capped" false (accepted (Engine.submit e ~uid:1 point));
  Alcotest.(check bool) "other tuples unaffected" true
    (accepted (Engine.submit e ~uid:1 "SELECT name FROM emp WHERE id = 2"))

let test_template_no_overlay_except () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"noe"
       (Templates.no_overlay_except ~relation:"emp" ~allowed:[ "dept" ] ()));
  Alcotest.(check bool) "allowed join fine" true
    (accepted
       (Engine.submit e ~uid:1
          "SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.dname"));
  ignore (Database.exec db "CREATE TABLE other (x INT)");
  ignore (Database.exec db "INSERT INTO other VALUES (1)");
  Alcotest.(check bool) "disallowed join rejected" false
    (accepted (Engine.submit e ~uid:1 "SELECT e.name FROM emp e, other o"))

(* Templates unify: many instantiations of the same template collapse. *)
let test_templates_unify () =
  let db = sample_db () in
  ignore
    (Database.exec_script db
       "CREATE TABLE members (uid INT, gid TEXT); INSERT INTO members VALUES (1, 'g0')");
  (* pinned on: the case tests unification itself *)
  let e =
    Engine.create
      ~config:{ Engine.default_config with Engine.unification = true }
      db
  in
  for k = 0 to 9 do
    ignore
      (Engine.add_policy e
         ~name:(Printf.sprintf "lic%d" k)
         (Templates.group_license ~relation:"emp" ~max_users:3 ~window:10
            ~subject:(Templates.Group { table = "members"; gid = Printf.sprintf "g%d" k })
            ~message:"group license exceeded" ()))
  done;
  let pl = Engine.plan e in
  Alcotest.(check int) "ten policies collapse to one" 1
    (List.length pl.Engine.active)

let test_pricing_bill () =
  let db = sample_db () in
  let e = Engine.create db in
  ignore
    (Engine.add_policy e ~name:"retain" (Pricing.retention_policy ~window:50));
  ignore (Engine.submit e ~uid:4 "SELECT name FROM emp");
  (* 5 emp uses *)
  ignore (Engine.submit e ~uid:4 "SELECT dname FROM dept WHERE budget > 600");
  (* 2 dept uses *)
  ignore (Engine.submit e ~uid:8 "SELECT name FROM emp WHERE id = 1");
  let rates =
    [
      { Pricing.relation = "emp"; per_use = 0.5 };
      { Pricing.relation = "dept"; per_use = 2.0 };
    ]
  in
  let now = Usage_log.current_time db in
  let b4 = Pricing.bill db ~uid:4 ~since:0 ~until:now ~rates in
  Alcotest.(check (float 1e-9)) "uid 4 billed" (5. *. 0.5 +. 2. *. 2.0) b4.Pricing.total;
  let b8 = Pricing.bill db ~uid:8 ~since:0 ~until:now ~rates in
  Alcotest.(check (float 1e-9)) "uid 8 billed" 0.5 b8.Pricing.total;
  (* windows restrict the bill *)
  let b_empty = Pricing.bill db ~uid:4 ~since:now ~until:now ~rates in
  Alcotest.(check (float 1e-9)) "empty window" 0. b_empty.Pricing.total

let suite =
  [
    tc "device log (mobile output cap)" test_device_log_policy;
    tc "system-load sensitive rate limit" test_system_load_policy;
    tc "template: no_overlay" test_template_no_overlay;
    tc "template: rate_limit" test_template_rate_limit;
    tc "template: k_anonymity" test_template_k_anonymity;
    tc "template: no_aggregation" test_template_no_aggregation;
    tc "template: group_license" test_template_group_license;
    tc "template: volume_quota" test_template_volume_quota;
    tc "template: no_access" test_template_no_access;
    tc "template: reuse_cap" test_template_reuse_cap;
    tc "template: no_overlay_except" test_template_no_overlay_except;
    tc "templates unify" test_templates_unify;
    tc "pricing bills from the log" test_pricing_bill;
  ]
