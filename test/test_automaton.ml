(* The decision automaton, and the engine that decides through it,
   must agree exactly with the [Filter_eval] oracle: stateless
   decisions over random manifests × calls, batched vs. one-at-a-time
   verdicts, stateful (ownership/rule-budget) manifests under random
   insert/delete sequences on a bound data plane, and the leaf-mapped
   explanations against [Filter_eval.explain]'s wording. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Shield_workload
open Sdnshield

let manifest = Test_util.manifest_exn
let ip = ipv4_of_string

let same_verdict d1 d2 =
  match (d1, d2) with
  | Api.Allow, Api.Allow | Api.Deny _, Api.Deny _ -> true
  | _ -> false

(* The oracle: the token the call requires is granted and
   [Filter_eval] passes its filter under [env]. *)
let oracle_allows ?(env = Filter_eval.pure_env) m call =
  match Dispatch.token_of_call call with
  | None -> true
  | Some t ->
    Perm.grants_token m t
    && Filter_eval.eval env (Perm.filter_of m t) (Attrs.of_call call)

let allows = function Api.Allow -> true | Api.Deny _ -> false

(* [Engine.check], [Automaton.check] and [Automaton.check_batch] all
   decide as the oracle on stateless checking. *)
let oracle_agree m call =
  let engine =
    Engine.create ~app_name:"cmp" m
  in
  let automaton = Automaton.of_manifest m in
  let want = oracle_allows m call in
  allows (Engine.check engine call) = want
  && allows (Automaton.check automaton call) = want
  && allows (Automaton.check_batch automaton [| call |]).(0) = want

let test_automaton_basic () =
  let m =
    manifest
      "PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0 AND \
       MAX_PRIORITY 60000\n\
       PERM read_statistics LIMITING FLOW_LEVEL OR PORT_LEVEL"
  in
  let a = Automaton.of_manifest m in
  let insert nw_dst priority =
    Api.Install_flow
      ( 1,
        Flow_mod.add ~priority ~cookie:1
          ~match_:
            (Match_fields.make ~dl_type:Eth_ip
               ~nw_dst:(Match_fields.exact_ip (ip nw_dst))
               ())
          ~actions:[ Action.Output 1 ] () )
  in
  (match Automaton.check a (insert "10.13.1.2" 100) with
  | Api.Allow -> ()
  | Api.Deny why -> Alcotest.failf "conforming insert denied: %s" why);
  (match Automaton.check a (insert "10.14.1.2" 100) with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "outside subnet should be denied");
  (match Automaton.check a (insert "10.13.1.2" 61000) with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "over-priority should be denied");
  (match Automaton.check a (Api.Read_stats (Stats.request Stats.Port_level)) with
  | Api.Allow -> ()
  | Api.Deny _ -> Alcotest.fail "port-level stats should pass");
  (match Automaton.check a (Api.Read_stats (Stats.request Stats.Switch_level)) with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "switch-level stats should fail");
  (match Automaton.check a Api.Read_topology with
  | Api.Deny why ->
    Alcotest.(check string)
      "missing-token message matches the engine's"
      "missing permission visible_topology" why
  | Api.Allow -> Alcotest.fail "missing token should fail");
  Alcotest.(check bool) "granted insert" true (Automaton.granted a Token.Insert_flow);
  Alcotest.(check bool)
    "not granted topology" false
    (Automaton.granted a Token.Visible_topology);
  let checks, denials = Automaton.stats a in
  Alcotest.(check int) "checks counted" 6 checks;
  Alcotest.(check int) "denials counted" 4 denials

(* Hash-consing must actually share: a manifest that repeats one filter
   across many tokens compiles to the node count of a single copy. *)
let test_subtree_sharing () =
  let filter =
    "IP_DST 10.0.0.0 MASK 255.0.0.0 AND MAX_PRIORITY 60000 AND TCP_DST 80"
  in
  let one = manifest (Printf.sprintf "PERM insert_flow LIMITING %s" filter) in
  let many =
    manifest
      (String.concat "\n"
         (List.map
            (fun tok -> Printf.sprintf "PERM %s LIMITING %s" tok filter)
            [ "insert_flow"; "delete_flow"; "send_packet_out"; "host_network" ]))
  in
  let s1 = Automaton.build_stats (Automaton.of_manifest one) in
  let s4 = Automaton.build_stats (Automaton.of_manifest many) in
  Alcotest.(check int) "four identical filters share every node" s1.Automaton.nodes
    s4.Automaton.nodes;
  Alcotest.(check bool) "sharing counted" true (s4.Automaton.shared > 0)

(* Interval fusion must preserve the conjunction-of-bounds semantics,
   including the vacuous pass on priority-less calls. *)
let test_priority_interval () =
  let m =
    manifest
      "PERM insert_flow LIMITING MAX_PRIORITY 60000 AND MIN_PRIORITY 100 AND \
       MAX_PRIORITY 50000"
  in
  let a = Automaton.of_manifest m in
  let insert priority =
    Api.Install_flow
      ( 1,
        Flow_mod.add ~priority ~cookie:1 ~match_:Match_fields.wildcard_all
          ~actions:[ Action.Output 1 ] () )
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "priority %d agrees" p)
        true
        (allows (Automaton.check a (insert p)) = oracle_allows m (insert p)))
    [ 0; 99; 100; 50000; 50001; 60000; 65535 ]

(* Stateful manifests: ownership and rule budgets are read live
   through the environment from the bound data plane's flow tables,
   interleaved with the flow-mods executed there. *)
let test_stateful_ownership () =
  let m =
    manifest
      "PERM insert_flow LIMITING OWN_FLOWS AND MAX_RULE_COUNT 2\n\
       PERM delete_flow LIMITING OWN_FLOWS"
  in
  let kernel = Kernel.create (Dataplane.create (Topology.linear 1)) in
  let engine = Engine.create ~app_name:"alice" m in
  Engine.bind engine kernel.Kernel.dataplane ~cookie:1;
  let twin = Serial_model.create [ 1 ] in
  let insert nw_dst =
    Api.Install_flow
      ( 1,
        Flow_mod.add ~priority:100 ~cookie:1
          ~match_:
            (Match_fields.make ~dl_type:Eth_ip
               ~nw_dst:(Match_fields.exact_ip (ip nw_dst))
               ())
          ~actions:[ Action.Output 1 ] () )
  in
  let delete nw_dst =
    Api.Install_flow
      ( 1,
        Flow_mod.delete
          ~match_:(Match_fields.make ~nw_dst:(Match_fields.exact_ip (ip nw_dst)) ())
          () )
  in
  let exec ~cookie call =
    ignore (Kernel.exec kernel ~app:"test" ~cookie call);
    Serial_model.exec twin ~cookie call
  in
  (* The oracle and the engine decide against the same tables; an
     allowed call then executes on both. *)
  let agree label call =
    let want = Serial_model.allows twin ~cookie:1 m call in
    Alcotest.(check bool) label want (allows (Engine.check engine call));
    if want then exec ~cookie:1 call
  in
  agree "first insert" (insert "10.0.0.1");
  agree "second insert" (insert "10.0.0.2");
  (* Budget is 2 and alice now owns 2 rules: the insert must deny. *)
  (match Engine.check engine (insert "10.0.0.3") with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "rule budget exceeded: engine must deny");
  agree "third insert over budget" (insert "10.0.0.3");
  (* A foreign rule appears: deleting it violates OWN_FLOWS for both. *)
  exec ~cookie:2
    (Api.Install_flow
       ( 1,
         Flow_mod.add ~priority:5
           ~match_:(Match_fields.make ~nw_dst:(Match_fields.exact_ip (ip "10.9.9.9")) ())
           ~actions:[] () ));
  agree "delete own flow" (delete "10.0.0.1");
  agree "delete foreign flow" (delete "10.9.9.9")

(* Batched and one-at-a-time verdicts must be identical, including
   counters, on the generated workload traces. *)
let test_batch_matches_single_on_trace () =
  let m = Perm_gen.generate ~complexity:Medium ~focus:`Insert () in
  let calls =
    Array.map fst (Api_trace.generate ~focus:`Insert ~violation_rate:0.3 ~n:512 ())
  in
  let a1 = Automaton.of_manifest m and a2 = Automaton.of_manifest m in
  let singles = Array.map (Automaton.check a1) calls in
  let batched = Automaton.check_batch a2 calls in
  Alcotest.(check int) "same length" (Array.length singles) (Array.length batched);
  Array.iteri
    (fun i d ->
      if not (same_verdict d batched.(i)) then
        Alcotest.failf "verdict %d diverges between batch and single" i)
    singles;
  Alcotest.(check bool)
    "same counters" true
    (Automaton.stats a1 = Automaton.stats a2);
  (* The engine's batched entry point. *)
  let e =
    Engine.create ~app_name:"batch" m
  in
  let via_engine = Engine.check_batch e calls in
  Array.iteri
    (fun i d ->
      if not (same_verdict d via_engine.(i)) then
        Alcotest.failf "engine batch verdict %d diverges" i)
    singles

(* Explanations: the DAG's leaf-to-clause mapping must reproduce
   [Filter_eval.explain]'s account exactly, through the automaton and
   through the engine. *)
let oracle_explain m call =
  match Dispatch.token_of_call call with
  | None -> "no permission token governs this call"
  | Some t ->
    let tok = Token.to_string t in
    if not (Perm.grants_token m t) then
      Printf.sprintf "token %s: not granted by the manifest" tok
    else
      let _, why =
        Filter_eval.explain Filter_eval.pure_env (Perm.filter_of m t)
          (Attrs.of_call call)
      in
      Printf.sprintf "token %s: %s" tok why

let explanations_agree m call =
  let engine =
    Engine.create ~app_name:"exp" m
  in
  let a = Automaton.of_manifest m in
  let want = (oracle_allows m call, Some (oracle_explain m call)) in
  let got (d, (i : Api.check_info)) = (allows d, i.Api.explain) in
  got (Engine.check_explained engine call) = want
  && got (Automaton.check_explained a call) = want

let test_explanations_basic () =
  let m =
    manifest
      "PERM insert_flow LIMITING (IP_DST 10.13.0.0 MASK 255.255.0.0 AND \
       MAX_PRIORITY 60000) OR (TCP_DST 80 OR TCP_DST 443)\n\
       PERM read_statistics LIMITING FLOW_LEVEL"
  in
  let calls =
    [ Api.Install_flow
        ( 1,
          Flow_mod.add ~priority:100 ~cookie:1
            ~match_:
              (Match_fields.make ~dl_type:Eth_ip
                 ~nw_dst:(Match_fields.exact_ip (ip "10.13.1.2"))
                 ())
            ~actions:[ Action.Output 1 ] () );
      Api.Install_flow
        ( 1,
          Flow_mod.add ~priority:65000 ~cookie:1
            ~match_:(Match_fields.make ~tp_dst:443 ())
            ~actions:[ Action.Output 1 ] () );
      Api.Read_stats (Stats.request Stats.Flow_level);
      Api.Read_stats (Stats.request Stats.Switch_level);
      Api.Read_topology ]
  in
  List.iter
    (fun call ->
      Alcotest.(check bool)
        (Fmt.str "explain %a" Api.pp_call call)
        true (explanations_agree m call))
    calls

(* The accounts [check_explained] renders once per token at compile
   time go through [explanations_agree] for every (token, clause,
   outcome) of the example manifests and the bundled apps' manifests
   that some call reaches ([Diff.find_call] synthesizes the call),
   every ungranted token, and an ungoverned call. *)
let rec disjuncts = function
  | Filter.Or (a, b) -> disjuncts a @ disjuncts b
  | e -> [ e ]

let rec conjuncts = function
  | Filter.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* One goal per leaf a filter's explanation distinguishes (deciding
   clause and outcome): the attributes that reach that leaf. *)
let leaves (f : Filter.expr) =
  let ev c a = Filter_eval.eval Filter_eval.pure_env c a in
  let before i cs = List.filteri (fun j _ -> j < i) cs in
  match f with
  | Filter.True | Filter.False -> [ (fun _ -> true) ]
  | Filter.Or _ ->
    let cs = disjuncts f in
    (fun a -> not (List.exists (fun c -> ev c a) cs))
    :: List.mapi
         (fun i c a ->
           ev c a && not (List.exists (fun c -> ev c a) (before i cs)))
         cs
  | Filter.And _ ->
    let cs = conjuncts f in
    (fun a -> List.for_all (fun c -> ev c a) cs)
    :: List.mapi
         (fun i c a ->
           (not (ev c a)) && List.for_all (fun c -> ev c a) (before i cs))
         cs
  | e -> [ ev e; (fun a -> not (ev e a)) ]

let example_manifests () =
  let read name =
    match
      List.find_opt Sys.file_exists
        [ Filename.concat "examples" name; Filename.concat "../examples" name ]
    with
    | Some path -> In_channel.with_open_text path In_channel.input_all
    | None -> Alcotest.failf "example %s not found" name
  in
  List.map
    (fun name -> (name, manifest (read name)))
    [ "lint/clean.manifest"; "lint/dirty.manifest"; "verify/clean.manifest";
      "verify/dirty.manifest"; "verify/overtruncated.manifest" ]
  @ List.map
      (fun (name, src) -> (name, manifest src))
      [ ("l2_switch", Shield_apps.L2_switch.manifest_src);
        ("firewall", Shield_apps.Firewall.manifest_src);
        ("routing", Shield_apps.Routing.manifest_src);
        ("alto", Shield_apps.Alto.alto_manifest_src);
        ("te", Shield_apps.Alto.te_manifest_src) ]
  @
  (* Its stubs bound as deployed: the engine refuses open macros. *)
  let open Shield_apps.Monitoring in
  match
    Reconcile.run_strings ~app_name:"monitoring" ~manifest_src
      ~policy_src:
        (policy_src ~switches:[ 1; 2; 3 ] ~admin_subnet:"10.1.0.0"
           ~admin_mask:"255.255.0.0")
  with
  | Ok (m, _) -> [ ("monitoring", m) ]
  | Error e -> Alcotest.fail e

let test_explanation_text () =
  let reached = ref 0 and unreached = ref 0 and wrong = ref [] in
  let expect name m call =
    incr reached;
    if not (explanations_agree m call) then
      wrong := Fmt.str "%s: %a" name Api.pp_call call :: !wrong
  in
  let find name m ~filters token goal =
    match Diff.find_call ~filters token ~goal with
    | Some (call, _) -> expect name m call
    | None -> incr unreached
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun token ->
          if Perm.grants_token m token then
            let f = Perm.filter_of m token in
            List.iter (find name m ~filters:[ f ] token) (leaves f)
          else find name m ~filters:[] token (fun _ -> true))
        Token.all;
      expect name m (Api.Publish_event { tag = "t"; payload = "" }))
    (example_manifests ());
  Alcotest.(check (list string)) "accounts that differ" [] (List.rev !wrong);
  Alcotest.(check bool)
    (Printf.sprintf "%d accounts compared, %d leaves no call reaches"
       !reached !unreached)
    true
    (!reached > 10 * !unreached)

(* Stateful oracle ---------------------------------------------------------

   An engine bound to a data plane against the serial model
   (serial_model.ml): [Filter_eval.eval] over twin reference tables.
   Every allowed call executes on both.  Manifests mix OWN_FLOWS and
   MAX_RULE_COUNT atoms into random filters; call sequences mix
   inserts, exact and subnet-wide deletes, and rules another app
   installs. *)

type op =
  | Insert of { dpid : int; dst : int; priority : int }
  | Delete of { dpid : int; dst : int option }  (* [None]: the whole /24 *)
  | Foreign of { dpid : int; dst : int }

let dst_match = function
  | Some d ->
    Match_fields.make ~dl_type:Eth_ip
      ~nw_dst:(Match_fields.exact_ip (ipv4_of_octets 10 0 0 d))
      ()
  | None ->
    Match_fields.make ~dl_type:Eth_ip
      ~nw_dst:(Match_fields.subnet (ipv4_of_octets 10 0 0 0) (prefix_mask 24))
      ()

let call_of_op = function
  | Insert { dpid; dst; priority } ->
    Some
      (Api.Install_flow
         ( dpid,
           Flow_mod.add ~priority ~match_:(dst_match (Some dst))
             ~actions:[ Action.Output 1 ] () ))
  | Delete { dpid; dst } ->
    Some (Api.Install_flow (dpid, Flow_mod.delete ~match_:(dst_match dst) ()))
  | Foreign _ -> None

let pp_op ppf = function
  | Insert { dpid; dst; priority } ->
    Fmt.pf ppf "insert s%d 10.0.0.%d prio %d" dpid dst priority
  | Delete { dpid; dst = Some d } -> Fmt.pf ppf "delete s%d 10.0.0.%d" dpid d
  | Delete { dpid; dst = None } -> Fmt.pf ppf "delete s%d 10.0.0.0/24" dpid
  | Foreign { dpid; dst } -> Fmt.pf ppf "foreign s%d 10.0.0.%d" dpid dst

let op_gen : op QCheck.Gen.t =
  let open QCheck.Gen in
  let dpid = int_range 1 2 and dst = int_range 1 4 in
  frequency
    [ (5, map3 (fun dpid dst priority -> Insert { dpid; dst; priority })
            dpid dst (int_bound 1000));
      (2, map2 (fun dpid dst -> Delete { dpid; dst = Some dst }) dpid dst);
      (1, map (fun dpid -> Delete { dpid; dst = None }) dpid);
      (1, map2 (fun dpid dst -> Foreign { dpid; dst }) dpid dst) ]

let stateful_expr_gen : Filter.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let stateful =
    oneof
      [ return Filter.own_flows;
        map (fun n -> Filter.atom (Filter.Max_rule_count n)) (int_range 1 4) ]
  in
  let other = Test_filters.expr_gen 1 in
  frequency
    [ (3, stateful);
      (3, map2 (fun a b -> Filter.And (a, b)) stateful other);
      (2, map2 (fun a b -> Filter.Or (a, b)) stateful other);
      (2, map2 (fun a b -> Filter.And (a, b)) stateful stateful);
      (1, map (fun a -> Filter.Not a) stateful) ]

let stateful_manifest_gen : Perm.manifest QCheck.Gen.t =
  QCheck.Gen.map2
    (fun ins del ->
      Perm.normalize
        [ Perm.make ~filter:ins Token.Insert_flow;
          Perm.make ~filter:del Token.Delete_flow ])
    stateful_expr_gen stateful_expr_gen

let stateful_arb =
  QCheck.make
    ~print:(fun (m, ops, _) ->
      Fmt.str "%s@.%a" (Perm.to_string m) Fmt.(list ~sep:cut pp_op) ops)
    QCheck.Gen.(
      triple stateful_manifest_gen
        (list_size (int_range 1 30) op_gen)
        (list_size (return 30) (int_bound 2)))

(* Replay [ops]; each call goes through [Engine.check],
   [Engine.check_explained] or [Engine.check_batch] as [via] picks. *)
let stateful_agree (m, ops, via) =
  let kernel = Kernel.create (Dataplane.create (Topology.linear 2)) in
  let engine = Engine.create ~app_name:"sut" m in
  Engine.bind engine kernel.Kernel.dataplane ~cookie:1;
  let twin = Serial_model.create [ 1; 2 ] in
  let exec ~cookie call =
    ignore (Kernel.exec kernel ~app:"test" ~cookie call);
    Serial_model.exec twin ~cookie call
  in
  let decide i call =
    match List.nth via i with
    | 0 -> Engine.check engine call
    | 1 -> fst (Engine.check_explained engine call)
    | _ -> (Engine.check_batch engine [| call |]).(0)
  in
  let rules dpid =
    List.map
      (fun (e : Flow_table.entry) -> (e.match_, e.priority, e.cookie))
      (Flow_table.entries (Dataplane.switch kernel.Kernel.dataplane dpid).Switch.table)
  and twin_rules dpid =
    List.map
      (fun (e : Flow_table_ref.entry) -> (e.match_, e.priority, e.cookie))
      (Serial_model.entries twin dpid)
  in
  List.for_all Fun.id
    (List.mapi
       (fun i op ->
         match (op, call_of_op op) with
         | Foreign { dpid; dst }, _ ->
           exec ~cookie:2
             (Api.Install_flow
                ( dpid,
                  Flow_mod.add ~priority:5 ~match_:(dst_match (Some dst))
                    ~actions:[] () ));
           true
         | _, None -> true
         | _, Some call ->
           let want = Serial_model.allows twin ~cookie:1 m call in
           let got = allows (decide i call) in
           if want then exec ~cookie:1 call;
           got = want && rules 1 = twin_rules 1 && rules 2 = twin_rules 2)
       ops)

(* Property suites ----------------------------------------------------------- *)

let qsuite =
  [ QCheck.Test.make ~count:200 ~name:"check_batch = map check"
      (QCheck.pair Test_perm_ops.manifest_arb
         (QCheck.list_of_size (QCheck.Gen.int_range 0 40) Test_filters.call_arb))
      (fun (m, calls) ->
        let calls = Array.of_list calls in
        let a1 = Automaton.of_manifest m and a2 = Automaton.of_manifest m in
        let singles = Array.map (Automaton.check a1) calls in
        let batched = Automaton.check_batch a2 calls in
        Array.length singles = Array.length batched
        && Array.for_all2 same_verdict singles batched
        && Automaton.stats a1 = Automaton.stats a2);
    QCheck.Test.make ~count:500 ~name:"automaton explanations = engine's"
      (QCheck.pair Test_perm_ops.manifest_arb Test_filters.call_arb)
      (fun (m, call) -> explanations_agree m call) ]

let suite =
  [ Alcotest.test_case "automaton allow/deny basics" `Quick test_automaton_basic;
    Alcotest.test_case "hash-consed subtree sharing" `Quick test_subtree_sharing;
    Alcotest.test_case "priority interval fusion" `Quick test_priority_interval;
    Alcotest.test_case "stateful ownership/budget agreement" `Quick
      test_stateful_ownership;
    Alcotest.test_case "batch = single on workload trace" `Quick
      test_batch_matches_single_on_trace;
    Alcotest.test_case "explanations match (unit)" `Quick test_explanations_basic;
    Alcotest.test_case "explanation text = per-call formatting" `Quick
      test_explanation_text ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite

(* The engine against the [Filter_eval] oracle, stateless and bound to
   a data plane. *)
let oracle_suite =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [ QCheck.Test.make ~count:500 ~name:"stateless checkers = Filter_eval"
        (QCheck.pair Test_perm_ops.manifest_arb Test_filters.call_arb)
        (fun (m, call) -> oracle_agree m call);
      QCheck.Test.make ~count:300 ~name:"stateful engine = Filter_eval"
        stateful_arb stateful_agree ]
