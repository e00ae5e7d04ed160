(* The paper's threat-model claims as tests, on the runs of
   [Threats.run] that Table I and the §IX-B1 tables print:

   1. each proof-of-concept malicious app SUCCEEDS on the unprotected
      baseline controller ("original Floodlight is vulnerable to all
      the attacks") and FAILS under SDNShield with the Scenario-1/2
      permissions ("SDNShield-enabled Floodlight is immune");
   2. Table I's comparison defenses: slicing lets same-slice attacks
      through; state analysis flags rule manipulation but not sniffing
      or leakage;
   3. each per-class policy template cuts the over-privileged manifest
      back, and shield-verify refutes it before and certifies it
      after. *)

open Shield_openflow
open Shield_net
open Shield_controller
open Shield_apps

let outcome = Alcotest.testable (Fmt.of_to_string Threats.outcome_name) ( = )
let host = Test_util.host

(* Class 1: RST injection -------------------------------------------------------- *)

let test_rst_injection_baseline_succeeds () =
  let r = Threats.run Threats.Rst_injection Threats.No_defense in
  Alcotest.(check int) "attempted" 1 r.attempts;
  Alcotest.check outcome "RST reached a host" Threats.Succeeded r.outcome

let test_rst_injection_blocked_by_sdnshield () =
  let r = Threats.run Threats.Rst_injection Threats.Sdnshield_scenario in
  (* Without pkt_in_event the malicious app never even sees the HTTP
     session; no RST leaves the controller. *)
  Alcotest.check outcome "no RST delivered" Threats.Blocked r.outcome;
  Alcotest.(check int) "attack never ran" 0 r.attempts

let test_rst_injection_blocked_by_pkt_out_filter () =
  (* Even an app that IS allowed to see packet-ins cannot inject
     arbitrary packets when its send_pkt_out is limited to replays
     (FROM_PKT_IN) — the L2-switch least-privilege manifest. *)
  let atk = Attacks.rst_injector () in
  let topo, _dp, kernel = Test_util.linear_setup 3 in
  let checker =
    Test_util.checker_of ~topo ~name:"rst_injector" L2_switch.manifest_src
  in
  let rt = Runtime.create ~mode:Runtime.Monolithic kernel [ (atk.Attacks.app, checker) ] in
  Runtime.feed_sync rt (Threats.http_pkt_in topo);
  Runtime.shutdown rt;
  Alcotest.(check int) "attack ran" 1 !(atk.Attacks.injections_attempted);
  Alcotest.(check int) "pkt-out denied" 1 !(atk.Attacks.injections_denied);
  Alcotest.(check bool) "no RST delivered" false
    (Attacks.rst_delivered kernel ~app:"rst_injector")

(* Class 2: information leakage ---------------------------------------------------- *)

let test_leak_baseline_succeeds () =
  let r = Threats.run Threats.Info_leak Threats.No_defense in
  Alcotest.check outcome "leak reached attacker" Threats.Succeeded r.outcome

let test_leak_blocked_by_sdnshield () =
  let r = Threats.run Threats.Info_leak Threats.Sdnshield_scenario in
  (* The app may read its visible topology (that IS its job) but the
     host-network filter confines connections to the admin range: the
     exfiltration socket is denied. *)
  Alcotest.(check int) "leak attempted" 1 r.attempts;
  Alcotest.check outcome "nothing reached the attacker" Threats.Blocked
    r.outcome;
  Alcotest.(check bool) "denial audited" true
    (Sandbox.denied_actions r.kernel.Kernel.sandbox ~app:"info_leaker" <> [])

(* Class 3: route hijacking ----------------------------------------------------------- *)

let test_hijack_baseline_succeeds () =
  let r = Threats.run Threats.Route_hijack Threats.No_defense in
  Alcotest.(check bool) "rules were installed" true (r.attempts > 0);
  Alcotest.check outcome "traffic diverted to h2" Threats.Succeeded r.outcome

let test_hijack_blocked_by_sdnshield () =
  (* Under Scenario-2 permissions (insert_flow LIMITING ACTION FORWARD
     AND OWN_FLOWS) the hijacker cannot shadow the routing app's
     rules. *)
  let r = Threats.run Threats.Route_hijack Threats.Sdnshield_scenario in
  Alcotest.(check bool) "attack attempted" true (r.attempts > 0);
  Alcotest.check outcome "traffic NOT diverted" Threats.Blocked r.outcome;
  Test_util.check_probe "h1->h3 still routed" "delivered-to h3"
    (Dataplane.probe r.dataplane ~src:(host r.topo "h1")
       ~dst:(host r.topo "h3") ())

(* Class 4: dynamic-flow tunneling ------------------------------------------------------- *)

let test_tunnel_baseline_succeeds () =
  let r = Threats.run Threats.Flow_tunnel Threats.No_defense in
  Alcotest.(check int) "tunnel endpoints installed" 2 r.attempts;
  (* Telnet traverses the port-80-only firewall. *)
  Alcotest.check outcome "tunnel works" Threats.Succeeded r.outcome

let test_tunnel_blocked_by_sdnshield () =
  let r = Threats.run Threats.Flow_tunnel Threats.Sdnshield_scenario in
  Alcotest.(check bool) "attack attempted" true (r.attempts > 0);
  (* ACTION FORWARD forbids the Set-field rewrites; OWN_FLOWS forbids
     shadowing the firewall's port-80 paths.  Both tunnel ends die. *)
  Alcotest.check outcome "tunnel blocked" Threats.Blocked r.outcome;
  (* And the firewall still does its job. *)
  Test_util.check_probe "telnet still dropped" "dropped"
    (Dataplane.probe r.dataplane ~src:(host r.topo "h1") ~dst:(host r.topo "h3")
       ~tp_dst:23 ())

(* Table I comparison defenses ------------------------------------------------------------ *)

let test_slicing_same_slice_attacks_succeed () =
  (* Attacker and victim share a slice: slicing constrains nothing. *)
  let r = Threats.run Threats.Flow_tunnel Threats.Slicing in
  Alcotest.check outcome "tunnel works under slicing" Threats.Succeeded r.outcome

let test_slicing_cross_slice_blocked () =
  (* But a write outside the slice's switches is denied. *)
  let checker = Defenses.slicing_checker { Defenses.full_slice with Defenses.switches = [ 1 ] } in
  (match
     checker.Api.check
       (Api.Install_flow (2, Flow_mod.add ~match_:Match_fields.wildcard_all ~actions:[] ()))
   with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.fail "cross-slice write should be denied");
  match
    checker.Api.check
      (Api.Install_flow (1, Flow_mod.add ~match_:Match_fields.wildcard_all ~actions:[] ()))
  with
  | Api.Allow -> ()
  | Api.Deny why -> Alcotest.failf "in-slice write denied: %s" why

let test_state_analysis_detects_rule_attacks () =
  (* State analysis sees the tunnel's rewrite pair and the hijack's
     shadowing in the rule base... *)
  let r = Threats.run Threats.Flow_tunnel Threats.State_analysis in
  Alcotest.(check bool) "tunnel signature found" true
    (Defenses.has_violation `Header_rewrite_pair r.findings);
  Alcotest.(check bool) "shadowing found" true
    (Defenses.has_violation `Shadowing r.findings)

let test_state_analysis_blind_to_leakage () =
  (* ...but a pure information leak leaves no rule trace. *)
  let r = Threats.run Threats.Info_leak Threats.State_analysis in
  Alcotest.check outcome "leak happened" Threats.Succeeded r.outcome;
  Alcotest.(check int) "no rule violations to see" 0 (List.length r.findings)

(* A tunnel split across two colluding apps: the rewrite-pair finding
   names the cookie of each end. *)
let test_rewrite_pair_names_both_issuers () =
  let dp = Dataplane.create (Topology.linear 2) in
  let rewrite dpid ~cookie port =
    ignore
      (Dataplane.apply_flow_mod dp dpid
         (Flow_mod.add ~cookie ~match_:Match_fields.wildcard_all
            ~actions:[ Action.Set (Action.Set_tp_dst port) ]
            ()))
  in
  rewrite 1 ~cookie:7 80;
  rewrite 2 ~cookie:9 4444;
  Alcotest.(check (list string))
    "one pair, naming both issuers"
    [ "complementary rewrites at s1/s2 (cookies 7,9)" ]
    (List.filter_map
       (fun (v : Defenses.invariant_violation) ->
         if v.kind = `Header_rewrite_pair then Some v.detail else None)
       (Defenses.analyze_rules dp))

(* Table I and the policy templates, cell by cell -------------------------------- *)

(* Rows in [Threats.classes] order, columns in [Threats.defenses] order:
   no defense, slicing, state analysis, SDNShield. *)
let table_i =
  Threats.
    [ [ Succeeded; Succeeded; Succeeded; Blocked ];
      [ Succeeded; Succeeded; Succeeded; Blocked ];
      [ Succeeded; Succeeded; Detected; Blocked ];
      [ Succeeded; Succeeded; Detected; Blocked ] ]

let test_table_i () =
  List.iter2
    (fun (cls, cells) expected ->
      Alcotest.(check (list outcome)) (Threats.class_name cls) expected cells)
    (Threats.table ()) table_i

(* Tokens left of the twelve, per template in [Threats.templates] order. *)
let tokens_after = [ 11; 11; 9; 12 ]

let test_templates_certified () =
  List.iter2
    (fun (t : Threats.template) after ->
      let r = Threats.reconcile_template t in
      let label what = t.label ^ ": " ^ what in
      Alcotest.(check int) (label "one violation") 1
        (List.length r.report.violations);
      Alcotest.(check (pair int int))
        (label "tokens before -> after")
        (12, after)
        (List.length Threats.greedy_manifest, List.length r.reconciled);
      Alcotest.(check string) (label "raw manifest") "refuted"
        (Sdnshield.Verify.verdict_label r.raw);
      Alcotest.(check string) (label "reconciled manifest") "certified"
        (Sdnshield.Verify.verdict_label r.certificate);
      Alcotest.(check string) (label "repair") "minimal"
        (Sdnshield.Verify.minimality_label r.certificate))
    Threats.templates tokens_after

let suite =
  [ Alcotest.test_case "class1 rst: baseline succeeds" `Quick test_rst_injection_baseline_succeeds;
    Alcotest.test_case "class1 rst: sdnshield blocks" `Quick test_rst_injection_blocked_by_sdnshield;
    Alcotest.test_case "class1 rst: FROM_PKT_IN blocks" `Quick test_rst_injection_blocked_by_pkt_out_filter;
    Alcotest.test_case "class2 leak: baseline succeeds" `Quick test_leak_baseline_succeeds;
    Alcotest.test_case "class2 leak: sdnshield blocks" `Quick test_leak_blocked_by_sdnshield;
    Alcotest.test_case "class3 hijack: baseline succeeds" `Quick test_hijack_baseline_succeeds;
    Alcotest.test_case "class3 hijack: sdnshield blocks" `Quick test_hijack_blocked_by_sdnshield;
    Alcotest.test_case "class4 tunnel: baseline succeeds" `Quick test_tunnel_baseline_succeeds;
    Alcotest.test_case "class4 tunnel: sdnshield blocks" `Quick test_tunnel_blocked_by_sdnshield;
    Alcotest.test_case "tableI slicing: same-slice attacks pass" `Quick test_slicing_same_slice_attacks_succeed;
    Alcotest.test_case "tableI slicing: cross-slice blocked" `Quick test_slicing_cross_slice_blocked;
    Alcotest.test_case "tableI analysis: detects rule attacks" `Quick test_state_analysis_detects_rule_attacks;
    Alcotest.test_case "tableI analysis: blind to leakage" `Quick test_state_analysis_blind_to_leakage;
    Alcotest.test_case "tableI: all 16 cells" `Quick test_table_i;
    Alcotest.test_case "templates: refuted raw, certified reconciled" `Quick
      test_templates_certified;
    Alcotest.test_case "tableI analysis: rewrite pair names both cookies" `Quick
      test_rewrite_pair_names_both_issuers ]
