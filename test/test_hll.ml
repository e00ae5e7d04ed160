(* The high-level policy language (§VI-C): compilation correctness
   (decision-tree semantics vs the flow-table the compiler emits),
   ownership tracking through composition, and per-owner deployment
   checking with partial denial. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Shield_hll
open Sdnshield

let ip = ipv4_of_string

let pkt ?(tp_dst = 80) ?(nw_dst = "10.0.0.2") () =
  Packet.tcp ~src:11 ~dst:22 ~nw_src:(ip "10.0.0.1") ~nw_dst:(ip nw_dst)
    ~tp_src:999 ~tp_dst ()

(* Install compiled rules into one switch and observe its behaviour. *)
let table_of policy =
  let sw = Switch.create ~dpid:1 ~ports:[ 1; 2; 3 ] in
  List.iter
    (fun (_, fm) -> ignore (Switch.apply_flow_mod sw fm))
    (Compiler.to_flow_mods ~switches:[ 1 ] (Compiler.compile policy));
  sw

let out_ports sw p =
  Switch.process sw ~in_port:1 p
  |> List.filter_map (function Switch.Forward (port, _) -> Some port | _ -> None)

let test_compile_if_else_semantics () =
  let policy =
    Syntax.if_ (Syntax.tcp_dst 80) ~then_:(Syntax.Forward 2) ~else_:Syntax.Drop
  in
  let sw = table_of policy in
  Alcotest.(check (list int)) "http forwarded" [ 2 ] (out_ports sw (pkt ()));
  Alcotest.(check (list int)) "telnet dropped" [] (out_ports sw (pkt ~tp_dst:23 ()))

let test_compile_nested_decision_tree () =
  let open Syntax in
  let policy =
    if_
      (ip_dst_subnet (ip "10.0.0.0") (prefix_mask 8))
      ~then_:(if_ (tcp_dst 80) ~then_:(Forward 2) ~else_:(Forward 3))
      ~else_:Drop
  in
  let sw = table_of policy in
  Alcotest.(check (list int)) "inner then" [ 2 ] (out_ports sw (pkt ()));
  Alcotest.(check (list int)) "inner else" [ 3 ] (out_ports sw (pkt ~tp_dst:22 ()));
  Alcotest.(check (list int)) "outer else" []
    (out_ports sw (pkt ~nw_dst:"192.168.0.1" ()))

let test_compile_or_expands () =
  let open Syntax in
  let policy =
    if_ (tcp_dst 80 ||. tcp_dst 443) ~then_:(Forward 2) ~else_:Drop
  in
  let sw = table_of policy in
  Alcotest.(check (list int)) "http" [ 2 ] (out_ports sw (pkt ()));
  Alcotest.(check (list int)) "https" [ 2 ] (out_ports sw (pkt ~tp_dst:443 ()));
  Alcotest.(check (list int)) "other" [] (out_ports sw (pkt ~tp_dst:22 ()))

let test_compile_contradiction_prunes () =
  let open Syntax in
  (* tcp_dst 80 AND tcp_dst 443 is unsatisfiable: branch pruned. *)
  let rules =
    Compiler.compile
      (if_ (tcp_dst 80 &&. tcp_dst 443) ~then_:(Forward 2) ~else_:Drop)
  in
  Alcotest.(check int) "only the else rule" 1 (List.length rules)

let test_compile_modify_then_forward () =
  let open Syntax in
  let policy = Modify (Action.Set_tp_dst 8080, Forward 2) in
  let sw = table_of policy in
  match Switch.process sw ~in_port:1 (pkt ()) with
  | [ Switch.Forward (2, p) ] ->
    Alcotest.(check int) "rewritten" 8080 (Option.get p.Packet.tp).Packet.tp_dst
  | _ -> Alcotest.fail "expected rewrite+forward"

let test_compile_union_left_bias () =
  let open Syntax in
  let policy =
    if_ (tcp_dst 80) ~then_:(Forward 2) ~else_:Drop
    ||| if_ (tcp_dst 80) ~then_:(Forward 3) ~else_:Drop
  in
  let sw = table_of policy in
  (* Overlap resolved by priority: the left policy's rule wins. *)
  Alcotest.(check (list int)) "left wins" [ 2 ] (out_ports sw (pkt ()))

let test_compile_on_switch_scoping () =
  let open Syntax in
  let rules = Compiler.compile (on 2 (Forward 1)) in
  (match rules with
  | [ r ] -> Alcotest.(check (option int)) "scoped" (Some 2) r.Compiler.dpid
  | _ -> Alcotest.fail "one rule expected");
  (* Conflicting nesting compiles to nothing. *)
  Alcotest.(check int) "contradictory scope" 0
    (List.length (Compiler.compile (on 2 (on 3 (Forward 1)))))

let test_compile_not_unsupported () =
  let open Syntax in
  Alcotest.check_raises "negation rejected"
    (Compiler.Unsupported
       "negated predicates: express the complement with if/else ordering")
    (fun () ->
      ignore (Compiler.compile (if_ (Not (tcp_dst 80)) ~then_:Drop ~else_:Drop)))

let test_ownership_tracking () =
  let open Syntax in
  let policy =
    tag "fw" (if_ (tcp_dst 80) ~then_:(tag "router" (Forward 2)) ~else_:Drop)
  in
  let rules = Compiler.compile policy in
  let fwd = List.find (fun r -> r.Compiler.actions <> []) rules in
  let drop = List.find (fun r -> r.Compiler.actions = []) rules in
  Alcotest.(check (slist string compare)) "composed rule has both owners"
    [ "fw"; "router" ] fwd.Compiler.owners;
  Alcotest.(check (list string)) "drop owned by fw only" [ "fw" ] drop.Compiler.owners

(* Deployment through per-owner engines ------------------------------------------ *)

let engines_for specs =
  List.map
    (fun (name, src) ->
      (name, Engine.create ~app_name:name (Perm_parser.manifest_exn src)))
    specs

let test_deploy_strict_blocks_unauthorized_owner () =
  let open Syntax in
  let engines =
    engines_for
      [ ("fw", "PERM insert_flow");
        ("router", "PERM insert_flow LIMITING ACTION FORWARD AND MAX_PRIORITY 100") ]
  in
  (* Compiled band sits at priority ~60000: the router's MAX_PRIORITY
     100 bound rejects every rule it co-owns. *)
  let policy =
    tag "fw" (if_ (tcp_dst 80) ~then_:(tag "router" (Forward 2)) ~else_:Drop)
  in
  let installed = ref [] in
  let report =
    Deploy.deploy ~mode:Deploy.Strict ~engines ~switches:[ 1 ]
      ~install:(fun d fm -> installed := (d, fm) :: !installed)
      policy
  in
  Alcotest.(check int) "co-owned rule rejected" 1 report.Deploy.rejected_rules;
  Alcotest.(check int) "fw-only drop installed" 1 report.Deploy.installed_rules;
  let v = List.find (fun v -> not v.Deploy.installed) report.Deploy.verdicts in
  (match v.Deploy.denied with
  | [ ("router", _) ] -> ()
  | _ -> Alcotest.fail "router should be the denied owner");
  Alcotest.(check int) "one flow-mod hit the plane" 1 (List.length !installed)

let test_deploy_partial_mode () =
  let open Syntax in
  let engines =
    engines_for
      [ ("fw", "PERM insert_flow");
        ("router", "PERM insert_flow LIMITING MAX_PRIORITY 100") ]
  in
  let policy =
    tag "fw" (if_ (tcp_dst 80) ~then_:(tag "router" (Forward 2)) ~else_:Drop)
  in
  let report =
    Deploy.deploy ~mode:Deploy.Partial ~engines ~switches:[ 1 ]
      ~install:(fun _ _ -> ())
      policy
  in
  (* Partial denial (§VI-C): the rule installs on the authorised
     owner's authority, the denial is reported. *)
  Alcotest.(check int) "all rules installed" 2 report.Deploy.installed_rules;
  let v =
    List.find (fun v -> v.Deploy.denied <> []) report.Deploy.verdicts
  in
  Alcotest.(check (list string)) "fw authorised" [ "fw" ] v.Deploy.authorized

let test_deploy_untagged_rules_pass () =
  let report =
    Deploy.deploy ~mode:Deploy.Strict ~engines:[] ~switches:[ 1 ]
      ~install:(fun _ _ -> ())
      (Syntax.Forward 1)
  in
  Alcotest.(check int) "controller-internal rule installs" 1
    report.Deploy.installed_rules

let test_deploy_end_to_end_dataplane () =
  (* Full pipeline: HLL firewall policy -> compile -> per-owner check ->
     install -> observable packet behaviour. *)
  let open Syntax in
  let topo = Topology.linear 2 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let engines = engines_for [ ("fw", "PERM insert_flow") ] in
  let policy =
    tag "fw"
      (if_
         (Test (Eth_type_is Eth_ip) &&. tcp_dst 80)
         ~then_:(Forward 2) ~else_:Drop)
  in
  let report =
    Deploy.deploy ~mode:Deploy.Strict ~engines ~switches:[ 1 ]
      ~install:(fun d fm ->
        ignore (Kernel.exec kernel ~app:"fw" ~cookie:1 (Api.Install_flow (d, fm))))
      policy
  in
  Alcotest.(check int) "all installed" 2 report.Deploy.installed_rules;
  let r80 = Dataplane.inject_at dp ~dpid:1 ~in_port:3 (pkt ()) in
  Alcotest.(check int) "http leaves on port 2 (to s2)" 0 r80.Dataplane.dropped;
  let r23 = Dataplane.inject_at dp ~dpid:1 ~in_port:3 (pkt ~tp_dst:23 ()) in
  Alcotest.(check int) "telnet dropped" 1 r23.Dataplane.dropped

let suite =
  [ Alcotest.test_case "if/else semantics" `Quick test_compile_if_else_semantics;
    Alcotest.test_case "nested decision tree" `Quick test_compile_nested_decision_tree;
    Alcotest.test_case "or expansion" `Quick test_compile_or_expands;
    Alcotest.test_case "contradiction pruning" `Quick test_compile_contradiction_prunes;
    Alcotest.test_case "modify-then-forward" `Quick test_compile_modify_then_forward;
    Alcotest.test_case "union left bias" `Quick test_compile_union_left_bias;
    Alcotest.test_case "switch scoping" `Quick test_compile_on_switch_scoping;
    Alcotest.test_case "negation unsupported" `Quick test_compile_not_unsupported;
    Alcotest.test_case "ownership tracking" `Quick test_ownership_tracking;
    Alcotest.test_case "deploy: strict" `Quick test_deploy_strict_blocks_unauthorized_owner;
    Alcotest.test_case "deploy: partial denial" `Quick test_deploy_partial_mode;
    Alcotest.test_case "deploy: untagged passes" `Quick test_deploy_untagged_rules_pass;
    Alcotest.test_case "deploy: end-to-end" `Quick test_deploy_end_to_end_dataplane ]
