(* Manifest inference from recorded behaviour (§III's dynamic-analysis
   manifest generation). *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Shield_apps
open Sdnshield

let ip = ipv4_of_string

let insert ?(dpid = 1) ?(priority = 100) ?(actions = [ Action.Output 1 ]) dst =
  Api.Install_flow
    ( dpid,
      Flow_mod.add ~priority
        ~match_:(Match_fields.make ~dl_type:Eth_ip ~nw_dst:(Match_fields.exact_ip (ip dst)) ())
        ~actions () )

let env = Filter_eval.pure_env

let allows manifest call =
  let attrs = Attrs.of_call call in
  match Engine.token_of_call call with
  | None -> true
  | Some token -> (
    match Perm.find manifest token with
    | None -> false
    | Some p -> Filter_eval.eval env p.Perm.filter attrs)

let test_infer_tokens_only_used () =
  let trace = [ Api.Read_topology; insert "10.1.2.3" ] in
  let m = Infer.of_trace trace in
  Alcotest.(check bool) "topology" true (Perm.grants_token m Token.Visible_topology);
  Alcotest.(check bool) "insert" true (Perm.grants_token m Token.Insert_flow);
  Alcotest.(check bool) "no stats" false (Perm.grants_token m Token.Read_statistics);
  Alcotest.(check bool) "no host io" false (Perm.grants_token m Token.Host_network)

let test_infer_ip_hull () =
  let trace = [ insert "10.1.2.3"; insert "10.1.9.9"; insert "10.1.200.1" ] in
  let m = Infer.of_trace trace in
  (* Everything observed sits in 10.1.0.0/16: the hull must allow the
     whole trace but reject addresses outside it. *)
  List.iter
    (fun call -> Alcotest.(check bool) "trace allowed" true (allows m call))
    trace;
  Alcotest.(check bool) "outside hull denied" false
    (allows m (insert "10.2.0.1"));
  Alcotest.(check bool) "far outside denied" false
    (allows m (insert "192.168.0.1"))

let test_infer_action_kinds () =
  let trace = [ insert "10.0.0.1" ] in
  let m = Infer.of_trace trace in
  Alcotest.(check bool) "forward allowed" true (allows m (insert "10.0.0.1"));
  Alcotest.(check bool) "drop not observed, denied" false
    (allows m (insert ~actions:[] "10.0.0.1"));
  Alcotest.(check bool) "rewrite not observed, denied" false
    (allows m
       (insert ~actions:[ Action.Set (Action.Set_tp_dst 80); Action.Output 1 ]
          "10.0.0.1"));
  (* A trace with rewrites widens the action envelope. *)
  let m2 =
    Infer.of_trace
      [ insert ~actions:[ Action.Set (Action.Set_tp_dst 80); Action.Output 1 ]
          "10.0.0.1" ]
  in
  Alcotest.(check bool) "rewrite allowed when observed" true
    (allows m2
       (insert ~actions:[ Action.Set (Action.Set_tp_dst 80); Action.Output 1 ]
          "10.0.0.1"))

let test_infer_priority_ceiling () =
  let m = Infer.of_trace [ insert ~priority:300 "10.0.0.1" ] in
  Alcotest.(check bool) "at ceiling ok" true
    (allows m (insert ~priority:300 "10.0.0.1"));
  Alcotest.(check bool) "above ceiling denied" false
    (allows m (insert ~priority:301 "10.0.0.1"))

let test_infer_pkt_out_provenance () =
  let po b =
    Api.Send_packet_out
      { dpid = 1; port = 1; packet = Packet.arp ~src:1 ~dst:2 (); from_pkt_in = b }
  in
  let replay_only = Infer.of_trace [ po true ] in
  Alcotest.(check bool) "replay allowed" true (allows replay_only (po true));
  Alcotest.(check bool) "arbitrary denied" false (allows replay_only (po false));
  let arbitrary = Infer.of_trace [ po false ] in
  Alcotest.(check bool) "arbitrary allowed when observed" true
    (allows arbitrary (po false))

let test_infer_stats_levels () =
  let rd l = Api.Read_stats (Stats.request l) in
  let m = Infer.of_trace [ rd Stats.Port_level ] in
  Alcotest.(check bool) "port ok" true (allows m (rd Stats.Port_level));
  Alcotest.(check bool) "flow denied" false (allows m (rd Stats.Flow_level))

let test_infer_net_hull () =
  let conn dst =
    Api.Syscall (Api.Net_connect { dst = ip dst; dst_port = 80; payload = "" })
  in
  let m = Infer.of_trace [ conn "10.1.0.5"; conn "10.1.0.9" ] in
  Alcotest.(check bool) "observed collector ok" true (allows m (conn "10.1.0.5"));
  Alcotest.(check bool) "attacker ip denied" false (allows m (conn "66.66.66.66"))

(* End-to-end: record a real app, infer, then the app still works under
   the inferred manifest. *)
let test_infer_l2switch_end_to_end () =
  let pkt_in dpid in_port src dst =
    Events.Packet_in
      { Message.dpid; in_port; packet = Packet.arp ~src ~dst ();
        reason = Message.No_match; buffer_id = None }
  in
  let events =
    [ pkt_in 1 1 0xA 0xB; pkt_in 1 2 0xB 0xA; pkt_in 2 1 0xC 0xA ]
  in
  (* Phase 1: record. *)
  let topo = Topology.linear 3 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let l2 = L2_switch.create () in
  let inferred = Infer.of_app_run ~kernel (L2_switch.app l2) events in
  Alcotest.(check bool) "pkt_in_event inferred" true
    (Perm.grants_token inferred Token.Pkt_in_event);
  Alcotest.(check bool) "insert inferred" true
    (Perm.grants_token inferred Token.Insert_flow);
  Alcotest.(check bool) "pkt-out inferred" true
    (Perm.grants_token inferred Token.Send_pkt_out);
  Alcotest.(check bool) "no topology write" false
    (Perm.grants_token inferred Token.Modify_topology);
  (* Phase 2: replay under the inferred manifest — zero denials. *)
  let topo2 = Topology.linear 3 in
  let kernel2 = Kernel.create (Dataplane.create topo2) in
  let l2b = L2_switch.create () in
  let engine =
    Engine.create ~app_name:"l2" inferred
  in
  let rt =
    Runtime.create ~mode:Runtime.Monolithic kernel2
      [ (L2_switch.app l2b, Engine.checker engine) ]
  in
  List.iter (Runtime.feed_sync rt) events;
  Runtime.shutdown rt;
  let _, denials = Engine.stats engine in
  Alcotest.(check int) "no denials under inferred manifest" 0 denials

let test_recorder_captures_transactions () =
  let checker, calls = Infer.recorder () in
  (match checker.Api.check_transaction [ Api.Read_topology; insert "10.0.0.1" ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "recorder must allow");
  Alcotest.(check int) "both recorded" 2 (List.length (calls ()))

let qsuite =
  [ QCheck.Test.make ~count:300
      ~name:"inferred manifest admits its own trace"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 20) Test_filters.call_arb)
      (fun trace ->
        let m = Infer.of_trace trace in
        List.for_all (fun call -> allows m call) trace) ]

let suite =
  [ Alcotest.test_case "tokens: only what was used" `Quick test_infer_tokens_only_used;
    Alcotest.test_case "ip hull" `Quick test_infer_ip_hull;
    Alcotest.test_case "action kinds" `Quick test_infer_action_kinds;
    Alcotest.test_case "priority ceiling" `Quick test_infer_priority_ceiling;
    Alcotest.test_case "pkt-out provenance" `Quick test_infer_pkt_out_provenance;
    Alcotest.test_case "stats levels" `Quick test_infer_stats_levels;
    Alcotest.test_case "host-network hull" `Quick test_infer_net_hull;
    Alcotest.test_case "l2switch end-to-end" `Quick test_infer_l2switch_end_to_end;
    Alcotest.test_case "recorder transactions" `Quick test_recorder_captures_transactions ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
