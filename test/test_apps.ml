(* Behaviour tests for the bundled controller apps (the benign ones):
   L2 learning switch, shortest-path routing, ALTO + TE, monitoring,
   firewall. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Shield_apps

let pkt_in ~dpid ~in_port ~src ~dst =
  Events.Packet_in
    { Message.dpid; in_port; packet = Packet.arp ~src ~dst ();
      reason = Message.No_match; buffer_id = None }

let with_rt ?(switches = 3) ~mode apps f =
  let topo = Topology.linear switches in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let rt = Runtime.create ~mode kernel apps in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) (fun () -> f topo dp kernel rt)

let host topo n = Option.get (Topology.host_by_name topo n)

(* L2 learning switch ---------------------------------------------------------- *)

let test_l2_learns_and_installs () =
  let l2 = L2_switch.create () in
  with_rt ~mode:Runtime.Monolithic [ (L2_switch.app l2, Api.allow_all) ]
    (fun _topo dp _k rt ->
      (* First packet A->B: unknown destination, flood. *)
      Runtime.feed_sync rt (pkt_in ~dpid:1 ~in_port:1 ~src:0xA ~dst:0xB);
      Alcotest.(check int) "flooded" 1 !(l2.L2_switch.floods);
      (* Reply B->A: A's port is known, install + forward. *)
      Runtime.feed_sync rt (pkt_in ~dpid:1 ~in_port:2 ~src:0xB ~dst:0xA);
      Alcotest.(check int) "one flow pinned" 1 !(l2.L2_switch.flow_mods_issued);
      let sw = Dataplane.switch dp 1 in
      Alcotest.(check int) "rule in table" 1 (Flow_table.size sw.Switch.table);
      (* Third packet A->B now also hits (B was learned from the reply). *)
      Runtime.feed_sync rt (pkt_in ~dpid:1 ~in_port:1 ~src:0xA ~dst:0xB);
      Alcotest.(check int) "second flow pinned" 2 !(l2.L2_switch.flow_mods_issued))

let test_l2_per_switch_tables () =
  let l2 = L2_switch.create () in
  with_rt ~mode:Runtime.Monolithic [ (L2_switch.app l2, Api.allow_all) ]
    (fun _topo _dp _k rt ->
      Runtime.feed_sync rt (pkt_in ~dpid:1 ~in_port:1 ~src:0xA ~dst:0xB);
      (* Same dst on another switch: nothing learned there yet. *)
      Runtime.feed_sync rt (pkt_in ~dpid:2 ~in_port:1 ~src:0xC ~dst:0xA);
      Alcotest.(check int) "both flooded" 2 !(l2.L2_switch.floods))

(* Routing ---------------------------------------------------------------------- *)

let test_routing_installs_end_to_end () =
  let r = Routing.create () in
  with_rt ~switches:4 ~mode:Runtime.Monolithic [ (Routing.app r, Api.allow_all) ]
    (fun topo dp _k _rt ->
      Alcotest.(check bool) "installed rules" true (!(r.Routing.rules_installed) > 0);
      let h1 = host topo "h1" and h4 = host topo "h4" in
      Test_util.check_probe "h1->h4 routed" "delivered-to h4"
        (Dataplane.probe dp ~src:h1 ~dst:h4 ()))

let test_routing_reacts_to_topology_change () =
  let r = Routing.create () in
  with_rt ~switches:3 ~mode:Runtime.Monolithic [ (Routing.app r, Api.allow_all) ]
    (fun _topo _dp k rt ->
      let before = !(r.Routing.rules_installed) in
      ignore
        (Kernel.exec k ~app:"env" ~cookie:0
           (Api.Modify_topology (Api.Add_switch 9)));
      Runtime.process_pending rt;
      Alcotest.(check bool) "reinstalled" true (!(r.Routing.rules_installed) > before))

(* ALTO + TE ---------------------------------------------------------------------- *)

let test_alto_publishes_cost_map () =
  let alto = Alto.create_alto () in
  let received = ref [] in
  let sink =
    App.make ~subscriptions:[ Api.E_app Alto.channel ]
      ~handle:(fun _ -> function
        | Events.App_published { payload; _ } -> received := Alto.decode_cost_map payload
        | _ -> ())
      "sink"
  in
  with_rt ~switches:3 ~mode:Runtime.Monolithic
    [ (alto.Alto.app, Api.allow_all); (sink, Api.allow_all) ]
    (fun _topo _dp _k rt ->
      Runtime.process_pending rt;
      Alcotest.(check bool) "published at init" true (!(alto.Alto.updates_published) >= 1);
      (* 3 hosts -> 3 pairs. *)
      Alcotest.(check int) "cost map pairs" 3 (List.length !received);
      (* h1-h3 costs 3 switches. *)
      let _, _, cost =
        List.find (fun (a, b, _) -> a = "h1" && b = "h3") !received
      in
      Alcotest.(check int) "h1-h3 hop count" 3 cost)

let test_te_reroutes_on_alto_update () =
  let alto = Alto.create_alto () in
  let te = Alto.create_te ~max_pairs:2 () in
  with_rt ~switches:3 ~mode:Runtime.Monolithic
    [ (alto.Alto.app, Api.allow_all); (te.Alto.app, Api.allow_all) ]
    (fun _topo dp _k rt ->
      Runtime.process_pending rt;
      Alcotest.(check bool) "te installed reroutes" true (!(te.Alto.reroutes) > 0);
      (* TE rules actually landed in the switches. *)
      let total_rules =
        List.fold_left
          (fun acc d -> acc + Flow_table.size (Dataplane.switch dp d).Switch.table)
          0 [ 1; 2; 3 ]
      in
      Alcotest.(check bool) "rules present" true (total_rules > 0))

let test_alto_cost_map_roundtrip () =
  let entries = [ ("h1", "h2", 2); ("h1", "h3", 3); ("a", "b", 1) ] in
  Alcotest.(check bool) "encode/decode" true
    (Alto.decode_cost_map (Alto.encode_cost_map entries) = entries);
  Alcotest.(check bool) "empty" true (Alto.decode_cost_map "" = [])

(* Monitoring ------------------------------------------------------------------------ *)

let test_monitoring_reports () =
  let m = Monitoring.create ~collector_ip:(ipv4_of_string "10.1.0.5") () in
  with_rt ~mode:Runtime.Monolithic [ (Monitoring.app m, Api.allow_all) ]
    (fun _topo _dp k rt ->
      Runtime.feed_sync rt Monitoring.tick_event;
      Runtime.feed_sync rt Monitoring.tick_event;
      Alcotest.(check int) "two reports" 2 !(m.Monitoring.reports_sent);
      let conns = Sandbox.connections_by k.Kernel.sandbox ~app:"monitoring" in
      Alcotest.(check int) "two connections" 2 (List.length conns);
      List.iter
        (fun (r : Sandbox.net_record) ->
          Alcotest.(check string) "to collector" "10.1.0.5" (ipv4_to_string r.Sandbox.dst))
        conns)

(* Firewall ---------------------------------------------------------------------------- *)

let test_firewall_allows_http_blocks_rest () =
  let fw = Firewall.create () in
  with_rt ~switches:3 ~mode:Runtime.Monolithic [ (Firewall.app fw, Api.allow_all) ]
    (fun topo dp _k _rt ->
      let h1 = host topo "h1" and h3 = host topo "h3" in
      Test_util.check_probe "http delivered" "delivered-to h3"
        (Dataplane.probe dp ~src:h1 ~dst:h3 ~tp_dst:80 ());
      Test_util.check_probe "telnet dropped" "dropped"
        (Dataplane.probe dp ~src:h1 ~dst:h3 ~tp_dst:23 ()))

(* Apps under their own declared manifests (least privilege sanity) ------------------------ *)

let test_apps_work_under_own_manifests () =
  (* Each benign app, run under its *declared* manifest instead of
     allow-all, must still function: the least-privilege manifests are
     sufficient. *)
  let topo = Topology.linear 3 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let l2 = L2_switch.create () in
  let mon = Monitoring.create ~collector_ip:(ipv4_of_string "10.1.0.5") () in
  let mk name src = Test_util.checker_of ~topo ~name src in
  (* Monitoring's shipped manifest has stubs; reconcile first, as the
     deployment flow prescribes. *)
  let mon_manifest =
    match
      Sdnshield.Reconcile.run_strings ~app_name:"monitoring"
        ~manifest_src:Monitoring.manifest_src
        ~policy_src:
          (Monitoring.policy_src ~switches:[ 1; 2; 3 ] ~admin_subnet:"10.1.0.0"
             ~admin_mask:"255.255.0.0")
    with
    | Ok (m, _) -> m
    | Error e -> Alcotest.fail e
  in
  let mon_engine =
    Sdnshield.Engine.create ~topo ~app_name:"monitoring" mon_manifest
  in
  let rt =
    Runtime.create ~mode:Runtime.Monolithic kernel
      [ (L2_switch.app l2, mk "l2switch" L2_switch.manifest_src);
        (Monitoring.app mon, Sdnshield.Engine.checker mon_engine) ]
  in
  Runtime.feed_sync rt (pkt_in ~dpid:1 ~in_port:1 ~src:0xA ~dst:0xB);
  Runtime.feed_sync rt (pkt_in ~dpid:1 ~in_port:2 ~src:0xB ~dst:0xA);
  Runtime.feed_sync rt Monitoring.tick_event;
  Runtime.shutdown rt;
  Alcotest.(check int) "l2 pinned a flow" 1 !(l2.L2_switch.flow_mods_issued);
  Alcotest.(check int) "monitor reported" 1 !(mon.Monitoring.reports_sent);
  Alcotest.(check int) "monitor report not denied" 0 !(mon.Monitoring.reports_failed)

let suite =
  [ Alcotest.test_case "l2: learns and installs" `Quick test_l2_learns_and_installs;
    Alcotest.test_case "l2: per-switch tables" `Quick test_l2_per_switch_tables;
    Alcotest.test_case "routing: end-to-end" `Quick test_routing_installs_end_to_end;
    Alcotest.test_case "routing: topology change" `Quick test_routing_reacts_to_topology_change;
    Alcotest.test_case "alto: publishes cost map" `Quick test_alto_publishes_cost_map;
    Alcotest.test_case "alto+te: reroutes" `Quick test_te_reroutes_on_alto_update;
    Alcotest.test_case "alto: cost-map roundtrip" `Quick test_alto_cost_map_roundtrip;
    Alcotest.test_case "monitoring: reports" `Quick test_monitoring_reports;
    Alcotest.test_case "firewall: http only" `Quick test_firewall_allows_http_blocks_rest;
    Alcotest.test_case "apps under own manifests" `Quick test_apps_work_under_own_manifests ]
