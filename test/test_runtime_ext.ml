(* Tests for the runtime extensions: domain-parallel KSD pool,
   load-time access control (§VIII-B), and the observer channel wiring
   flow expirations into the ownership store. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Sdnshield

let pkt_in ?(dpid = 1) () =
  Events.Packet_in
    { Message.dpid; in_port = 1; packet = Packet.arp ~src:0xA ~dst:0xB ();
      reason = Message.No_match; buffer_id = None }

(* Domain-parallel KSDs --------------------------------------------------------- *)

let test_domains_mode_basic () =
  let topo = Topology.linear 2 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let handled = ref 0 in
  let app =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        incr handled;
        ignore
          (ctx.App.call
             (Api.Install_flow
                (1, Flow_mod.add ~match_:Match_fields.wildcard_all ~actions:[] ()))))
      "domapp"
  in
  let rt =
    Runtime.create
      ~mode:(Runtime.Isolated_domains { ksd_domains = 2 })
      kernel
      [ (app, Api.allow_all) ]
  in
  Runtime.feed_sync rt (pkt_in ());
  Runtime.feed_sync rt (pkt_in ());
  Runtime.shutdown rt;
  Alcotest.(check int) "events handled" 2 !handled;
  let sw = Dataplane.switch dp 1 in
  Alcotest.(check int) "rule installed via domain KSD" 1
    (Flow_table.size sw.Switch.table)

let test_domains_mode_async_drain () =
  let topo = Topology.linear 2 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let handled = ref 0 in
  let app =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        incr handled;
        ignore (ctx.App.call Api.Read_topology))
      "domapp2"
  in
  let rt =
    Runtime.create
      ~mode:(Runtime.Isolated_domains { ksd_domains = 1 })
      kernel
      [ (app, Api.allow_all) ]
  in
  for _ = 1 to 30 do
    Runtime.feed rt (pkt_in ())
  done;
  Runtime.drain rt;
  Runtime.shutdown rt;
  Alcotest.(check int) "all drained" 30 !handled

let test_domains_mode_with_engine () =
  (* The full SDNShield checker works across domains (its internal
     mutexes are domain-safe). *)
  let topo = Topology.linear 2 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let ownership = Ownership.create () in
  let results = ref [] in
  let app =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        results :=
          [ ctx.App.call
              (Api.Install_flow
                 ( 1,
                   Flow_mod.add
                     ~match_:
                       (Match_fields.make ~dl_type:Eth_ip
                          ~nw_dst:(Match_fields.exact_ip (ipv4_of_string "10.13.0.1"))
                          ())
                     ~actions:[ Action.Output 2 ] () ));
            ctx.App.call (Api.Syscall (Api.Spawn_process "sh")) ])
      "shielded"
  in
  let checker =
    Test_util.checker_of ~ownership ~topo ~name:"shielded" ~cookie:1
      "PERM pkt_in_event\nPERM read_payload\n\
       PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0"
  in
  let rt =
    Runtime.create
      ~mode:(Runtime.Isolated_domains { ksd_domains = 2 })
      kernel [ (app, checker) ]
  in
  Runtime.feed_sync rt (pkt_in ());
  Runtime.shutdown rt;
  match !results with
  | [ Api.Done; Api.Denied _ ] -> ()
  | rs -> Alcotest.failf "unexpected: %a" Fmt.(list Api.pp_result) rs

(* Load-time access control ------------------------------------------------------ *)

let test_load_time_reject () =
  let topo = Topology.linear 2 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let ownership = Ownership.create () in
  let ran = ref false in
  (* Declares flow-write but its manifest grants read-only perms. *)
  let app =
    App.make
      ~subscriptions:[ Api.E_packet_in ]
      ~uses:[ Api.Cap_flow_write; Api.Cap_stats ]
      ~handle:(fun _ _ -> ran := true)
      "overreacher"
  in
  let checker =
    Test_util.checker_of ~ownership ~topo ~name:"overreacher" ~cookie:1
      "PERM pkt_in_event\nPERM read_statistics"
  in
  let rt =
    Runtime.create ~load_check:Runtime.Reject_at_load ~mode:Runtime.Monolithic
      kernel [ (app, checker) ]
  in
  Runtime.feed_sync rt (pkt_in ());
  Runtime.shutdown rt;
  Alcotest.(check bool) "never ran" false !ran;
  (match Runtime.rejected rt with
  | [ ("overreacher", reason) ] ->
    Alcotest.(check bool) "reason mentions the capability" true
      (Test_util.contains_substring reason "flow-write")
  | _ -> Alcotest.fail "expected one rejected app");
  Alcotest.(check bool) "audited" true
    (Sandbox.denied_actions kernel.Kernel.sandbox ~app:"overreacher" <> [])

let test_load_time_subscription_check () =
  (* Subscribing to packet-ins without pkt_in_event is caught at load. *)
  let topo = Topology.linear 2 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let ownership = Ownership.create () in
  let app = App.make ~subscriptions:[ Api.E_packet_in ] "nosy" in
  let checker =
    Test_util.checker_of ~ownership ~topo ~name:"nosy" ~cookie:1
      "PERM read_statistics"
  in
  let rt =
    Runtime.create ~load_check:Runtime.Reject_at_load ~mode:Runtime.Monolithic
      kernel [ (app, checker) ]
  in
  Runtime.shutdown rt;
  Alcotest.(check int) "rejected" 1 (List.length (Runtime.rejected rt))

let test_load_time_warn_keeps_app () =
  let topo = Topology.linear 2 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let app =
    App.make ~uses:[ Api.Cap_flow_write ] ~subscriptions:[ Api.E_packet_in ]
      "warned"
  in
  let rt =
    Runtime.create ~load_check:Runtime.Warn_at_load ~mode:Runtime.Monolithic
      kernel
      [ (app, Api.deny_all) ]
  in
  Runtime.shutdown rt;
  Alcotest.(check int) "not rejected" 0 (List.length (Runtime.rejected rt));
  (* But the warning is in the audit log. *)
  let warnings =
    List.filter
      (fun (e : Sandbox.audit_entry) -> e.Sandbox.action = "load-time-check")
      (Sandbox.audit_log kernel.Kernel.sandbox)
  in
  Alcotest.(check int) "warning logged" 1 (List.length warnings)

let test_load_time_clean_app_passes () =
  let topo = Topology.linear 2 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let ownership = Ownership.create () in
  let app =
    App.make ~uses:[ Api.Cap_flow_write ] ~subscriptions:[ Api.E_packet_in ]
      "clean"
  in
  let checker =
    Test_util.checker_of ~ownership ~topo ~name:"clean" ~cookie:1
      "PERM pkt_in_event\nPERM insert_flow"
  in
  let rt =
    Runtime.create ~load_check:Runtime.Reject_at_load ~mode:Runtime.Monolithic
      kernel [ (app, checker) ]
  in
  Runtime.shutdown rt;
  Alcotest.(check int) "loaded" 0 (List.length (Runtime.rejected rt))

(* Observer wiring ----------------------------------------------------------------- *)

let test_flow_expiry_frees_budget_end_to_end () =
  (* An app limited to one rule installs it with a hard timeout; after
     the switch expires it and the flow-removed event flows through the
     runtime, the engine's budget opens up again. *)
  let topo = Topology.linear 1 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let ownership = Ownership.create () in
  let results = ref [] in
  let app =
    App.make ~subscriptions:[ Api.E_app "go" ]
      ~handle:(fun ctx -> function
        | Events.App_published { payload; _ } ->
          let dst = ipv4_of_string payload in
          results :=
            !results
            @ [ ctx.App.call
                  (Api.Install_flow
                     ( 1,
                       Flow_mod.add ~hard_timeout:1
                         ~match_:
                           (Match_fields.make ~dl_type:Eth_ip
                              ~nw_dst:(Match_fields.exact_ip dst) ())
                         ~actions:[ Action.Output 1 ] () )) ]
        | _ -> ())
      "budgeted"
  in
  let checker =
    Test_util.checker_of ~ownership ~topo ~name:"budgeted" ~cookie:1
      "PERM insert_flow LIMITING MAX_RULE_COUNT 1\nPERM flow_event"
  in
  let rt = Runtime.create ~mode:Runtime.Monolithic kernel [ (app, checker) ] in
  let go dst = Events.App_published { source = "env"; tag = "go"; payload = dst } in
  Runtime.feed_sync rt (go "10.0.0.1");
  Runtime.feed_sync rt (go "10.0.0.2") (* over budget *);
  (* Let the switch expire the first rule and surface the events. *)
  let expired = Shield_net.Dataplane.tick dp @ Shield_net.Dataplane.tick dp in
  Alcotest.(check int) "one rule expired" 1 (List.length expired);
  List.iter
    (fun (dpid, (e : Flow_table.entry)) ->
      Runtime.feed_sync rt
        (Events.Flow_removed
           { dpid; match_ = e.Flow_table.match_; cookie = e.Flow_table.cookie }))
    expired;
  Runtime.feed_sync rt (go "10.0.0.3") (* budget freed *);
  Runtime.shutdown rt;
  match !results with
  | [ Api.Done; Api.Denied _; Api.Done ] -> ()
  | rs -> Alcotest.failf "unexpected sequence: %a" Fmt.(list Api.pp_result) rs

let suite =
  [ Alcotest.test_case "domains: basic dispatch" `Quick test_domains_mode_basic;
    Alcotest.test_case "domains: async drain" `Quick test_domains_mode_async_drain;
    Alcotest.test_case "domains: with engine" `Quick test_domains_mode_with_engine;
    Alcotest.test_case "load-time: reject" `Quick test_load_time_reject;
    Alcotest.test_case "load-time: subscription" `Quick test_load_time_subscription_check;
    Alcotest.test_case "load-time: warn keeps app" `Quick test_load_time_warn_keeps_app;
    Alcotest.test_case "load-time: clean app" `Quick test_load_time_clean_app_passes;
    Alcotest.test_case "flow expiry frees budget" `Quick test_flow_expiry_frees_budget_end_to_end ]
