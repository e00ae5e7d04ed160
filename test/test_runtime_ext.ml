(* Tests for the runtime extensions: the domain-hosted KSD pool,
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

(* Domain-hosted KSDs ----------------------------------------------------------- *)

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
      ~mode:(Runtime.Isolated { ksd_threads = 2 })
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
      ~mode:(Runtime.Isolated { ksd_threads = 1 })
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
      ~mode:(Runtime.Isolated { ksd_threads = 2 })
      kernel [ (app, checker) ]
  in
  Runtime.feed_sync rt (pkt_in ());
  Runtime.shutdown rt;
  match !results with
  | [ Api.Done; Api.Denied _ ] -> ()
  | rs -> Alcotest.failf "unexpected: %a" Fmt.(list Api.pp_result) rs

(* Spin-then-park hand-offs (docs/RUNTIME.md §6) ------------------------------------ *)

(* A checker whose [check] busy-waits 0–30 µs, so replies land on both
   sides of the spin bound, and which echoes each call's tag back as
   its result. *)
let echo_checker =
  { Api.allow_all with
    check =
      (fun call ->
        (match call with
        | Api.Publish_event { payload; _ } ->
          Test_util.busy_us (int_of_string payload * 7 mod 31)
        | _ -> ());
        Api.Allow);
    vet_result =
      (fun call r ->
        match call with
        | Api.Publish_event { payload; _ } -> Api.Payload payload
        | _ -> r) }

(* 20k tagged calls of one app against two deputies, with no deadline
   and with a 1 s one: every call gets its own result exactly once,
   nothing expires, and no safety net fires.  The first 10k come from
   a lone caller pausing 0–30 µs between calls, which lands requests on
   both sides of a deputy's spin, where a lost wake-up would strand a
   request; the other 10k from four back-to-back callers, which queue
   requests behind the spinner. *)
let test_handoff_stress () =
  List.iter
    (fun call_deadline ->
      let label = if call_deadline = None then "no deadline" else "deadline 1s" in
      let rt =
        Runtime.create
          ~config:{ Runtime.default_config with Runtime.call_deadline }
          ~mode:(Runtime.Isolated { ksd_threads = 2 })
          (Kernel.create (Dataplane.create (Topology.linear 2)))
          [ (App.make "echo", echo_checker) ]
      in
      let ctx = Runtime.instance_ctx rt "echo" in
      let wrong = Atomic.make 0 in
      let calls ~pause first n () =
        for i = first to first + n - 1 do
          if pause then Test_util.busy_us (i * 13 mod 31);
          let tag = string_of_int i in
          match ctx.App.call (Api.Publish_event { tag = "stress"; payload = tag }) with
          | Api.Payload p when p = tag -> ()
          | _ -> Atomic.incr wrong
        done
      in
      calls ~pause:true 0 10_000 ();
      List.iter Thread.join
        (List.init 4 (fun c ->
             Thread.create (calls ~pause:false (10_000 + (c * 2_500)) 2_500) ()));
      Runtime.shutdown rt;
      let served, _, _, _ = Runtime.stats rt in
      Alcotest.(check int) (label ^ ": calls served") 20_000 served;
      Alcotest.(check int) (label ^ ": replies not the call's own") 0
        (Atomic.get wrong);
      Alcotest.(check bool) (label ^ ": no safety net fired") true
        (Runtime.fault_report rt
         = { Runtime.failures = 0; restarts = 0; deadlines = 0; rejections = 0 }))
    [ Some 1.0; None ]

(* A spin that never parked would burn a core while the runtime idles. *)
let test_idle_runtime_parks () =
  let rt =
    Runtime.create
      ~mode:(Runtime.Isolated { ksd_threads = 2 })
      (Kernel.create (Dataplane.create (Topology.linear 2)))
      [ (App.make "idle", Api.allow_all) ]
  in
  let ctx = Runtime.instance_ctx rt "idle" in
  for _ = 1 to 1_000 do
    ignore (ctx.App.call Api.Read_topology)
  done;
  let c0 = Sys.time () in
  Thread.delay 0.2;
  let cpu = Sys.time () -. c0 in
  Runtime.shutdown rt;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f ms of CPU in 200 ms idle" (cpu *. 1e3))
    true (cpu < 0.02)

(* OCaml 5.1 hosts at most 128 domains: a pool that cannot be spawned
   raises, after stopping the deputies it did spawn. *)
let test_deputy_spawn_failure () =
  let mk n =
    Runtime.create
      ~mode:(Runtime.Isolated { ksd_threads = n })
      (Kernel.create (Dataplane.create (Topology.linear 2)))
      [ (App.make "spawn", Api.allow_all) ]
  in
  (match mk 200 with
  | rt ->
    Runtime.shutdown rt;
    Alcotest.fail "200 deputy domains spawned"
  | exception Failure _ -> ());
  let rt = mk 2 in
  let r = (Runtime.instance_ctx rt "spawn").App.call Api.Read_topology in
  Runtime.shutdown rt;
  Alcotest.(check bool) "a later runtime serves calls" true
    (match r with Api.Topology_of _ -> true | _ -> false)

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

(* Inline dispatch ------------------------------------------------------------- *)

(* On [Isolated], [feed] runs each handler on the feeding thread, its
   calls crossing to the deputies, and returns once the event and its
   cascades are handled: [a]'s relay reaches [b] without a [drain]. *)
let test_isolated_feed_inline () =
  let dp = Dataplane.create (Topology.linear 2) in
  let ran = ref [] in
  let note name = ran := (name, Thread.id (Thread.self ())) :: !ran in
  let a =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        note "a";
        ignore
          (ctx.App.call
             (Api.Install_flow
                (1, Flow_mod.add ~match_:Match_fields.wildcard_all ~actions:[] ())));
        ignore
          (ctx.App.call (Api.Publish_event { tag = "relay"; payload = "" })))
      "a"
  in
  let b =
    App.make ~subscriptions:[ Api.E_app "relay" ]
      ~handle:(fun _ _ -> note "b")
      "b"
  in
  let rt =
    Runtime.create
      ~mode:(Runtime.Isolated { ksd_threads = 2 })
      (Kernel.create dp)
      [ (a, Api.allow_all); (b, Api.allow_all) ]
  in
  Runtime.feed rt (pkt_in ());
  let ran = List.rev !ran in
  let flows = Flow_table.size (Dataplane.switch dp 1).Switch.table in
  Runtime.shutdown rt;
  Alcotest.(check (list string)) "a then b, once each" [ "a"; "b" ]
    (List.map fst ran);
  Alcotest.(check int) "a's flow installed" 1 flows;
  let me = Thread.id (Thread.self ()) in
  Alcotest.(check bool) "handlers ran on the feeding thread" true
    (List.for_all (fun (_, id) -> id = me) ran)

let suite =
  [ Alcotest.test_case "domains: basic dispatch" `Quick test_domains_mode_basic;
    Alcotest.test_case "domains: async drain" `Quick test_domains_mode_async_drain;
    Alcotest.test_case "domains: with engine" `Quick test_domains_mode_with_engine;
    Alcotest.test_case "hand-off: 20k tagged calls" `Quick test_handoff_stress;
    Alcotest.test_case "hand-off: idle runtime parks" `Quick test_idle_runtime_parks;
    Alcotest.test_case "deputy spawn failure" `Quick test_deputy_spawn_failure;
    Alcotest.test_case "load-time: reject" `Quick test_load_time_reject;
    Alcotest.test_case "load-time: subscription" `Quick test_load_time_subscription_check;
    Alcotest.test_case "load-time: warn keeps app" `Quick test_load_time_warn_keeps_app;
    Alcotest.test_case "load-time: clean app" `Quick test_load_time_clean_app_passes;
    Alcotest.test_case "flow expiry frees budget" `Quick test_flow_expiry_frees_budget_end_to_end;
    Alcotest.test_case "isolated feed returns handled, cascades included" `Quick
      test_isolated_feed_inline ]
