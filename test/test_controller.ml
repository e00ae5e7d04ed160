(* Unit and integration tests for the controller substrate: channels,
   kernel call execution, sandbox, and both runtime architectures. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller

(* Channels ------------------------------------------------------------------ *)

let test_channel_fifo () =
  let c = Channel.create () in
  Channel.push c 1;
  Channel.push c 2;
  Channel.push c 3;
  Alcotest.(check (option int)) "1st" (Some 1) (Channel.pop c);
  Alcotest.(check (option int)) "2nd" (Some 2) (Channel.pop c);
  Alcotest.(check int) "length" 1 (Channel.length c);
  (* With its head moved, 48 queued items wrap the queue's 16-slot ring
     and make it double twice. *)
  for i = 4 to 50 do
    Channel.push c i
  done;
  Alcotest.(check (list int)) "order across wrap and growth"
    (List.init 48 (fun i -> i + 3))
    (List.init 48 (fun _ -> Option.get (Channel.pop c)));
  Alcotest.(check int) "drained" 0 (Channel.length c)

let test_channel_close () =
  let c = Channel.create () in
  Channel.push c 1;
  Channel.close c;
  Alcotest.(check (option int)) "drains" (Some 1) (Channel.pop c);
  Alcotest.(check (option int)) "then none" None (Channel.pop c);
  Alcotest.check_raises "push after close" Channel.Closed (fun () ->
      Channel.push c 2)

let test_channel_cross_thread () =
  let c = Channel.create () in
  let results = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec loop () =
          match Channel.pop c with
          | Some v ->
            results := v :: !results;
            loop ()
          | None -> ()
        in
        loop ())
      ()
  in
  List.iter (Channel.push c) [ 1; 2; 3; 4; 5 ];
  Channel.close c;
  Thread.join consumer;
  Alcotest.(check (list int)) "all received in order" [ 1; 2; 3; 4; 5 ]
    (List.rev !results)

let test_ivar () =
  let iv = Channel.Ivar.create () in
  let reader = Thread.create (fun () -> Channel.Ivar.read iv) () in
  Thread.yield ();
  Channel.Ivar.fill iv 42;
  Thread.join reader;
  Alcotest.(check int) "read" 42 (Channel.Ivar.read iv);
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Channel.Ivar.fill iv 43)

(* Parked reply readers (docs/RUNTIME.md §6) ----------------------------------- *)

(* A reader that outlasts its spin parks on the one park every ivar
   shares.  [spawn_reader iv] reads [iv] on its own domain and returns
   once that domain has begun to read. *)
let spawn_reader iv =
  let started = Atomic.make false and finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomic.set started true;
        let v = Channel.Ivar.read iv in
        Atomic.set finished true;
        v)
  in
  while not (Atomic.get started) do
    Thread.yield ()
  done;
  (d, finished)

let test_ivar_parked_reader () =
  let iv = Channel.Ivar.create () in
  let reader, _ = spawn_reader iv in
  Thread.delay 0.002;
  Channel.Ivar.fill iv 42;
  Alcotest.(check int) "a fill 2 ms late reaches the parked reader" 42
    (Domain.join reader);
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Channel.Ivar.fill iv 43);
  Alcotest.(check int) "the first value stays" 42 (Channel.Ivar.read iv)

let test_ivar_shared_park () =
  let iv1 = Channel.Ivar.create () and iv2 = Channel.Ivar.create () in
  let r1, _ = spawn_reader iv1 in
  let r2, finished2 = spawn_reader iv2 in
  Thread.delay 0.02;
  Channel.Ivar.fill iv1 1;
  Alcotest.(check int) "the filled ivar's reader returns its value" 1
    (Domain.join r1);
  Thread.delay 0.02;
  Alcotest.(check bool) "the other reader stays parked" false
    (Atomic.get finished2);
  Channel.Ivar.fill iv2 2;
  Alcotest.(check int) "the other reader returns its own value" 2
    (Domain.join r2)

(* Sandbox -------------------------------------------------------------------- *)

let test_sandbox_logs () =
  let sb = Sandbox.create () in
  ignore
    (Sandbox.execute sb ~app:"evil"
       (Api.Net_connect
          { dst = ipv4_of_string "6.6.6.6"; dst_port = 80; payload = "x" }));
  ignore (Sandbox.execute sb ~app:"evil" (Api.File_open { path = "/etc/passwd"; write = false }));
  Alcotest.(check int) "one connection" 1
    (List.length (Sandbox.connections_by sb ~app:"evil"));
  Alcotest.(check int) "none for other" 0
    (List.length (Sandbox.connections_by sb ~app:"good"));
  Sandbox.record_audit sb ~app:"evil" ~action:"x" ~allowed:false ~detail:"denied";
  Alcotest.(check int) "denials recorded" 1
    (List.length (Sandbox.denied_actions sb ~app:"evil"))

(* Kernel --------------------------------------------------------------------- *)

let kernel_setup n =
  let topo = Topology.linear n in
  let dp = Dataplane.create topo in
  (topo, dp, Kernel.create dp)

let test_kernel_install_and_read () =
  let _topo, _dp, k = kernel_setup 2 in
  let fm =
    Flow_mod.add ~match_:(Match_fields.make ~tp_dst:80 ())
      ~actions:[ Action.Output 2 ] ()
  in
  (match Kernel.exec k ~app:"a" ~cookie:7 (Api.Install_flow (1, fm)) with
  | Api.Done -> ()
  | r -> Alcotest.failf "install failed: %a" Api.pp_result r);
  match Kernel.exec k ~app:"a" ~cookie:7 (Api.Read_flow_table { dpid = Some 1; pattern = None }) with
  | Api.Flow_entries [ (1, [ fs ]) ] ->
    (* Every flow-mod is stamped with the app's cookie. *)
    Alcotest.(check int) "cookie stamped" 7 fs.Stats.cookie
  | r -> Alcotest.failf "unexpected read result: %a" Api.pp_result r

let test_kernel_unknown_switch () =
  let _topo, _dp, k = kernel_setup 1 in
  let fm = Flow_mod.add ~match_:Match_fields.wildcard_all ~actions:[] () in
  match Kernel.exec k ~app:"a" ~cookie:1 (Api.Install_flow (99, fm)) with
  | Api.Failed _ -> ()
  | r -> Alcotest.failf "expected failure: %a" Api.pp_result r

let test_kernel_topology_view_and_modify () =
  let _topo, _dp, k = kernel_setup 3 in
  (match Kernel.exec k ~app:"a" ~cookie:1 Api.Read_topology with
  | Api.Topology_of v ->
    Alcotest.(check (list int)) "switches" [ 1; 2; 3 ] v.Api.switches;
    Alcotest.(check int) "links" 2 (List.length v.Api.links)
  | r -> Alcotest.failf "unexpected: %a" Api.pp_result r);
  ignore
    (Kernel.exec k ~app:"a" ~cookie:1
       (Api.Modify_topology
          (Api.Remove_link
             ( { Topology.dpid = 1; port = 2 },
               { Topology.dpid = 2; port = 1 } ))));
  (match Kernel.take_pending k with
  | [ Events.Topology_changed _ ] -> ()
  | evs -> Alcotest.failf "expected 1 topology event, got %d" (List.length evs));
  match Kernel.exec k ~app:"a" ~cookie:1 Api.Read_topology with
  | Api.Topology_of v -> Alcotest.(check int) "one link left" 1 (List.length v.Api.links)
  | r -> Alcotest.failf "unexpected: %a" Api.pp_result r

let test_kernel_flow_removed_event () =
  let _topo, _dp, k = kernel_setup 1 in
  let m = Match_fields.make ~tp_dst:80 () in
  ignore
    (Kernel.exec k ~app:"a" ~cookie:3
       (Api.Install_flow (1, Flow_mod.add ~match_:m ~actions:[] ())));
  ignore (Kernel.take_pending k);
  ignore
    (Kernel.exec k ~app:"b" ~cookie:4
       (Api.Install_flow (1, Flow_mod.delete ~match_:Match_fields.wildcard_all ())));
  match Kernel.take_pending k with
  | [ Events.Flow_removed { cookie; _ } ] -> Alcotest.(check int) "victim cookie" 3 cookie
  | evs -> Alcotest.failf "expected flow-removed, got %d events" (List.length evs)

(* OpenFlow 1.0 reports a rule's removal on a timeout or a delete only:
   an Add that replaces an identical entry queues nothing, and a Delete
   queues one event per entry it removes. *)
let test_kernel_reinstall_queues_nothing () =
  let _topo, _dp, k = kernel_setup 1 in
  let add tp_dst =
    Api.Install_flow
      (1, Flow_mod.add ~match_:(Match_fields.make ~tp_dst ()) ~actions:[] ())
  in
  ignore (Kernel.exec k ~app:"a" ~cookie:3 (add 80));
  ignore (Kernel.exec k ~app:"a" ~cookie:3 (add 81));
  ignore (Kernel.exec k ~app:"a" ~cookie:3 (add 80));
  Alcotest.(check int) "a re-install queues no event" 0
    (List.length (Kernel.take_pending k));
  ignore
    (Kernel.exec k ~app:"a" ~cookie:3
       (Api.Install_flow (1, Flow_mod.delete ~match_:Match_fields.wildcard_all ())));
  Alcotest.(check int) "a delete queues one event per removed entry" 2
    (List.length (Kernel.take_pending k))

let test_kernel_packet_out_punts_cascade () =
  (* With reflection enabled, a packet-out on the inter-switch port of
     s1 lands at s2, misses, and becomes a packet-in event. *)
  let topo = Topology.linear 2 in
  let k = Kernel.create ~reflect_packet_out:true (Dataplane.create topo) in
  let p = Packet.arp ~src:5 ~dst:6 () in
  ignore
    (Kernel.exec k ~app:"a" ~cookie:1
       (Api.Send_packet_out { dpid = 1; port = 2; packet = p; from_pkt_in = false }));
  match Kernel.take_pending k with
  | [ Events.Packet_in pi ] ->
    Alcotest.(check int) "at s2" 2 pi.Message.dpid;
    Alcotest.(check int) "on s2's port facing s1" 1 pi.Message.in_port
  | evs -> Alcotest.failf "expected cascaded packet-in, got %d events" (List.length evs)

let test_kernel_syscall_via_sandbox () =
  let _topo, _dp, k = kernel_setup 1 in
  ignore
    (Kernel.exec k ~app:"m" ~cookie:1
       (Api.Syscall
          (Api.Net_connect { dst = ipv4_of_string "10.1.0.5"; dst_port = 8080; payload = "r" })));
  Alcotest.(check int) "recorded" 1
    (List.length (Sandbox.connections_by k.Kernel.sandbox ~app:"m"))

(* Runtimes -------------------------------------------------------------------- *)

(* A probe app that counts events and calls the API from its handler. *)
let probe_app ?(subscriptions = [ Api.E_packet_in ]) name =
  let seen = ref 0 in
  let app =
    App.make ~subscriptions
      ~handle:(fun ctx ev ->
        incr seen;
        match ev with
        | Events.Packet_in pi ->
          ignore
            (ctx.App.call
               (Api.Install_flow
                  ( pi.Message.dpid,
                    Flow_mod.add
                      ~match_:(Match_fields.make ~dl_dst:pi.Message.packet.Packet.dl_src ())
                      ~actions:[ Action.Output pi.Message.in_port ] () )))
        | _ -> ())
      name
  in
  (app, seen)

let packet_in_event ?(dpid = 1) () =
  Events.Packet_in
    { Message.dpid; in_port = 1; packet = Packet.arp ~src:0xAA ~dst:0xBB ();
      reason = Message.No_match; buffer_id = None }

let with_runtime ~mode apps f =
  let _topo, dp, k = kernel_setup 2 in
  let rt = Runtime.create ~mode k apps in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) (fun () -> f dp k rt)

let test_runtime_dispatch_both_modes () =
  List.iter
    (fun mode ->
      let app, seen = probe_app "probe" in
      with_runtime ~mode [ (app, Api.allow_all) ] (fun dp _k rt ->
          Runtime.feed_sync rt (packet_in_event ());
          Runtime.feed_sync rt (packet_in_event ());
          Alcotest.(check int) "events seen" 2 !seen;
          (* The handler's flow-mod actually reached the data plane. *)
          let sw = Dataplane.switch dp 1 in
          Alcotest.(check int) "rule installed" 1
            (Flow_table.size sw.Switch.table)))
    [ Runtime.Monolithic; Runtime.Isolated { ksd_threads = 2 } ]

let test_runtime_subscription_routing () =
  let app_pi, seen_pi = probe_app ~subscriptions:[ Api.E_packet_in ] "pi" in
  let app_topo, seen_topo = probe_app ~subscriptions:[ Api.E_topology ] "topo" in
  with_runtime ~mode:Runtime.Monolithic
    [ (app_pi, Api.allow_all); (app_topo, Api.allow_all) ]
    (fun _dp _k rt ->
      Runtime.feed_sync rt (packet_in_event ());
      Alcotest.(check int) "pi app got it" 1 !seen_pi;
      Alcotest.(check int) "topo app did not" 0 !seen_topo)

let test_runtime_event_permission_gate () =
  List.iter
    (fun mode ->
      let app, seen = probe_app "gated" in
      with_runtime ~mode [ (app, Api.deny_all) ] (fun _dp k rt ->
          Runtime.feed_sync rt (packet_in_event ());
          Alcotest.(check int) "suppressed" 0 !seen;
          let _, denials, _, suppressed = Runtime.stats rt in
          Alcotest.(check bool) "denial counted" true (denials >= 1);
          Alcotest.(check int) "suppression counted" 1 suppressed;
          Alcotest.(check bool) "audited" true
            (Sandbox.denied_actions k.Kernel.sandbox ~app:"gated" <> [])))
    [ Runtime.Monolithic; Runtime.Isolated { ksd_threads = 1 } ]

let test_runtime_payload_stripping () =
  (* Checker that allows events but denies payload access. *)
  let no_payload =
    { Api.allow_all with
      Api.check =
        (function
        | Api.Read_payload_access -> Api.Deny "no payload"
        | _ -> Api.Allow) }
  in
  let got = ref "" in
  let app =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun _ctx -> function
        | Events.Packet_in pi -> got := pi.Message.packet.Packet.payload
        | _ -> ())
      "nopayload"
  in
  with_runtime ~mode:Runtime.Monolithic [ (app, no_payload) ] (fun _dp _k rt ->
      let ev =
        Events.Packet_in
          { Message.dpid = 1; in_port = 1;
            packet = Packet.arp ~src:1 ~dst:2 ~payload:"SECRET" ();
            reason = Message.No_match; buffer_id = None }
      in
      Runtime.feed_sync rt ev;
      Alcotest.(check string) "payload stripped" "" !got)

let test_runtime_call_denial () =
  List.iter
    (fun mode ->
      (* Allow event delivery, deny flow installs. *)
      let checker =
        { Api.allow_all with
          Api.check =
            (function
            | Api.Install_flow _ -> Api.Deny "no writes"
            | _ -> Api.Allow) }
      in
      let app, _ = probe_app "nowrite" in
      with_runtime ~mode [ (app, checker) ] (fun dp _k rt ->
          Runtime.feed_sync rt (packet_in_event ());
          let sw = Dataplane.switch dp 1 in
          Alcotest.(check int) "nothing installed" 0 (Flow_table.size sw.Switch.table)))
    [ Runtime.Monolithic; Runtime.Isolated { ksd_threads = 2 } ]

let test_runtime_transaction () =
  List.iter
    (fun mode ->
      let fm p =
        Api.Install_flow
          (1, Flow_mod.add ~match_:(Match_fields.make ~tp_dst:p ()) ~actions:[] ())
      in
      (* Deny installs on port 23; a transaction containing one must
         install nothing at all. *)
      let checker =
        { Api.allow_all with
          Api.check_transaction =
            (fun calls ->
              let bad =
                List.mapi (fun i c -> (i, c)) calls
                |> List.find_opt (fun (_, c) ->
                       match c with
                       | Api.Install_flow (_, f) ->
                         f.Flow_mod.match_.Match_fields.tp_dst = Some 23
                       | _ -> false)
              in
              match bad with
              | Some (i, _) -> Error (i, "telnet forbidden")
              | None -> Ok ()) }
      in
      let result = ref (Ok []) in
      let app =
        App.make
          ~subscriptions:[ Api.E_packet_in ]
          ~handle:(fun ctx _ ->
            result := ctx.App.transaction [ fm 80; fm 23; fm 443 ])
          "txn"
      in
      with_runtime ~mode [ (app, checker) ] (fun dp _k rt ->
          Runtime.feed_sync rt (packet_in_event ());
          (match !result with
          | Error (1, _) -> ()
          | Error (i, _) -> Alcotest.failf "wrong index %d" i
          | Ok _ -> Alcotest.fail "transaction should fail");
          let sw = Dataplane.switch dp 1 in
          Alcotest.(check int) "atomic: nothing installed" 0
            (Flow_table.size sw.Switch.table);
          (* A clean transaction goes through whole. *)
          Runtime.feed_sync rt (packet_in_event ());
          ignore !result))
    [ Runtime.Monolithic; Runtime.Isolated { ksd_threads = 2 } ]

let test_runtime_transaction_success () =
  let fm p =
    Api.Install_flow
      (1, Flow_mod.add ~match_:(Match_fields.make ~tp_dst:p ()) ~actions:[] ())
  in
  let result = ref (Error (0, "unset")) in
  let app =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ -> result := ctx.App.transaction [ fm 80; fm 443 ])
      "txn-ok"
  in
  with_runtime ~mode:(Runtime.Isolated { ksd_threads = 2 })
    [ (app, Api.allow_all) ]
    (fun dp _k rt ->
      Runtime.feed_sync rt (packet_in_event ());
      (match !result with
      | Ok [ Api.Done; Api.Done ] -> ()
      | _ -> Alcotest.fail "transaction should succeed with two Done");
      let sw = Dataplane.switch dp 1 in
      Alcotest.(check int) "both installed" 2 (Flow_table.size sw.Switch.table))

let test_runtime_crash_isolation () =
  (* A handler that raises must not kill the runtime or other apps. *)
  List.iter
    (fun mode ->
      let crasher =
        App.make ~subscriptions:[ Api.E_packet_in ]
          ~handle:(fun _ _ -> failwith "boom")
          "crasher"
      in
      let app, seen = probe_app "survivor" in
      with_runtime ~mode
        [ (crasher, Api.allow_all); (app, Api.allow_all) ]
        (fun _dp k rt ->
          Runtime.feed_sync rt (packet_in_event ());
          Runtime.feed_sync rt (packet_in_event ());
          Alcotest.(check int) "survivor still served" 2 !seen;
          (* The crash is recorded in the audit log. *)
          let crashes =
            List.filter
              (fun (e : Sandbox.audit_entry) ->
                e.Sandbox.app_name = "crasher" && e.Sandbox.action = "handler-exception")
              (Sandbox.audit_log k.Kernel.sandbox)
          in
          Alcotest.(check int) "crashes audited" 2 (List.length crashes)))
    [ Runtime.Monolithic; Runtime.Isolated { ksd_threads = 1 } ]

let test_runtime_async_drain () =
  let app, seen = probe_app "drainee" in
  with_runtime ~mode:(Runtime.Isolated { ksd_threads = 2 })
    [ (app, Api.allow_all) ]
    (fun _dp _k rt ->
      for i = 1 to 50 do
        Runtime.feed rt (packet_in_event ~dpid:(1 + (i mod 2)) ())
      done;
      Runtime.drain rt;
      Alcotest.(check int) "all events handled" 50 !seen)

let test_runtime_cascaded_events () =
  (* topo-change handler fires when another app modifies the topology. *)
  let seen_topo = ref 0 in
  let listener =
    App.make ~subscriptions:[ Api.E_topology ]
      ~handle:(fun _ -> function Events.Topology_changed _ -> incr seen_topo | _ -> ())
      "listener"
  in
  let modifier =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        ignore (ctx.App.call (Api.Modify_topology (Api.Add_switch 77))))
      "modifier"
  in
  List.iter
    (fun mode ->
      seen_topo := 0;
      with_runtime ~mode
        [ (listener, Api.allow_all); (modifier, Api.allow_all) ]
        (fun _dp _k rt ->
          Runtime.feed_sync rt (packet_in_event ());
          Alcotest.(check int) "cascade delivered" 1 !seen_topo))
    [ Runtime.Monolithic; Runtime.Isolated { ksd_threads = 2 } ]

let test_runtime_publish_subscribe () =
  let payload_seen = ref "" in
  let consumer =
    App.make ~subscriptions:[ Api.E_app "chan" ]
      ~handle:(fun _ -> function
        | Events.App_published { payload; _ } -> payload_seen := payload
        | _ -> ())
      "consumer"
  in
  let producer =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        ignore (ctx.App.call (Api.Publish_event { tag = "chan"; payload = "hello" })))
      "producer"
  in
  with_runtime ~mode:(Runtime.Isolated { ksd_threads = 2 })
    [ (consumer, Api.allow_all); (producer, Api.allow_all) ]
    (fun _dp _k rt ->
      Runtime.feed_sync rt (packet_in_event ());
      Alcotest.(check string) "published payload" "hello" !payload_seen)

let suite =
  [ Alcotest.test_case "channel fifo" `Quick test_channel_fifo;
    Alcotest.test_case "channel close" `Quick test_channel_close;
    Alcotest.test_case "channel cross-thread" `Quick test_channel_cross_thread;
    Alcotest.test_case "ivar" `Quick test_ivar;
    Alcotest.test_case "sandbox logs" `Quick test_sandbox_logs;
    Alcotest.test_case "kernel install/read" `Quick test_kernel_install_and_read;
    Alcotest.test_case "kernel unknown switch" `Quick test_kernel_unknown_switch;
    Alcotest.test_case "kernel topology" `Quick test_kernel_topology_view_and_modify;
    Alcotest.test_case "kernel flow-removed" `Quick test_kernel_flow_removed_event;
    Alcotest.test_case "kernel re-install queues no flow-removed" `Quick
      test_kernel_reinstall_queues_nothing;
    Alcotest.test_case "kernel pkt-out cascade" `Quick test_kernel_packet_out_punts_cascade;
    Alcotest.test_case "kernel syscall sandbox" `Quick test_kernel_syscall_via_sandbox;
    Alcotest.test_case "runtime dispatch (both modes)" `Quick test_runtime_dispatch_both_modes;
    Alcotest.test_case "runtime subscription routing" `Quick test_runtime_subscription_routing;
    Alcotest.test_case "runtime event gate" `Quick test_runtime_event_permission_gate;
    Alcotest.test_case "runtime payload stripping" `Quick test_runtime_payload_stripping;
    Alcotest.test_case "runtime call denial" `Quick test_runtime_call_denial;
    Alcotest.test_case "runtime transaction rollback" `Quick test_runtime_transaction;
    Alcotest.test_case "runtime transaction success" `Quick test_runtime_transaction_success;
    Alcotest.test_case "runtime crash isolation" `Quick test_runtime_crash_isolation;
    Alcotest.test_case "runtime async drain" `Quick test_runtime_async_drain;
    Alcotest.test_case "runtime cascaded events" `Quick test_runtime_cascaded_events;
    Alcotest.test_case "runtime publish/subscribe" `Quick test_runtime_publish_subscribe;
    Alcotest.test_case "ivar: parked reader" `Quick test_ivar_parked_reader;
    Alcotest.test_case "ivar: shared park wakes its own reader" `Quick
      test_ivar_shared_park ]
