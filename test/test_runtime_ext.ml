(* Tests for the runtime extensions: the domain-hosted KSD pool,
   load-time access control (§VIII-B), and the stateful checks answered
   from the kernel's flow tables, against regressions, races between
   apps and a serial model. *)

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
    Test_util.checker_of ~topo ~name:"shielded"
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
    Test_util.checker_of ~topo ~name:"overreacher"
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
  let app = App.make ~subscriptions:[ Api.E_packet_in ] "nosy" in
  let checker =
    Test_util.checker_of ~topo ~name:"nosy" "PERM read_statistics"
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
  let app =
    App.make ~uses:[ Api.Cap_flow_write ] ~subscriptions:[ Api.E_packet_in ]
      "clean"
  in
  let checker =
    Test_util.checker_of ~topo ~name:"clean" "PERM pkt_in_event\nPERM insert_flow"
  in
  let rt =
    Runtime.create ~load_check:Runtime.Reject_at_load ~mode:Runtime.Monolithic
      kernel [ (app, checker) ]
  in
  Runtime.shutdown rt;
  Alcotest.(check int) "loaded" 0 (List.length (Runtime.rejected rt))

(* Flow expiry ---------------------------------------------------------------------- *)

let test_flow_expiry_frees_budget_end_to_end () =
  (* An app limited to one rule installs it with a hard timeout; after
     the switch expires it, and its flow-removed event flows through the
     runtime, the engine's budget is open again. *)
  let topo = Topology.linear 1 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
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
    Test_util.checker_of ~topo ~name:"budgeted"
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

(* One record of flow ownership ------------------------------------------------------

   The stateful atoms (OWN_FLOWS, MAX_RULE_COUNT) read the flow tables,
   where the kernel stamps each rule with its issuer's runtime cookie.
   Each case runs on both modes, every call from outside dispatch. *)

let modes =
  [ ("monolithic", Runtime.Monolithic);
    ("isolated", Runtime.Isolated { ksd_threads = 2 }) ]

let add ?(dpid = 1) ?(cookie = 0) ?(hard_timeout = 0) dst len =
  Api.Install_flow
    ( dpid,
      Flow_mod.add ~cookie ~hard_timeout
        ~match_:
          (Match_fields.make ~dl_type:Eth_ip
             ~nw_dst:(Match_fields.subnet (ipv4_of_string dst) (prefix_mask len))
             ())
        ~actions:[ Action.Output 1 ] () )

(* A runtime over two switches hosting [apps] (name, manifest), and a
   [call] that dispatches whatever the call queued, as a handler's
   return would. *)
let hosted mode apps =
  let dp = Dataplane.create (Topology.linear 2) in
  let rt =
    Runtime.create ~mode (Kernel.create dp)
      (List.map (fun (name, src) -> (App.make name, Test_util.checker_of ~name src)) apps)
  in
  let call name c =
    let r = (Runtime.instance_ctx rt name).App.call c in
    Runtime.drain rt;
    r
  in
  (rt, dp, call)

let allowed = function Api.Denied _ -> false | _ -> true

let expect mode what want r =
  Alcotest.(check bool) (mode ^ ": " ^ what) want (allowed r)

(* An Add over an identical entry replaces it; the rule stays its
   issuer's, and counts once. *)
let test_reinstall_keeps_ownership () =
  List.iter
    (fun (m, mode) ->
      let rt, _, call =
        hosted mode
          [ ("a", "PERM insert_flow LIMITING OWN_FLOWS AND MAX_RULE_COUNT 2");
            ("b", "PERM insert_flow LIMITING OWN_FLOWS") ]
      in
      expect m "a adds 10/8" true (call "a" (add "10.0.0.0" 8));
      expect m "a adds 10/8 again" true (call "a" (add "10.0.0.0" 8));
      expect m "b's 10.1/16 lies inside a's rule" false (call "b" (add "10.1.0.0" 16));
      expect m "a's second rule" true (call "a" (add "11.0.0.0" 8));
      expect m "a's third rule" false (call "a" (add "12.0.0.0" 8));
      Runtime.shutdown rt)
    modes

(* A cookie the app sets picks no owner: the kernel stamps the app's
   own. *)
let test_cookie_spoof () =
  List.iter
    (fun (m, mode) ->
      let rt, dp, call = hosted mode [ ("a", "PERM insert_flow LIMITING MAX_RULE_COUNT 2") ] in
      expect m "1st" true (call "a" (add ~cookie:999 "10.0.0.0" 8));
      expect m "2nd" true (call "a" (add ~cookie:999 "11.0.0.0" 8));
      Alcotest.(check (list int)) (m ^ ": entries carry the runtime cookie") [ 1; 1 ]
        (List.map
           (fun (e : Flow_table.entry) -> e.Flow_table.cookie)
           (Flow_table.entries (Dataplane.switch dp 1).Switch.table));
      expect m "3rd over budget" false (call "a" (add ~cookie:999 "12.0.0.0" 8));
      Runtime.shutdown rt)
    modes

(* A flow-mod the kernel refuses lands nowhere, so it costs no
   budget. *)
let test_failed_exec_costs_nothing () =
  List.iter
    (fun (m, mode) ->
      let rt, _, call = hosted mode [ ("a", "PERM insert_flow LIMITING MAX_RULE_COUNT 1") ] in
      let refused what r =
        match r with
        | Api.Failed why when String.starts_with ~prefix:"unknown switch" why -> ()
        | r -> Alcotest.failf "%s: %s: %a" m what Api.pp_result r
      in
      refused "1st to s99" (call "a" (add ~dpid:99 "10.0.0.0" 8));
      refused "2nd to s99, by the kernel" (call "a" (add ~dpid:99 "10.0.0.0" 8));
      expect m "the budget is still free" true (call "a" (add "10.0.0.0" 8));
      Runtime.shutdown rt)
    modes

(* A rule counts while it is in a table: its expiry frees the budget
   before any event is fed. *)
let test_expiry_frees_budget_at_once () =
  List.iter
    (fun (m, mode) ->
      let rt, dp, call = hosted mode [ ("a", "PERM insert_flow LIMITING MAX_RULE_COUNT 1") ] in
      expect m "1st" true (call "a" (add ~hard_timeout:1 "10.0.0.0" 8));
      expect m "2nd over budget" false (call "a" (add "11.0.0.0" 8));
      Alcotest.(check int) (m ^ ": one rule expired") 1 (List.length (Dataplane.tick dp));
      expect m "2nd after the expiry" true (call "a" (add "11.0.0.0" 8));
      Runtime.shutdown rt)
    modes

(* An upgrade republishes the app's engine bound like the one before
   it, so the app's installed rules still count. *)
let test_upgrade_keeps_budget () =
  List.iter
    (fun (m, mode) ->
      let ep =
        match Epoch.create ~policy:"" () with
        | Ok ep -> ep
        | Error e -> Alcotest.fail e
      in
      let apply req =
        Alcotest.(check bool) (m ^ ": committed") true
          (Market.committed (Epoch.apply ep req))
      in
      apply (Market.install "a" "PERM insert_flow LIMITING MAX_RULE_COUNT 2");
      let rt = Runtime.create ~mode (Kernel.create (Dataplane.create (Topology.linear 2)))
          [ (App.make "a", Epoch.checker ep "a") ]
      in
      let call c = (Runtime.instance_ctx rt "a").App.call c in
      expect m "1st" true (call (add "10.0.0.0" 8));
      expect m "2nd" true (call (add "11.0.0.0" 8));
      apply
        (Market.upgrade "a" "PERM insert_flow LIMITING MAX_RULE_COUNT 2\nPERM read_statistics");
      expect m "3rd, after the upgrade" false (call (add "12.0.0.0" 8));
      Runtime.shutdown rt;
      Epoch.close ep)
    modes

(* Two apps' calls at once ------------------------------------------------------- *)

(* [trials] rounds of two caller domains on [Isolated { ksd_threads = 2 }].
   In each, the main domain releases the other, waits until it is about
   to make [other]'s call, and makes [main]'s; [judge] then reads both
   results and counts a failure, and [reset] clears the tables. *)
let race ~trials ~main ~other ~judge ~reset =
  let go = Atomic.make 0 and ready = Atomic.make 0 and finished = Atomic.make 0 in
  let results = Array.make (trials + 1) (Api.Failed "not run") in
  let spin_until cell i =
    while Atomic.get cell < i do
      Domain.cpu_relax ()
    done
  in
  let d =
    Domain.spawn (fun () ->
        for i = 1 to trials do
          spin_until go i;
          Atomic.set ready i;
          results.(i) <- other ();
          Atomic.set finished i
        done)
  in
  let failures = ref 0 in
  for i = 1 to trials do
    Atomic.set go i;
    spin_until ready i;
    let mine = main () in
    spin_until finished i;
    if judge mine results.(i) then incr failures;
    reset ()
  done;
  Domain.join d;
  !failures

let wipe dpid = Api.Install_flow (dpid, Flow_mod.delete ~match_:Match_fields.wildcard_all ())

let race_trials = 2_000

(* §VII Scenario 2's anti-tunnel rule across apps: a's 10/8 and b's
   10.1/16 overlap, so whichever lands first, the other is denied. *)
let test_race_own_flows () =
  let rt, _, call =
    hosted (Runtime.Isolated { ksd_threads = 2 })
      [ ("a", "PERM insert_flow LIMITING OWN_FLOWS");
        ("b", "PERM insert_flow LIMITING OWN_FLOWS");
        ("admin", "PERM delete_flow") ]
  in
  let ctx = Runtime.instance_ctx rt in
  let failures =
    race ~trials:race_trials
      ~main:(fun () -> (ctx "a").App.call (add "10.0.0.0" 8))
      ~other:(fun () -> (ctx "b").App.call (add "10.1.0.0" 16))
      ~judge:(fun ra rb -> allowed ra && allowed rb)
      ~reset:(fun () -> ignore (call "admin" (wipe 1)))
  in
  Runtime.shutdown rt;
  Alcotest.(check int) "trials with both overlapping adds allowed" 0 failures

(* A denied group executes nothing, so it cannot undo another app's
   rule: b's insert stays in the table and in b's budget. *)
let test_race_denied_group () =
  let rt, dp, call =
    hosted (Runtime.Isolated { ksd_threads = 2 })
      [ ("a", "PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0");
        ("b", "PERM insert_flow LIMITING MAX_RULE_COUNT 1");
        ("admin", "PERM delete_flow") ]
  in
  let ctx = Runtime.instance_ctx rt in
  let group =
    [ add "10.1.0.0" 16; add "10.2.0.0" 16; add "10.3.0.0" 16; add "192.168.0.0" 16 ]
  in
  let failures =
    race ~trials:(race_trials / 2)
      ~main:(fun () ->
        match (ctx "a").App.transaction group with
        | Error (3, why) -> Api.Denied why
        | Error (i, why) -> Api.Failed (Printf.sprintf "call %d: %s" i why)
        | Ok _ -> Api.Done)
      ~other:(fun () -> (ctx "b").App.call (add ~dpid:2 "20.0.0.0" 16))
      ~judge:(fun ra rb ->
        let b_rules = Flow_table.size (Dataplane.switch dp 2).Switch.table in
        (match ra with Api.Denied _ -> false | _ -> true)
        || (not (allowed rb))
        || b_rules <> 1
        || allowed ((ctx "b").App.call (add ~dpid:2 "21.0.0.0" 16)))
      ~reset:(fun () -> ignore (call "admin" (wipe 2)))
  in
  Runtime.shutdown rt;
  Alcotest.(check int) "trials where b's rule left the table or its budget" 0 failures

(* Serial model ------------------------------------------------------------------

   Random multi-app scripts through the runtime on both modes, replayed
   one call at a time in issue order through [Serial_model]: every
   decision and the final flow tables must equal the model's. *)

type script_op =
  | Call of int * Api.call
  | Txn of int * Api.call list
  | Tick

let flow_mod_gen : Api.call QCheck.Gen.t =
  let open QCheck.Gen in
  let match_ =
    oneof
      [ map
          (fun d ->
            Match_fields.make ~dl_type:Eth_ip
              ~nw_dst:(Match_fields.exact_ip (ipv4_of_octets 10 0 0 d))
              ())
          (int_range 1 3);
        return
          (Match_fields.make ~dl_type:Eth_ip
             ~nw_dst:(Match_fields.subnet (ipv4_of_octets 10 0 0 0) (prefix_mask 24))
             ()) ]
  in
  (* Switch 3 is not in the two-switch network: the kernel refuses it. *)
  let dpid = frequency [ (6, int_range 1 2); (1, return 3) ] in
  let cookie = oneofl [ 0; 0; 1; 2; 999 ] in
  let hard_timeout = oneofl [ 0; 0; 1; 2 ] in
  let priority = oneofl [ 100; 200 ] in
  let actions = [ Action.Output 1 ] in
  map2
    (fun (dpid, match_, cookie) (command, hard_timeout, priority) ->
      let fm =
        match command with
        | `Add -> Flow_mod.add ~priority ~cookie ~hard_timeout ~match_ ~actions ()
        | `Modify -> Flow_mod.modify ~priority ~cookie ~match_ ~actions ()
        | `Delete -> Flow_mod.delete ~match_ ()
      in
      Api.Install_flow (dpid, fm))
    (triple dpid match_ cookie)
    (triple (frequency [ (5, return `Add); (1, return `Modify); (2, return `Delete) ])
       hard_timeout priority)

let script_gen : (Perm.manifest list * script_op list) QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 2 3 >>= fun apps ->
  let app = int_bound (apps - 1) in
  pair
    (list_repeat apps Test_automaton.stateful_manifest_gen)
    (list_size (int_range 1 30)
       (frequency
          [ (6, map2 (fun a c -> Call (a, c)) app flow_mod_gen);
            (2, map2 (fun a cs -> Txn (a, cs)) app (list_size (int_range 2 4) flow_mod_gen));
            (1, return Tick) ]))

let pp_script_op ppf = function
  | Call (a, c) -> Fmt.pf ppf "app%d: %a" a Api.pp_call c
  | Txn (a, cs) -> Fmt.pf ppf "app%d: txn [%a]" a Fmt.(list ~sep:semi Api.pp_call) cs
  | Tick -> Fmt.string ppf "tick"

let script_arb =
  QCheck.make script_gen ~print:(fun (ms, ops) ->
      Fmt.str "%a@.%a"
        Fmt.(list ~sep:cut (using Perm.to_string string)) ms
        Fmt.(list ~sep:cut pp_script_op) ops)

let rules_of_table entries =
  List.map (fun (e : Flow_table.entry) -> (e.match_, e.priority, e.cookie, e.actions)) entries

let rules_of_model entries =
  List.map
    (fun (e : Flow_table_ref.entry) -> (e.match_, e.priority, e.cookie, e.actions))
    entries

let serial_agree mode (manifests, ops) =
  let dp = Dataplane.create (Topology.linear 2) in
  let names = List.mapi (fun i _ -> Printf.sprintf "app%d" i) manifests in
  let rt =
    Runtime.create ~mode (Kernel.create dp)
      (List.map2
         (fun name m ->
           (App.make name, Engine.checker (Engine.create ~app_name:name m)))
         names manifests)
  in
  let model = Serial_model.create [ 1; 2 ] in
  (* The runtime stamps the i-th hosted app's rules with cookie i + 1. *)
  let manifest i = List.nth manifests i and cookie i = i + 1 in
  let ctx i = Runtime.instance_ctx rt (List.nth names i) in
  let agree =
    List.for_all
      (fun op ->
        let same =
          match op with
          | Call (i, c) ->
            let got = allowed ((ctx i).App.call c) in
            got = Serial_model.call model ~cookie:(cookie i) (manifest i) c
          | Txn (i, cs) ->
            let got = Result.map (fun _ -> ()) ((ctx i).App.transaction cs) in
            let want = Serial_model.transaction model ~cookie:(cookie i) (manifest i) cs in
            Result.map_error fst got = want
          | Tick ->
            ignore (Dataplane.tick dp);
            Serial_model.tick model;
            true
        in
        Runtime.drain rt;
        same)
      ops
  in
  let tables =
    List.for_all
      (fun d ->
        rules_of_table (Flow_table.entries (Dataplane.switch dp d).Switch.table)
        = rules_of_model (Serial_model.entries model d))
      [ 1; 2 ]
  in
  Runtime.shutdown rt;
  agree && tables

let serial_qsuite =
  List.map
    (fun (name, mode) ->
      QCheck.Test.make ~count:150
        ~name:(Printf.sprintf "runtime = serial model (%s)" name)
        script_arb (serial_agree mode))
    modes

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
      test_isolated_feed_inline;
    Alcotest.test_case "re-install keeps ownership" `Quick test_reinstall_keeps_ownership;
    Alcotest.test_case "app-set cookie picks no owner" `Quick test_cookie_spoof;
    Alcotest.test_case "failed exec costs no budget" `Quick test_failed_exec_costs_nothing;
    Alcotest.test_case "expiry frees budget before any event" `Quick
      test_expiry_frees_budget_at_once;
    Alcotest.test_case "upgrade keeps the installed rules' budget" `Quick
      test_upgrade_keeps_budget;
    Alcotest.test_case "race: overlapping OWN_FLOWS adds" `Quick test_race_own_flows;
    Alcotest.test_case "race: denied group beside an insert" `Quick test_race_denied_group ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) serial_qsuite
