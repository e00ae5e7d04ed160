(* Permission-engine tests (§VI-B): token gating, stateful filters
   (ownership, rule budgets), transactional rollback, result vetting
   (visibility filtering) and virtual-topology translation. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Sdnshield

let ip = ipv4_of_string

let insert ?(dpid = 1) ?(priority = 100) ?(cookie = 0) ?(hard_timeout = 0)
    ?(nw_dst = "10.13.1.2") ?(actions = [ Action.Output 1 ]) () =
  Api.Install_flow
    ( dpid,
      Flow_mod.add ~priority ~cookie ~hard_timeout
        ~match_:(Match_fields.make ~dl_type:Eth_ip ~nw_dst:(Match_fields.exact_ip (ip nw_dst)) ())
        ~actions () )

let delete ?(dpid = 1) ?(nw_dst = "10.13.1.2") () =
  Api.Install_flow
    ( dpid,
      Flow_mod.delete
        ~match_:(Match_fields.make ~nw_dst:(Match_fields.exact_ip (ip nw_dst)) ())
        () )

let test_missing_token_denied () =
  let e = Test_util.engine_of ~name:"a" "PERM read_statistics" in
  Test_util.check_deny "insert without token" (Engine.check e (insert ()));
  Test_util.check_allow "stats with token"
    (Engine.check e (Api.Read_stats (Stats.request Stats.Port_level)));
  let checks, denials = Engine.stats e in
  Alcotest.(check int) "checks counted" 2 checks;
  Alcotest.(check int) "denials counted" 1 denials

let test_filter_gating () =
  let e =
    Test_util.engine_of ~name:"a"
      "PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0"
  in
  Test_util.check_allow "inside subnet" (Engine.check e (insert ()));
  Test_util.check_deny "outside subnet"
    (Engine.check e (insert ~nw_dst:"10.14.1.2" ()))

let test_insert_includes_modify_delete_separate () =
  let e = Test_util.engine_of ~name:"a" "PERM insert_flow" in
  (* Modify rides on insert_flow (Table II: "including insert and
     modify"), delete needs its own token. *)
  let modify =
    Api.Install_flow
      (1, Flow_mod.modify ~match_:Match_fields.wildcard_all ~actions:[] ())
  in
  Test_util.check_allow "modify via insert_flow" (Engine.check e modify);
  Test_util.check_deny "delete needs delete_flow" (Engine.check e (delete ()))

let test_event_tokens () =
  let e =
    Test_util.engine_of ~name:"a" "PERM pkt_in_event\nPERM flow_event"
  in
  Test_util.check_allow "pkt-in event"
    (Engine.check e (Api.Receive_event Api.E_packet_in));
  Test_util.check_allow "flow event" (Engine.check e (Api.Receive_event Api.E_flow));
  Test_util.check_deny "topology event"
    (Engine.check e (Api.Receive_event Api.E_topology));
  (* Inter-app events need no token. *)
  Test_util.check_allow "app event" (Engine.check e (Api.Receive_event (Api.E_app "x")));
  Test_util.check_allow "publish"
    (Engine.check e (Api.Publish_event { tag = "x"; payload = "" }))

let test_syscall_tokens () =
  let e = Test_util.engine_of ~name:"a" "PERM file_system" in
  Test_util.check_allow "file open"
    (Engine.check e (Api.Syscall (Api.File_open { path = "/tmp/x"; write = true })));
  Test_util.check_deny "net connect"
    (Engine.check e
       (Api.Syscall (Api.Net_connect { dst = ip "1.2.3.4"; dst_port = 80; payload = "" })));
  Test_util.check_deny "spawn"
    (Engine.check e (Api.Syscall (Api.Spawn_process "sh")))

let test_unresolved_macro_rejected () =
  let m = Perm_parser.manifest_exn "PERM host_network LIMITING AdminRange" in
  Alcotest.check_raises "engine refuses stubs"
    (Invalid_argument
       "engine: manifest of a has unresolved macros: AdminRange")
    (fun () -> ignore (Engine.create ~app_name:"a" m))

(* Flow ownership ----------------------------------------------------------------

   The engines are bound to one data plane, as a runtime binds them,
   and [run] executes each allowed call there, stamped with its app's
   cookie: the flow tables are the only record of who owns which
   rule. *)

type bound = { engine : Engine.t; kernel : Kernel.t; cookie : int }

let kernel () = Kernel.create (Dataplane.create (Topology.linear 3))

let bound kernel ~cookie src =
  let engine = Test_util.engine_of ~name:(string_of_int cookie) src in
  Engine.bind engine kernel.Kernel.dataplane ~cookie;
  { engine; kernel; cookie }

let run b call =
  let d = Engine.check b.engine call in
  (match d with
  | Api.Allow -> ignore (Kernel.exec b.kernel ~app:"test" ~cookie:b.cookie call)
  | Api.Deny _ -> ());
  d

(* A transaction as the runtime runs it: checked as a whole, then
   executed. *)
let run_txn b calls =
  let r = Engine.check_transaction b.engine calls in
  if Result.is_ok r then
    List.iter (fun c -> ignore (Kernel.exec b.kernel ~app:"test" ~cookie:b.cookie c)) calls;
  r

(* Rules carrying [b]'s cookie, over every switch. *)
let rules b =
  Hashtbl.fold
    (fun _ sw n ->
      Flow_table.fold
        (fun e n -> if e.Flow_table.cookie = b.cookie then n + 1 else n)
        sw.Switch.table n)
    b.kernel.Kernel.dataplane.Dataplane.switches 0

let two_engines () =
  let k = kernel () in
  let alice =
    bound k ~cookie:1
      "PERM insert_flow LIMITING OWN_FLOWS\nPERM delete_flow LIMITING OWN_FLOWS"
  in
  let bob = bound k ~cookie:2 "PERM insert_flow\nPERM delete_flow" in
  (alice, bob)

let test_ownership_blocks_overlap () =
  let alice, bob = two_engines () in
  (* Bob (unrestricted) installs a rule; Alice (own-flows-only) cannot
     overlap it, even with a fresh add. *)
  Test_util.check_allow "bob installs" (run bob (insert ~nw_dst:"10.13.1.2" ()));
  Test_util.check_deny "alice cannot shadow"
    (run alice (insert ~nw_dst:"10.13.1.2" ~priority:999 ()));
  Test_util.check_allow "alice elsewhere ok"
    (run alice (insert ~nw_dst:"10.13.9.9" ()));
  (* And she cannot delete his rule. *)
  Test_util.check_deny "alice cannot delete bob's"
    (run alice (delete ~nw_dst:"10.13.1.2" ()));
  (* She can delete her own. *)
  Test_util.check_allow "alice deletes hers"
    (run alice (delete ~nw_dst:"10.13.9.9" ()))

let test_ownership_delete_clears_state () =
  let alice, bob = two_engines () in
  Test_util.check_allow "bob installs" (run bob (insert ()));
  Test_util.check_allow "bob deletes" (run bob (delete ()));
  (* Once bob's rule is gone, alice may use the space. *)
  Test_util.check_allow "alice takes over" (run alice (insert ()))

let test_rule_count_budget () =
  let e =
    bound (kernel ()) ~cookie:1
      "PERM insert_flow LIMITING MAX_RULE_COUNT 2\nPERM delete_flow"
  in
  Test_util.check_allow "1st" (run e (insert ~nw_dst:"10.0.0.1" ()));
  Test_util.check_allow "2nd" (run e (insert ~nw_dst:"10.0.0.2" ()));
  Test_util.check_deny "3rd over budget" (run e (insert ~nw_dst:"10.0.0.3" ()));
  (* Deleting frees budget. *)
  Test_util.check_allow "delete" (run e (delete ~nw_dst:"10.0.0.1" ()));
  Test_util.check_allow "3rd now fits" (run e (insert ~nw_dst:"10.0.0.3" ()))

let test_flow_removed_forget () =
  let e = bound (kernel ()) ~cookie:1 "PERM insert_flow LIMITING MAX_RULE_COUNT 1" in
  Test_util.check_allow "1st" (run e (insert ~hard_timeout:1 ~nw_dst:"10.0.0.1" ()));
  Test_util.check_deny "budget full" (run e (insert ~nw_dst:"10.0.0.2" ()));
  (* The switch expires the rule: it leaves the table, and the budget
     frees at once, before any flow-removed event is dispatched. *)
  Alcotest.(check int) "one rule expired" 1
    (List.length (Dataplane.tick e.kernel.Kernel.dataplane));
  Test_util.check_allow "budget freed" (run e (insert ~nw_dst:"10.0.0.2" ()))

(* Transactions -------------------------------------------------------------------- *)

let test_transaction_rollback_state () =
  let e =
    bound (kernel ()) ~cookie:1
      "PERM insert_flow LIMITING MAX_RULE_COUNT 2 AND IP_DST 10.0.0.0 MASK 255.0.0.0"
  in
  (* Transaction: two fine inserts then one out-of-subnet. *)
  (match
     run_txn e
       [ insert ~nw_dst:"10.0.0.1" (); insert ~nw_dst:"10.0.0.2" ();
         insert ~nw_dst:"192.168.0.1" () ]
   with
  | Error (2, _) -> ()
  | Error (i, _) -> Alcotest.failf "wrong index %d" i
  | Ok () -> Alcotest.fail "expected failure");
  (* A denied group executed nothing: the budget is still empty. *)
  Alcotest.(check int) "state rolled back" 0 (rules e);
  (* A conforming transaction commits its state. *)
  (match run_txn e [ insert ~nw_dst:"10.0.0.1" (); insert ~nw_dst:"10.0.0.2" () ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "clean transaction should pass");
  Alcotest.(check int) "committed" 2 (rules e);
  (* Budget-aware: a third insert inside a new transaction fails and the
     earlier state survives. *)
  (match run_txn e [ insert ~nw_dst:"10.0.0.3" () ] with
  | Error (0, _) -> ()
  | _ -> Alcotest.fail "expected budget denial");
  Alcotest.(check int) "unchanged" 2 (rules e)

let test_transaction_intra_visibility () =
  (* Within a transaction, earlier calls' state is visible to later
     ones: two inserts exceed a budget of one even though each alone
     would pass. *)
  let e = bound (kernel ()) ~cookie:1 "PERM insert_flow LIMITING MAX_RULE_COUNT 1" in
  match
    Engine.check_transaction e.engine
      [ insert ~nw_dst:"10.0.0.1" (); insert ~nw_dst:"10.0.0.2" () ]
  with
  | Error (1, _) -> ()
  | _ -> Alcotest.fail "second insert must see the first's budget use"

(* Result vetting ------------------------------------------------------------------- *)

let test_vet_flow_entries_ownership () =
  let e = (bound (kernel ()) ~cookie:1 "PERM read_flow_table LIMITING OWN_FLOWS").engine in
  let entries =
    [ (1,
       [ { Stats.match_ = Match_fields.wildcard_all; priority = 1; cookie = 1;
           packet_count = 0L; byte_count = 0L; duration_sec = 0 };
         { Stats.match_ = Match_fields.wildcard_all; priority = 2; cookie = 2;
           packet_count = 0L; byte_count = 0L; duration_sec = 0 } ]) ]
  in
  match
    Engine.vet_result e
      (Api.Read_flow_table { dpid = None; pattern = None })
      (Api.Flow_entries entries)
  with
  | Api.Flow_entries [ (1, [ fs ]) ] ->
    Alcotest.(check int) "only own entry" 1 fs.Stats.cookie
  | r -> Alcotest.failf "unexpected vetting result: %a" Api.pp_result r

let test_vet_flow_entries_subnet () =
  let e =
    Test_util.engine_of ~name:"a"
      "PERM read_flow_table LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0"
  in
  let entry nw_dst =
    { Stats.match_ =
        Match_fields.make ~nw_dst:(Match_fields.exact_ip (ip nw_dst)) ();
      priority = 1; cookie = 9; packet_count = 0L; byte_count = 0L;
      duration_sec = 0 }
  in
  match
    Engine.vet_result e
      (Api.Read_flow_table { dpid = None; pattern = None })
      (Api.Flow_entries [ (1, [ entry "10.13.1.1"; entry "10.14.1.1" ]) ])
  with
  | Api.Flow_entries [ (1, [ kept ]) ] ->
    Alcotest.(check bool) "in-subnet entry kept" true
      (Match_fields.equal kept.Stats.match_ (entry "10.13.1.1").Stats.match_)
  | r -> Alcotest.failf "unexpected: %a" Api.pp_result r

let test_vet_topology_switch_set () =
  let e =
    Test_util.engine_of ~name:"a"
      "PERM visible_topology LIMITING SWITCH 1,2"
  in
  let topo = Topology.linear 4 in
  let view =
    { Api.switches = [ 1; 2; 3; 4 ];
      links =
        List.map (fun (l : Topology.link) -> (l.Topology.src, l.Topology.dst))
          (Topology.undirected_links topo);
      hosts = Topology.hosts topo }
  in
  match Engine.vet_result e Api.Read_topology (Api.Topology_of view) with
  | Api.Topology_of v ->
    Alcotest.(check (list int)) "switches filtered" [ 1; 2 ] v.Api.switches;
    Alcotest.(check int) "only s1-s2 link" 1 (List.length v.Api.links);
    Alcotest.(check int) "only attached hosts" 2 (List.length v.Api.hosts)
  | r -> Alcotest.failf "unexpected: %a" Api.pp_result r

let test_vet_stats_by_switch () =
  let e =
    Test_util.engine_of ~name:"a"
      "PERM read_statistics LIMITING SWITCH 2"
  in
  let reply =
    Stats.Switch_stats
      [ { Stats.dpid = 1; flow_count = 1; total_packets = 0L; total_bytes = 0L };
        { Stats.dpid = 2; flow_count = 2; total_packets = 0L; total_bytes = 0L } ]
  in
  match
    Engine.vet_result e
      (Api.Read_stats (Stats.request Stats.Switch_level))
      (Api.Stats_result reply)
  with
  | Api.Stats_result (Stats.Switch_stats [ s ]) ->
    Alcotest.(check int) "only s2" 2 s.Stats.dpid
  | r -> Alcotest.failf "unexpected: %a" Api.pp_result r

(* Virtual topology ---------------------------------------------------------------------- *)

let vtopo_engine () =
  let topo = Topology.linear 3 in
  let e =
    Test_util.engine_of ~topo ~name:"tenant"
      "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS\n\
       PERM insert_flow\nPERM read_statistics\nPERM send_pkt_out"
  in
  (topo, e)

let test_vtopo_check_confines_to_vswitch () =
  let _topo, e = vtopo_engine () in
  Test_util.check_allow "vswitch targetable"
    (Engine.check e (insert ~dpid:Filter_eval.virtual_big_switch_dpid ()));
  Test_util.check_deny "physical hidden" (Engine.check e (insert ~dpid:1 ()))

(* Deputy domains and the dispatcher check against one engine in
   parallel, so its counters must not lose updates: two domains each
   make 100k lock-free checks (allowed, denied by the automaton,
   confined by the virtual topology) and the totals are exact. *)
let test_stats_exact_across_domains () =
  let _topo, e = vtopo_engine () in
  let calls =
    [| Api.Read_stats (Stats.request Stats.Flow_level);
       Api.Syscall (Api.Spawn_process "sh");
       Api.Read_flow_table { dpid = Some 1; pattern = None } |]
  in
  let n = 100_000 and ready = Atomic.make 0 in
  let checker () =
    (* Start together, so the two runs overlap. *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let denials = ref 0 in
    for i = 0 to n - 1 do
      match Engine.check e calls.(i mod 3) with
      | Api.Deny _ -> incr denials
      | Api.Allow -> ()
    done;
    !denials
  in
  let d1 = Domain.spawn checker and d2 = Domain.spawn checker in
  let denials = Domain.join d1 + Domain.join d2 in
  Alcotest.(check (pair int int)) "(checks, denials)" (2 * n, denials)
    (Engine.stats e)

let test_vtopo_flow_translation () =
  let _topo, e = vtopo_engine () in
  (* The big switch's external ports are the three host ports, sorted:
     vport1=(s1,p3), vport2=(s2,p3), vport3=(s3,p3).  A rule from vport
     1 to vport 3 becomes per-hop rules at s1, s2, s3. *)
  let fm =
    Flow_mod.add
      ~match_:(Match_fields.make ~in_port:1 ~dl_type:Eth_ip ())
      ~actions:[ Action.Output 3 ] ()
  in
  let calls = Engine.rewrite e (Api.Install_flow (Filter_eval.virtual_big_switch_dpid, fm)) in
  let dpids =
    List.filter_map (function Api.Install_flow (d, _) -> Some d | _ -> None) calls
    |> List.sort compare
  in
  Alcotest.(check (list int)) "rules along path" [ 1; 2; 3 ] dpids;
  (* The egress hop emits on the physical host port. *)
  let egress =
    List.find_map
      (function
        | Api.Install_flow (3, f) -> Some f.Flow_mod.actions
        | _ -> None)
      calls
  in
  Alcotest.(check bool) "egress to host port" true
    (egress = Some [ Action.Output 3 ])

let test_vtopo_topology_view () =
  let _topo, e = vtopo_engine () in
  let view =
    match
      Engine.vet_result e Api.Read_topology
        (Api.Topology_of { Api.switches = [ 1; 2; 3 ]; links = []; hosts = [] })
    with
    | Api.Topology_of v -> v
    | _ -> Alcotest.fail "expected a view"
  in
  Alcotest.(check (list int)) "one big switch"
    [ Filter_eval.virtual_big_switch_dpid ]
    view.Api.switches;
  Alcotest.(check int) "all hosts mapped" 3 (List.length view.Api.hosts);
  List.iter
    (fun (h : Topology.host) ->
      Alcotest.(check int) "host on vswitch" Filter_eval.virtual_big_switch_dpid
        h.Topology.attachment.Topology.dpid)
    view.Api.hosts

let test_vtopo_stats_aggregation () =
  let _topo, e = vtopo_engine () in
  let call =
    Api.Read_stats (Stats.request ~dpid:Filter_eval.virtual_big_switch_dpid Stats.Switch_level)
  in
  (* The rewrite fans out to members... *)
  let calls = Engine.rewrite e call in
  Alcotest.(check int) "fanned out" 3 (List.length calls);
  (* ...and the results merge + aggregate into the big switch. *)
  let per_member d =
    Api.Stats_result
      (Stats.Switch_stats
         [ { Stats.dpid = d; flow_count = d; total_packets = 0L; total_bytes = 0L } ])
  in
  let combined = Engine.merge_results call [ per_member 1; per_member 2; per_member 3 ] in
  match Engine.vet_result e call combined with
  | Api.Stats_result (Stats.Switch_stats [ s ]) ->
    Alcotest.(check int) "vdpid" Filter_eval.virtual_big_switch_dpid s.Stats.dpid;
    Alcotest.(check int) "flows summed" 6 s.Stats.flow_count
  | r -> Alcotest.failf "unexpected: %a" Api.pp_result r

let test_vtopo_packet_out_translation () =
  let _topo, e = vtopo_engine () in
  let call =
    Api.Send_packet_out
      { dpid = Filter_eval.virtual_big_switch_dpid; port = 2;
        packet = Packet.arp ~src:1 ~dst:2 (); from_pkt_in = false }
  in
  match Engine.rewrite e call with
  | [ Api.Send_packet_out { dpid = 2; port = 3; _ } ] -> ()
  | _ -> Alcotest.fail "vport 2 should map to s2 host port"

(* Engine as checker (wired into a runtime) ---------------------------------------------- *)

let test_engine_in_runtime_end_to_end () =
  let topo = Topology.linear 2 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let installs = ref [] in
  let app =
    App.make ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        installs :=
          [ ctx.App.call (insert ~nw_dst:"10.13.0.1" ());
            ctx.App.call (insert ~nw_dst:"10.99.0.1" ()) ])
      "worker"
  in
  let checker =
    Test_util.checker_of ~name:"worker"
      "PERM pkt_in_event\nPERM read_payload\n\
       PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0"
  in
  let rt = Runtime.create ~mode:(Runtime.Isolated { ksd_threads = 2 }) kernel [ (app, checker) ] in
  Runtime.feed_sync rt
    (Events.Packet_in
       { Message.dpid = 1; in_port = 1; packet = Packet.arp ~src:1 ~dst:2 ();
         reason = Message.No_match; buffer_id = None });
  Runtime.shutdown rt;
  (match !installs with
  | [ Api.Done; Api.Denied _ ] -> ()
  | rs -> Alcotest.failf "unexpected results: %a" Fmt.(list Api.pp_result) rs);
  let sw = Dataplane.switch dp 1 in
  Alcotest.(check int) "only conforming rule installed" 1
    (Flow_table.size sw.Switch.table)

let suite =
  [ Alcotest.test_case "missing token denied" `Quick test_missing_token_denied;
    Alcotest.test_case "filter gating" `Quick test_filter_gating;
    Alcotest.test_case "insert/modify/delete tokens" `Quick test_insert_includes_modify_delete_separate;
    Alcotest.test_case "event tokens" `Quick test_event_tokens;
    Alcotest.test_case "syscall tokens" `Quick test_syscall_tokens;
    Alcotest.test_case "unresolved macro rejected" `Quick test_unresolved_macro_rejected;
    Alcotest.test_case "ownership blocks overlap" `Quick test_ownership_blocks_overlap;
    Alcotest.test_case "ownership cleared by delete" `Quick test_ownership_delete_clears_state;
    Alcotest.test_case "rule-count budget" `Quick test_rule_count_budget;
    Alcotest.test_case "flow-removed frees budget" `Quick test_flow_removed_forget;
    Alcotest.test_case "transaction rollback" `Quick test_transaction_rollback_state;
    Alcotest.test_case "transaction intra-visibility" `Quick test_transaction_intra_visibility;
    Alcotest.test_case "vet: ownership visibility" `Quick test_vet_flow_entries_ownership;
    Alcotest.test_case "vet: subnet visibility" `Quick test_vet_flow_entries_subnet;
    Alcotest.test_case "vet: topology switch set" `Quick test_vet_topology_switch_set;
    Alcotest.test_case "vet: stats by switch" `Quick test_vet_stats_by_switch;
    Alcotest.test_case "vtopo: confinement" `Quick test_vtopo_check_confines_to_vswitch;
    Alcotest.test_case "stats exact across domains" `Quick
      test_stats_exact_across_domains;
    Alcotest.test_case "vtopo: flow translation" `Quick test_vtopo_flow_translation;
    Alcotest.test_case "vtopo: topology view" `Quick test_vtopo_topology_view;
    Alcotest.test_case "vtopo: stats aggregation" `Quick test_vtopo_stats_aggregation;
    Alcotest.test_case "vtopo: packet-out translation" `Quick test_vtopo_packet_out_translation;
    Alcotest.test_case "engine in runtime e2e" `Quick test_engine_in_runtime_end_to_end ]
