(* Forensic analysis over activity logs (§VII): per-app summaries and
   attack-class suspicion heuristics. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Shield_apps

let run_incident ~protected_ () =
  (* An RST injector and an info leaker run beside a benign monitor;
     forensics must finger the right apps from the logs alone. *)
  let topo = Topology.linear 3 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let rst = Attacks.rst_injector () in
  let leaker = Attacks.info_leaker () in
  let monitor = Monitoring.create ~collector_ip:(ipv4_of_string "10.1.0.5") () in
  let checker name =
    if protected_ then
      Test_util.checker_of ~topo ~name
        "PERM pkt_in_event\nPERM read_payload\nPERM send_pkt_out LIMITING FROM_PKT_IN\n\
         PERM visible_topology\nPERM read_statistics\n\
         PERM host_network LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0"
    else Api.allow_all
  in
  let rt =
    Runtime.create ~mode:Runtime.Monolithic kernel
      [ (rst.Attacks.app, checker "rst_injector");
        (leaker.Attacks.app, checker "info_leaker");
        (Monitoring.app monitor, checker "monitoring") ]
  in
  let h1 = Option.get (Topology.host_by_name topo "h1") in
  let h2 = Option.get (Topology.host_by_name topo "h2") in
  Runtime.feed_sync rt
    (Events.Packet_in
       { Message.dpid = 1; in_port = 3;
         packet =
           Packet.http_request ~src:h1.Topology.mac ~dst:h2.Topology.mac
             ~nw_src:h1.Topology.ip ~nw_dst:h2.Topology.ip ~tp_src:5000 ();
         reason = Message.No_match; buffer_id = None });
  Runtime.feed_sync rt Attacks.tick_event;
  Runtime.feed_sync rt Monitoring.tick_event;
  Runtime.shutdown rt;
  (kernel, kernel.Kernel.sandbox)

let test_summaries_unprotected () =
  let kernel, sandbox = run_incident ~protected_:false () in
  let s = Forensics.summarize_app ~sandbox ~kernel "rst_injector" in
  Alcotest.(check bool) "rst deliveries recorded" true (s.Forensics.rst_packets_delivered > 0);
  let l = Forensics.summarize_app ~sandbox ~kernel "info_leaker" in
  Alcotest.(check bool) "leaker connected out" true (l.Forensics.net_connections > 0);
  let m = Forensics.summarize_app ~sandbox ~kernel "monitoring" in
  Alcotest.(check (list string)) "monitor only talks to collector"
    [ "10.1.0.5" ] m.Forensics.distinct_net_destinations

let test_suspicions_identify_attackers () =
  let kernel, sandbox = run_incident ~protected_:false () in
  let sus =
    Forensics.suspicions ~allowed_destinations:[ "10.1.0.5" ] ~sandbox ~kernel
      [ "rst_injector"; "info_leaker"; "monitoring" ]
  in
  let classes_of app =
    List.filter_map
      (fun (s : Forensics.suspicion) ->
        if s.Forensics.suspect = app then Some s.Forensics.attack_class else None)
      sus
  in
  Alcotest.(check bool) "rst injector flagged class 1" true
    (List.mem 1 (classes_of "rst_injector"));
  Alcotest.(check bool) "leaker flagged class 2" true
    (List.mem 2 (classes_of "info_leaker"));
  Alcotest.(check (list int)) "benign monitor clean" [] (classes_of "monitoring")

let test_protected_run_shows_probing () =
  (* Under SDNShield the attacks are blocked — forensics then shows the
     denials (boundary probing) instead of damage. *)
  let kernel, sandbox = run_incident ~protected_:true () in
  let s = Forensics.summarize_app ~sandbox ~kernel "rst_injector" in
  Alcotest.(check int) "no RST landed" 0 s.Forensics.rst_packets_delivered;
  let l = Forensics.summarize_app ~sandbox ~kernel "info_leaker" in
  Alcotest.(check (list string)) "no rogue destinations" []
    (List.filter (fun d -> d <> "10.1.0.5") l.Forensics.distinct_net_destinations);
  Alcotest.(check bool) "denials visible" true (l.Forensics.denials > 0)

(* Flight recorder ------------------------------------------------------------ *)

let test_flight_keeps_newest () =
  let fl = Forensics.Flight.create ~capacity:3 () in
  for i = 0 to 6 do
    ignore (Forensics.Flight.capture fl ~reason:(string_of_int i) ())
  done;
  let bundles = Forensics.Flight.bundles fl in
  Alcotest.(check (list int)) "newest bundles, oldest first" [ 4; 5; 6 ]
    (List.map (fun (b : Forensics.Flight.bundle) -> b.Forensics.Flight.bseq)
       bundles);
  Alcotest.(check (list string)) "each with its own reason" [ "4"; "5"; "6" ]
    (List.map (fun (b : Forensics.Flight.bundle) -> b.Forensics.Flight.reason)
       bundles);
  Alcotest.(check int) "every capture counted" 7 (Forensics.Flight.captured fl)

let test_flight_diff_names_counter () =
  let fl = Forensics.Flight.create () in
  Forensics.Flight.boundary fl ~epoch:3;
  (match Sdnshield.Vetting.vet_manifest "PERM read_statistics" with
  | Sdnshield.Vetting.Admitted _ -> ()
  | _ -> Alcotest.fail "manifest not admitted");
  let b = Forensics.Flight.capture fl ~reason:"after one admission" () in
  Alcotest.(check int) "diffed against the boundary" 3
    b.Forensics.Flight.baseline_epoch;
  Alcotest.(check (option (float 0.))) "vet-admitted moved by one" (Some 1.)
    (List.assoc_opt "counter:vet-admitted" b.Forensics.Flight.diff)

let suite =
  [ Alcotest.test_case "summaries (unprotected)" `Quick test_summaries_unprotected;
    Alcotest.test_case "suspicions identify attackers" `Quick test_suspicions_identify_attackers;
    Alcotest.test_case "protected run shows probing" `Quick test_protected_run_shows_probing;
    Alcotest.test_case "flight keeps the newest bundles" `Quick
      test_flight_keeps_newest;
    Alcotest.test_case "flight diff names a moved counter" `Quick
      test_flight_diff_names_counter ]
