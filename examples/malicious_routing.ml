(* Scenario 2 of the paper (§VII): a malicious routing app.

   The app implements shortest-path routing faithfully, but embedded
   malicious code occasionally tries control-plane attacks.  Under the
   Scenario-2 permissions —

       PERM visible_topology
       PERM flow_event
       PERM send_pkt_out
       PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS

   — the routing duty works while rule-manipulation attacks are denied.

   Part A pairs the benign routing app with a route-hijack payload and
   shows the hijack failing; Part B pairs a security (firewall) app
   with a tunnelling payload and shows the dynamic-flow tunnel failing.
   Both are the SDNShield column of Table I ([Threats.run]), on the
   isolated runtime.  (OWN_FLOWS deliberately prevents *any* overlap
   with another app's rules, so apps that must layer rules over each
   other — e.g. routing over a firewall's catch-all — belong in
   different priority bands via MAX/MIN_PRIORITY filters instead; see
   examples/policy_templates.exe.)

   Run with: dune exec examples/malicious_routing.exe *)

open Shield_net
open Shield_controller
open Shield_apps

let print_denials (r : Threats.run) =
  Fmt.pr "@.--- Why (audit log) ---@.";
  List.iter
    (fun (e : Sandbox.audit_entry) ->
      if not e.Sandbox.allowed then
        Fmt.pr "  [%s] denied: %s@." e.Sandbox.app_name e.Sandbox.action)
    (Sandbox.audit_log r.kernel.Kernel.sandbox)

let verdict (r : Threats.run) =
  if r.outcome = Threats.Succeeded then "SUCCEEDED" else "BLOCKED"

let () =
  Fmt.pr "=== Scenario 2: malicious routing app ===@.@.";
  Fmt.pr "--- Permissions ---@.%s@." Routing.manifest_src;

  (* Part A: the routing app does its job; the hijack payload dies. *)
  Fmt.pr "================ Part A: route hijack ================@.";
  let r = Threats.run Threats.Route_hijack Threats.Sdnshield_scenario in
  let h1 = Threats.host r.topo "h1" and h3 = Threats.host r.topo "h3" in
  Fmt.pr "route hijack (divert h1->h3 into h2): %s@." (verdict r);
  (match Dataplane.probe r.dataplane ~src:h1 ~dst:h3 ~tp_dst:80 () with
  | Dataplane.Delivered_to (who, path) ->
    Fmt.pr "h1 -> h3: delivered to %s via s%a@." who
      Fmt.(list ~sep:(any "->s") int)
      path
  | _ -> Fmt.pr "h1 -> h3: NOT delivered@.");
  print_denials r;

  (* Part B: a firewall app guards the network; a tunnelling payload
     with Scenario-2 permissions cannot pierce it. *)
  Fmt.pr "@.================ Part B: dynamic-flow tunnel ================@.";
  let r = Threats.run Threats.Flow_tunnel Threats.Sdnshield_scenario in
  let h1 = Threats.host r.topo "h1" and h3 = Threats.host r.topo "h3" in
  Fmt.pr "dynamic-flow tunnel (telnet through port-80 firewall): %s@."
    (verdict r);
  (match Dataplane.probe r.dataplane ~src:h1 ~dst:h3 ~tp_dst:80 () with
  | Dataplane.Delivered_to _ -> Fmt.pr "HTTP h1->h3 still flows@."
  | _ -> Fmt.pr "HTTP h1->h3 broken!@.");
  (match Dataplane.probe r.dataplane ~src:h1 ~dst:h3 ~tp_dst:23 () with
  | Dataplane.Dropped_ -> Fmt.pr "telnet h1->h3 still dropped by the firewall@."
  | _ -> Fmt.pr "telnet h1->h3 escaped the firewall!@.");
  print_denials r
