(* Scenario 1 of the paper (§VII): a vulnerable monitoring app in a
   multi-tenant network.

   The app ships a manifest with two developer stubs; the administrator
   supplies local bindings and a mutual-exclusion policy; the
   reconciliation engine expands the stubs, detects the exclusion
   violation and truncates insert_flow.  We then deploy the app under
   the reconciled permissions next to an attacker exploiting its
   arbitrary-code-execution vulnerability, and watch every attack class
   die while the app's legitimate job still works.

   Run with: dune exec examples/monitoring_tenant.exe *)

open Shield_openflow.Types
open Shield_net
open Shield_controller
open Shield_apps
open Sdnshield

let () =
  Fmt.pr "=== Scenario 1: vulnerable monitoring app ===@.@.";

  (* 1. The app release ships this manifest (stubs included). *)
  Fmt.pr "--- Developer manifest (with stubs) ---@.%s@." Monitoring.manifest_src;

  (* 2. The administrator's local policy. *)
  let policy_src =
    Monitoring.policy_src ~switches:[ 1; 2; 3 ] ~admin_subnet:"10.1.0.0"
      ~admin_mask:"255.255.0.0"
  in
  Fmt.pr "--- Administrator policy ---@.%s@." policy_src;

  (* 3. Reconciliation. *)
  let final, report =
    match
      Reconcile.run_strings ~app_name:"monitoring"
        ~manifest_src:Monitoring.manifest_src ~policy_src
    with
    | Ok (m, r) -> (m, r)
    | Error e -> failwith e
  in
  Fmt.pr "--- Reconciliation report ---@.";
  List.iter (fun v -> Fmt.pr "%a@." Reconcile.pp_violation v) report.Reconcile.violations;
  Fmt.pr "@.--- Final permissions ---@.%a@.@." Perm.pp final;

  (* 4. Deployment: the benign monitoring app plus the four attacks an
     intruder could mount through its vulnerability, all running under
     the reconciled permissions. *)
  let topo = Topology.linear 3 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let checker_for name = Engine.checker (Engine.create ~topo ~app_name:name final) in
  let monitoring = Monitoring.create ~collector_ip:(ipv4_of_string "10.1.0.5") () in
  let leaker = Attacks.info_leaker () in
  let victim = Option.get (Topology.host_by_name topo "h3") in
  let hijacker =
    Attacks.route_hijacker ~victim_dst_ip:victim.Topology.ip ~mitm_host:"h2" ()
  in
  let rt =
    Runtime.create
      ~mode:(Runtime.Isolated { ksd_threads = 2 })
      kernel
      [ (Monitoring.app monitoring, checker_for "monitoring");
        (leaker.Attacks.app, checker_for "info_leaker");
        (hijacker.Attacks.app, checker_for "route_hijacker") ]
  in

  (* The app's legitimate duty works... *)
  Runtime.feed_sync rt Monitoring.tick_event;
  Fmt.pr "--- Legitimate behaviour ---@.";
  Fmt.pr "monitoring reports delivered to collector: %d (denied: %d)@.@."
    !(monitoring.Monitoring.reports_sent)
    !(monitoring.Monitoring.reports_failed);

  (* ...while the attacks do not. *)
  Runtime.feed_sync rt Attacks.tick_event;
  Runtime.shutdown rt;
  Fmt.pr "--- Attack outcomes under SDNShield ---@.";
  Fmt.pr "Class 2 exfiltration to %a: %s@." pp_ipv4 leaker.Attacks.attacker_ip
    (if
       Attacks.leak_succeeded kernel.Kernel.sandbox ~app:"info_leaker"
         ~attacker_ip:leaker.Attacks.attacker_ip
     then "SUCCEEDED"
     else "BLOCKED");
  let h1 = Option.get (Topology.host_by_name topo "h1") in
  let h2 = Option.get (Topology.host_by_name topo "h2") in
  Fmt.pr "Class 3 route hijack of h1->h3 via h2: %s@."
    (if Attacks.hijack_succeeded dp ~src:h1 ~dst:victim ~mitm:h2 then "SUCCEEDED"
     else "BLOCKED");
  Fmt.pr "@.Audit log (denied actions):@.";
  List.iter
    (fun (e : Sandbox.audit_entry) ->
      if not e.Sandbox.allowed then
        Fmt.pr "  [%s] %s@." e.Sandbox.app_name e.Sandbox.action)
    (Sandbox.audit_log kernel.Kernel.sandbox)
