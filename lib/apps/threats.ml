(* The threat model of §II as one drill.

   [run] plays one attack class ([Attacks]) end to end under one
   defense of Table I: no defense, traffic isolation or network state
   analysis ([Defenses]), or SDNShield with the §VII scenario
   permissions.  The defense picks the runtime: the SDNShield column
   runs on the paper's isolated runtime, the other three on the
   monolithic baseline.  A run returns the Table I outcome together
   with what it was judged from — the attacker's counters, the data
   plane, the kernel and its audit log, and the rule-analysis
   findings — so the tests assert on the same runs the tables print.

   The per-class policy templates (§III: templates distributed "so as
   to lower the hurdle to have basic protection") live here too, with
   the over-privileged manifest they cut back; [reconcile_template]
   repairs the manifest and certifies the repair with [Verify], since a
   policy transformation should itself be checked, not assumed. *)

open Shield_openflow
open Shield_net
open Shield_controller
open Sdnshield

(* Attack classes × defenses ------------------------------------------------ *)

type attack_class = Rst_injection | Info_leak | Route_hijack | Flow_tunnel

let classes = [ Rst_injection; Info_leak; Route_hijack; Flow_tunnel ]

let class_name = function
  | Rst_injection -> "Class 1: data-plane intrusion (RST injection)"
  | Info_leak -> "Class 2: information leakage"
  | Route_hijack -> "Class 3: rule manipulation (route hijack)"
  | Flow_tunnel -> "Class 4: attacking other apps (flow tunnel)"

type defense = No_defense | Slicing | State_analysis | Sdnshield_scenario

(** Table I's columns, in order. *)
let defenses = [ No_defense; Slicing; State_analysis; Sdnshield_scenario ]

let defense_name = function
  | No_defense -> "no defense"
  | Slicing -> "traffic isolation"
  | State_analysis -> "state analysis"
  | Sdnshield_scenario -> "SDNShield"

type outcome = Succeeded | Blocked | Detected

let outcome_name = function
  | Succeeded -> "VULNERABLE"
  | Blocked -> "protected"
  | Detected -> "detected (post-hoc)"

type run = {
  outcome : outcome;
  attempts : int;
      (** What the attacker tried: RST injections (class 1),
          exfiltration posts (class 2) or rule installs (classes 3–4). *)
  topo : Topology.t;
  dataplane : Dataplane.t;  (** The data plane after the attack. *)
  kernel : Kernel.t;  (** Its sandbox holds the audit log. *)
  findings : Defenses.invariant_violation list;
      (** State analysis of the installed rules, under every defense. *)
}

let host topo name = Option.get (Topology.host_by_name topo name)

(** An HTTP request h1 → h2 arriving at s1: the session class 1's RST
    injector watches for. *)
let http_pkt_in topo =
  let h1 = host topo "h1" and h2 = host topo "h2" in
  Events.Packet_in
    { Message.dpid = 1; in_port = h1.Topology.attachment.Topology.port;
      packet =
        Packet.http_request ~src:h1.Topology.mac ~dst:h2.Topology.mac
          ~nw_src:h1.Topology.ip ~nw_dst:h2.Topology.ip ~tp_src:5000 ();
      reason = Message.No_match; buffer_id = None }

let engine_checker ~topo name manifest =
  Engine.checker (Engine.create ~topo ~app_name:name manifest)

(* Scenario 1 (§VII), reconciled: the attackers posing as monitoring
   apps lose insert_flow and reach only the admin range. *)
let scenario1_checker ~topo name =
  match
    Reconcile.run_strings ~app_name:name ~manifest_src:Monitoring.manifest_src
      ~policy_src:
        (Monitoring.policy_src ~switches:[ 1; 2; 3 ] ~admin_subnet:"10.1.0.0"
           ~admin_mask:"255.255.0.0")
  with
  | Ok (m, _) -> engine_checker ~topo name m
  | Error e -> failwith e

(* Scenario 2 (§VII): the attackers posing as routing apps may only
   forward, and only on their own flows. *)
let scenario2_checker ~topo name =
  engine_checker ~topo name (Perm_parser.manifest_exn Routing.manifest_src)

let mode = function
  | Sdnshield_scenario -> Runtime.Isolated { ksd_threads = 2 }
  | No_defense | Slicing | State_analysis -> Runtime.Monolithic

(* The rule trace state analysis looks for; the first two classes
   leave none. *)
let detectable cls findings =
  match cls with
  | Rst_injection | Info_leak -> false
  | Route_hijack -> Defenses.has_violation `Shadowing findings
  | Flow_tunnel -> Defenses.has_violation `Header_rewrite_pair findings

(** Run attack class [cls] under [defense] on a fresh three-switch
    linear network: feed the triggering event, wait for every handler,
    shut the runtime down and judge. *)
let run cls defense =
  let topo = Topology.linear 3 in
  let dataplane = Dataplane.create topo in
  let kernel = Kernel.create dataplane in
  let attacker scenario name =
    match defense with
    | No_defense | State_analysis -> Api.allow_all
    | Slicing ->
      (* Attacker and victim share the slice: the collaborative-apps
         setting Table I highlights. *)
      Defenses.slicing_checker Defenses.full_slice
    | Sdnshield_scenario -> scenario ~topo name
  in
  (* A benign app runs under its own least-privilege manifest only
     where SDNShield is deployed. *)
  let benign app name manifest_src =
    ( app,
      match defense with
      | Sdnshield_scenario ->
        engine_checker ~topo name (Perm_parser.manifest_exn manifest_src)
      | No_defense | Slicing | State_analysis -> Api.allow_all )
  in
  let h1 = host topo "h1" and h2 = host topo "h2" and h3 = host topo "h3" in
  let apps, event, attempts, succeeded =
    match cls with
    | Rst_injection ->
      let atk = Attacks.rst_injector () in
      ( [ (atk.Attacks.app, attacker scenario1_checker "rst_injector") ],
        http_pkt_in topo,
        atk.Attacks.injections_attempted,
        fun () -> Attacks.rst_delivered kernel ~app:"rst_injector" )
    | Info_leak ->
      let atk = Attacks.info_leaker () in
      ( [ (atk.Attacks.app, attacker scenario1_checker "info_leaker") ],
        Attacks.tick_event,
        atk.Attacks.leaks_attempted,
        fun () ->
          Attacks.leak_succeeded kernel.Kernel.sandbox ~app:"info_leaker"
            ~attacker_ip:atk.Attacks.attacker_ip )
    | Route_hijack ->
      let atk =
        Attacks.route_hijacker ~victim_dst_ip:h3.Topology.ip ~mitm_host:"h2" ()
      in
      ( [ benign (Routing.app (Routing.create ())) "routing" Routing.manifest_src;
          (atk.Attacks.app, attacker scenario2_checker "route_hijacker") ],
        Attacks.tick_event,
        atk.Attacks.rules_attempted,
        fun () -> Attacks.hijack_succeeded dataplane ~src:h1 ~dst:h3 ~mitm:h2 )
    | Flow_tunnel ->
      let atk = Attacks.tunnel_app ~src_host:"h1" ~dst_host:"h3" () in
      ( [ benign (Firewall.app (Firewall.create ())) "firewall"
            Firewall.manifest_src;
          (atk.Attacks.app, attacker scenario2_checker "tunnel_app") ],
        Attacks.tick_event,
        atk.Attacks.rules_attempted,
        fun () -> Attacks.tunnel_succeeded dataplane ~src:h1 ~dst:h3 () )
  in
  let rt = Runtime.create ~mode:(mode defense) kernel apps in
  Runtime.feed_sync rt event;
  Runtime.shutdown rt;
  let findings = Defenses.analyze_rules dataplane in
  let outcome =
    if defense = State_analysis && detectable cls findings then Detected
    else if succeeded () then Succeeded
    else Blocked
  in
  { outcome; attempts = !attempts; topo; dataplane; kernel; findings }

(** Table I: each class's outcome under each of {!defenses}. *)
let table () =
  List.map
    (fun cls -> (cls, List.map (fun d -> (run cls d).outcome) defenses))
    classes

(* Policy templates ---------------------------------------------------------- *)

(** The app the templates are applied to. *)
let greedy_app = "greedy"

(** An app that asked for everything: all twelve tokens, unfiltered. *)
let greedy_manifest =
  Perm_parser.manifest_exn
    "PERM read_flow_table\nPERM insert_flow\nPERM delete_flow\nPERM flow_event\n\
     PERM visible_topology\nPERM read_statistics\nPERM read_payload\n\
     PERM send_pkt_out\nPERM pkt_in_event\nPERM host_network\nPERM file_system\n\
     PERM process_runtime"

type template = {
  label : string;
  intent : string;
  policy_src : string;  (** Binds [APP greedy] where it names the app. *)
}

(** One template per attack class. *)
let templates =
  [ { label = "class1: no remote packet injection";
      intent =
        "Prevent remote-controlled packet injection: an app may talk to the\n\
         outside world or inject packets, never both.";
      policy_src = "ASSERT EITHER { PERM host_network } OR { PERM send_pkt_out }" };
    { label = "class2: no exfiltration channel";
      intent =
        "Prevent exfiltration of network state: outside connectivity and\n\
         payload visibility are mutually exclusive.";
      policy_src = "ASSERT EITHER { PERM host_network } OR { PERM read_payload }" };
    { label = "class3: confined rule writers";
      intent =
        "Confine rule writers: writes must be forwarding-only, on the app's\n\
         own flows, below the security apps' priority band.";
      policy_src =
        "LET appPerm = APP greedy\n\
         LET bound = {\n\
         PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS AND MAX_PRIORITY 400\n\
         PERM delete_flow LIMITING OWN_FLOWS\n\
         PERM visible_topology\nPERM flow_event\nPERM pkt_in_event\n\
         PERM read_payload\nPERM send_pkt_out\nPERM read_flow_table\n\
         PERM read_statistics\n\
         }\n\
         ASSERT appPerm <= bound" };
    { label = "class4: no tunnel endpoints";
      intent =
        "Protect security apps: no app may rewrite headers (tunnel endpoints)\n\
         or touch other apps' rules.";
      policy_src =
        "LET appPerm = APP greedy\n\
         LET bound = {\n\
         PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS\n\
         PERM delete_flow LIMITING OWN_FLOWS\n\
         PERM read_flow_table LIMITING OWN_FLOWS\n\
         PERM visible_topology\nPERM flow_event\nPERM pkt_in_event\n\
         PERM read_payload\nPERM send_pkt_out\nPERM read_statistics\n\
         PERM host_network\nPERM file_system\nPERM process_runtime\n\
         }\n\
         ASSERT appPerm <= bound" } ]

type repair = {
  report : Reconcile.report;
  reconciled : Perm.manifest;  (** The greedy app's repaired manifest. *)
  raw : Verify.certificate;  (** The greedy manifest against the template. *)
  certificate : Verify.certificate;  (** The repaired one, with minimality. *)
}

(** Reconcile {!greedy_manifest} against [template] and certify both
    sides of the repair. *)
let reconcile_template template =
  let policy = Policy_parser.of_string_exn template.policy_src in
  let apps = [ (greedy_app, greedy_manifest) ] in
  let report = Reconcile.run ~apps policy in
  { report;
    reconciled = List.assoc greedy_app report.Reconcile.manifests;
    raw = Verify.verify ~apps policy;
    certificate = Verify.verify_report policy report }

(** The template removed the threat: the raw manifest is refuted and
    the repaired one certified. *)
let threat_removed r =
  (match r.raw.Verify.verdict with Verify.Refuted _ -> true | _ -> false)
  && Verify.certified r.certificate
