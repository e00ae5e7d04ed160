(* An SDN app market install pipeline — the scenario of the paper's
   title.  Apps arrive from the market with developer-written permission
   manifests of varying quality; the administrator maintains one local
   security policy.  For each install:

     1. the reconciliation engine customises the requested permissions
        with the local policy (expanding stubs, repairing violations),
     2. a permission engine is compiled from the final manifest,
     3. load-time access control refuses apps whose declared API usage
        exceeds what they ended up being granted,
     4. survivors run, fully mediated.

   Run with: dune exec examples/app_market.exe *)

open Shield_net
open Shield_controller
open Sdnshield

(* The market catalogue: (name, declared capabilities, manifest). *)
let catalogue =
  [ ( "flow-visualizer",
      [ Api.Cap_flow_read; Api.Cap_topology_read ],
      "PERM read_flow_table LIMITING OWN_FLOWS OR IP_DST 10.0.0.0 MASK 255.0.0.0\n\
       PERM visible_topology\nPERM topology_event" );
    ( "auto-bandwidth",
      [ Api.Cap_stats; Api.Cap_flow_write ],
      "PERM read_statistics LIMITING PORT_LEVEL\n\
       PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS\nPERM flow_event" );
    ( "cloud-backup-agent",
      (* Greedy: wants to write flows AND phone home. *)
      [ Api.Cap_flow_write; Api.Cap_host_network ],
      "PERM insert_flow\nPERM host_network\nPERM file_system\nPERM read_statistics" );
    ( "telemetry-uploader",
      [ Api.Cap_stats; Api.Cap_host_network ],
      "PERM read_statistics\nPERM host_network LIMITING CollectorRange" ) ]

(* The administrator's site policy. *)
let site_policy =
  "LET CollectorRange = { IP_DST 10.1.0.0 MASK 255.255.0.0 }\n\
   ASSERT EITHER { PERM host_network } OR { PERM insert_flow }\n\
   ASSERT EITHER { PERM host_network } OR { PERM read_payload }"

let () =
  Fmt.pr "=== SDN app market: install pipeline ===@.@.";
  let policy = Policy_parser.of_string_exn site_policy in
  let requested =
    List.map (fun (name, _, src) -> (name, Perm_parser.manifest_exn src)) catalogue
  in
  (* 1. Reconcile the whole batch against the site policy. *)
  let report = Reconcile.run ~apps:requested policy in
  Fmt.pr "--- Reconciliation ---@.";
  if report.Reconcile.violations = [] then Fmt.pr "no violations@.";
  List.iter
    (fun v -> Fmt.pr "%a@." Reconcile.pp_violation v)
    report.Reconcile.violations;

  (* 2-4. Build engines, apply load-time checks, start the survivors. *)
  let topo = Topology.linear 3 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let apps =
    List.map
      (fun (name, uses, _) ->
        let final = List.assoc name report.Reconcile.manifests in
        let engine = Engine.create ~topo ~app_name:name final in
        (App.make ~uses name, Engine.checker engine))
      catalogue
  in
  let rt =
    Runtime.create ~load_check:Runtime.Reject_at_load ~mode:Runtime.Monolithic
      kernel apps
  in
  Fmt.pr "@.--- Load-time access control ---@.";
  List.iter
    (fun (name, reason) -> Fmt.pr "REJECTED %-18s (%s)@." name reason)
    (Runtime.rejected rt);
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name (Runtime.rejected rt)) then
        Fmt.pr "LOADED   %s@." name)
    catalogue;

  Fmt.pr "@.--- Final permissions per app ---@.";
  List.iter
    (fun (name, m) -> Fmt.pr "@[<v2>%s:@,%a@]@." name Perm.pp m)
    report.Reconcile.manifests;
  Runtime.shutdown rt;

  (* Sanity check the pipeline did its job: the greedy backup agent
     lost its exfiltration channel. *)
  let backup = List.assoc "cloud-backup-agent" report.Reconcile.manifests in
  Fmt.pr "cloud-backup-agent can still write flows: %b@."
    (Perm.grants_token backup Token.Insert_flow);
  Fmt.pr "cloud-backup-agent can still phone home: %b@."
    (Perm.grants_token backup Token.Host_network);
  Fmt.pr "telemetry-uploader collector stub expanded: %b@."
    (Perm.macros (List.assoc "telemetry-uploader" report.Reconcile.manifests) = [])
