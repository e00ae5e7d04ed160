(* Virtual-topology tenant: the big-switch abstraction (§VI-B1).

   A cloud operator confines a tenant app to a virtual single big
   switch.  The tenant sees one switch whose ports are the hosts; its
   flow rules are transparently translated into per-hop physical rules
   along shortest paths, its statistics are aggregated, and any attempt
   to address a physical switch directly is denied.

   Run with: dune exec examples/virtual_tenant.exe *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Sdnshield

let tenant_manifest_src =
  "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS\n\
   PERM insert_flow LIMITING ACTION FORWARD\n\
   PERM read_statistics\nPERM read_flow_table\n"

let () =
  Fmt.pr "=== Virtual big-switch tenant ===@.@.";
  let topo = Topology.linear 4 in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let vdpid = Filter_eval.virtual_big_switch_dpid in

  let seen_view = ref None in
  let install_results = ref [] in
  let tenant =
    App.make
      ~init:(fun ctx ->
        (* What the tenant sees. *)
        (match ctx.App.call Api.Read_topology with
        | Api.Topology_of view -> seen_view := Some view
        | _ -> ());
        (* Pin a flow from host h1 (vport 1) to host h4 (vport 4). *)
        let fm =
          Flow_mod.add
            ~match_:(Match_fields.make ~in_port:1 ~dl_type:Eth_ip ())
            ~actions:[ Action.Output 4 ] ()
        in
        install_results :=
          [ ("flow on the big switch", ctx.App.call (Api.Install_flow (vdpid, fm)));
            ( "flow on physical s2 (forbidden)",
              ctx.App.call
                (Api.Install_flow
                   (2, Flow_mod.add ~match_:Match_fields.wildcard_all ~actions:[] ()))
            ) ])
      "tenant"
  in
  let checker =
    Engine.checker
      (Engine.create ~topo ~app_name:"tenant"
         (Perm_parser.manifest_exn tenant_manifest_src))
  in
  let rt = Runtime.create ~mode:Runtime.Monolithic kernel [ (tenant, checker) ] in

  Fmt.pr "--- Tenant's topology view ---@.";
  (match !seen_view with
  | Some view ->
    Fmt.pr "switches: %a@." Fmt.(list ~sep:comma int) view.Api.switches;
    List.iter
      (fun (h : Topology.host) ->
        Fmt.pr "host %s at vport %d@." h.Topology.name
          h.Topology.attachment.Topology.port)
      view.Api.hosts
  | None -> Fmt.pr "(no view)@.");

  Fmt.pr "@.--- Tenant's API calls ---@.";
  List.iter
    (fun (label, r) -> Fmt.pr "%-32s -> %a@." label Api.pp_result r)
    !install_results;

  Fmt.pr "@.--- What actually landed in the physical switches ---@.";
  List.iter
    (fun d ->
      let sw = Dataplane.switch dp d in
      if Flow_table.size sw.Switch.table > 0 then
        Fmt.pr "s%d:@.%a@." d Flow_table.pp sw.Switch.table)
    [ 1; 2; 3; 4 ];

  (* Physical reality: h1's traffic really reaches h4 along the path. *)
  let h1 = Option.get (Topology.host_by_name topo "h1") in
  let h4 = Option.get (Topology.host_by_name topo "h4") in
  (match Dataplane.probe dp ~src:h1 ~dst:h4 () with
  | Dataplane.Delivered_to (who, path) ->
    Fmt.pr "@.h1 -> h4 delivered to %s via s%a@." who
      Fmt.(list ~sep:(any "->s") int)
      path
  | _ -> Fmt.pr "@.h1 -> h4 NOT delivered@.");

  (* Aggregated statistics: one switch's worth of numbers. *)
  let stats_ctx = Runtime.instance_ctx rt "tenant" in
  (match stats_ctx.App.call (Api.Read_stats (Stats.request ~dpid:vdpid Stats.Switch_level)) with
  | Api.Stats_result (Stats.Switch_stats [ s ]) ->
    Fmt.pr "@.aggregated big-switch stats: dpid=%d flows=%d packets=%Ld@."
      s.Stats.dpid s.Stats.flow_count s.Stats.total_packets
  | r -> Fmt.pr "@.stats: %a@." Api.pp_result r);
  Runtime.shutdown rt
