(* The trusted controller kernel: executes approved API calls against
   the simulated data plane and collects the follow-on events (flow
   removals, packet-ins caused by packet-outs, topology changes) for the
   runtime to dispatch. *)

open Shield_openflow
open Shield_net

type deliveries = { mutable packets : int; mutable rsts : int }

type t = {
  dataplane : Dataplane.t;
  sandbox : Sandbox.t;
  reflect_packet_out : bool;
      (** When true, table misses caused by app packet-outs are turned
          back into packet-in events.  Off by default: flooded
          packet-outs would broadcast-storm a loopy/linear topology
          exactly as real L2 floods do without spanning tree, and the
          CBench-style evaluation methodology treats the generator as
          the only packet-in source. *)
  mutable pending : Events.t list;  (** Reverse order. *)
  delivered : (string, deliveries) Hashtbl.t;
      (** Per issuing app, the packets its packet-outs delivered to
          hosts — the data-plane observable the attack tests and
          forensics read. *)
  mutable execs : int;
      (** Approved calls executed — the enforcement hot path's volume,
          reported next to the checker's counters. *)
}

let create ?(sandbox = Sandbox.create ()) ?(reflect_packet_out = false)
    dataplane =
  { dataplane; sandbox; reflect_packet_out; pending = [];
    delivered = Hashtbl.create 8; execs = 0 }

let exec_count t = t.execs

(** Packets that [app]'s packet-outs delivered to hosts, and how many of
    them were TCP RSTs. *)
let delivered t ~app =
  match Hashtbl.find_opt t.delivered app with
  | Some d -> (d.packets, d.rsts)
  | None -> (0, 0)

let count_deliveries t ~app (r : Dataplane.result) =
  if r.delivered <> [] then begin
    let d =
      match Hashtbl.find_opt t.delivered app with
      | Some d -> d
      | None ->
        let d = { packets = 0; rsts = 0 } in
        Hashtbl.replace t.delivered app d;
        d
    in
    List.iter
      (fun (dl : Dataplane.delivery) ->
        d.packets <- d.packets + 1;
        if Packet.is_rst dl.packet then d.rsts <- d.rsts + 1)
      r.delivered
  end

let topo t = t.dataplane.Dataplane.topo

let queue_event t ev = t.pending <- ev :: t.pending

(** Pop all queued events in dispatch order. *)
let take_pending t =
  let evs = List.rev t.pending in
  t.pending <- [];
  evs

let topology_view t : Api.topology_view =
  let topo = topo t in
  { Api.switches = List.sort compare (Topology.switches topo);
    links =
      List.map (fun (l : Topology.link) -> (l.src, l.dst))
        (Topology.undirected_links topo);
    hosts = Topology.hosts topo }

let punts_to_events (r : Dataplane.result) =
  List.map
    (fun (p : Dataplane.punt) ->
      Events.Packet_in
        { Message.dpid = p.dpid; in_port = p.in_port; packet = p.packet;
          reason = Message.No_match; buffer_id = None })
    r.punted

(** Execute a permission-approved call on behalf of [app].  Every
    flow-mod is stamped with the app's [cookie], whatever cookie the app
    set, so the flow tables record which app owns each rule.  A Delete
    queues one flow-removed event per entry it removes; an Add that
    replaces an identical entry queues none (OpenFlow 1.0 reports only
    timeouts and deletes). *)
let exec t ~app ~cookie (call : Api.call) : Api.result =
  Faults.point Faults.Kernel_exec;
  t.execs <- t.execs + 1;
  match call with
  | Api.Install_flow (dpid, fm) -> (
    match Dataplane.switch_opt t.dataplane dpid with
    | None -> Api.Failed (Printf.sprintf "unknown switch %d" dpid)
    | Some _ ->
      let removed = Dataplane.apply_flow_mod t.dataplane dpid { fm with cookie } in
      (match fm.Flow_mod.command with
      | Flow_mod.Delete ->
        List.iter
          (fun (e : Flow_table.entry) ->
            queue_event t
              (Events.Flow_removed { dpid; match_ = e.match_; cookie = e.cookie }))
          removed
      | Flow_mod.Add | Flow_mod.Modify -> ());
      Api.Done)
  | Api.Read_flow_table { dpid; pattern } ->
    let req = { Stats.level = Stats.Flow_level; dpid_filter = dpid; match_filter = pattern } in
    (match Dataplane.stats t.dataplane req with
    | Stats.Flow_stats l -> Api.Flow_entries l
    | _ -> Api.Failed "unexpected stats shape")
  | Api.Read_topology -> Api.Topology_of (topology_view t)
  | Api.Modify_topology change ->
    let topo = topo t in
    (match change with
    | Api.Add_link (a, b) -> Topology.add_link topo ~src:a ~dst:b
    | Api.Remove_link (a, b) -> Topology.remove_link topo ~src:a ~dst:b
    | Api.Add_switch d -> Topology.add_switch topo d
    | Api.Remove_switch d -> Topology.remove_switch topo d);
    queue_event t (Events.Topology_changed change);
    Api.Done
  | Api.Read_stats req -> Api.Stats_result (Dataplane.stats t.dataplane req)
  | Api.Send_packet_out { dpid; port; packet; _ } -> (
    match Dataplane.switch_opt t.dataplane dpid with
    | None -> Api.Failed (Printf.sprintf "unknown switch %d" dpid)
    | Some _ ->
      let r = Dataplane.packet_out t.dataplane ~dpid ~port packet in
      count_deliveries t ~app r;
      if t.reflect_packet_out then List.iter (queue_event t) (punts_to_events r);
      Api.Done)
  | Api.Receive_event _ | Api.Read_payload_access ->
    (* Implicit calls: checked by the runtime, nothing to execute. *)
    Api.Done
  | Api.Publish_event { tag; payload } ->
    queue_event t (Events.App_published { source = app; tag; payload });
    Api.Done
  | Api.Syscall sc -> Sandbox.execute t.sandbox ~app sc
