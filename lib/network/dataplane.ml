(* The simulated data plane: topology + per-switch state + packet walk.

   [inject] releases a packet at a host (or raw switch port) and walks it
   through flow tables and links until it is delivered to hosts, punted
   to the controller, dropped, or the hop limit trips (loop detection —
   the observable the route-verification tests and attack PoCs rely on). *)

open Shield_openflow
open Shield_openflow.Types

type t = {
  topo : Topology.t;
  switches : (dpid, Switch.t) Hashtbl.t;
  hop_limit : int;
}

type delivery = {
  host : Topology.host;
  packet : Packet.t;
  path : dpid list;  (** Switches traversed, in order. *)
}

type punt = { dpid : dpid; in_port : port_no; packet : Packet.t }

type result = {
  delivered : delivery list;
  punted : punt list;
  dropped : int;
  looped : bool;  (** Hop limit exceeded somewhere. *)
}

let empty_result = { delivered = []; punted = []; dropped = 0; looped = false }

let merge a b =
  { delivered = a.delivered @ b.delivered;
    punted = a.punted @ b.punted;
    dropped = a.dropped + b.dropped;
    looped = a.looped || b.looped }

let create ?(hop_limit = 64) (topo : Topology.t) =
  let switches = Hashtbl.create 16 in
  List.iter
    (fun dpid ->
      Hashtbl.replace switches dpid
        (Switch.create ~dpid ~ports:(Topology.ports_of topo dpid)))
    (Topology.switches topo);
  { topo; switches; hop_limit }

let switch t dpid =
  match Hashtbl.find_opt t.switches dpid with
  | Some sw -> sw
  | None -> invalid_arg (Printf.sprintf "dataplane: unknown switch %d" dpid)

let switch_opt t dpid = Hashtbl.find_opt t.switches dpid

let apply_flow_mod t dpid fm = Switch.apply_flow_mod (switch t dpid) fm

(* Packet walk ------------------------------------------------------------ *)

let rec walk t ~dpid ~in_port ~hops ~path pkt : result =
  if hops > t.hop_limit then { empty_result with looped = true }
  else begin
    let sw = switch t dpid in
    let outputs = Switch.process sw ~in_port pkt in
    let path = path @ [ dpid ] in
    List.fold_left
      (fun acc out ->
        merge acc (follow_output t ~dpid ~in_port ~hops ~path out))
      empty_result outputs
  end

(* [in_port] is the port the packet entered [dpid] on; a punt carries it. *)
and follow_output t ~dpid ~in_port ~hops ~path = function
  | Switch.Dropped -> { empty_result with dropped = 1 }
  | Switch.To_controller packet ->
    { empty_result with punted = [ { dpid; in_port; packet } ] }
  | Switch.Forward (port, packet) -> (
    let ep = { Topology.dpid; port } in
    match Topology.host_at t.topo ep with
    | Some host ->
      { empty_result with delivered = [ { host; packet; path } ] }
    | None -> (
      match Topology.peer_of t.topo ep with
      | Some peer ->
        walk t ~dpid:peer.dpid ~in_port:peer.port ~hops:(hops + 1) ~path packet
      | None ->
        (* Dangling port: packet leaves the simulated network. *)
        { empty_result with dropped = 1 }))

(** Inject [pkt] at switch [dpid] port [in_port]. *)
let inject_at t ~dpid ~in_port pkt = walk t ~dpid ~in_port ~hops:0 ~path:[] pkt

(** Inject [pkt] as sent by [host]. *)
let inject_from_host t (host : Topology.host) pkt =
  inject_at t ~dpid:host.attachment.dpid ~in_port:host.attachment.port pkt

(** Emit a controller packet-out at [dpid]/[port] and follow it.  A
    packet-out only forwards, so no punt takes the [in_port] given here;
    punts downstream carry the port they arrived on. *)
let packet_out t ~dpid ~port pkt : result =
  let sw = switch t dpid in
  let outputs = Switch.packet_out sw ~port pkt in
  List.fold_left
    (fun acc out ->
      merge acc (follow_output t ~dpid ~in_port:0 ~hops:0 ~path:[ dpid ] out))
    empty_result outputs

(* Statistics ------------------------------------------------------------- *)

let selected_dpids t = function
  | Some d -> if Hashtbl.mem t.switches d then [ d ] else []
  | None ->
    Hashtbl.fold (fun d _ acc -> d :: acc) t.switches [] |> List.sort compare

let stats t (req : Stats.request) : Stats.reply =
  let dpids = selected_dpids t req.dpid_filter in
  match req.level with
  | Stats.Flow_level ->
    Stats.Flow_stats
      (List.map (fun d -> (d, Switch.flow_stats (switch t d) req.match_filter)) dpids)
  | Stats.Port_level ->
    Stats.Port_stats (List.map (fun d -> (d, Switch.port_stats (switch t d))) dpids)
  | Stats.Switch_level ->
    Stats.Switch_stats (List.map (fun d -> Switch.switch_stat (switch t d)) dpids)

(** Advance all switch logical clocks and return expired entries as
    (dpid, entry) pairs. *)
let tick t =
  Hashtbl.fold
    (fun dpid sw acc ->
      Flow_table.tick sw.Switch.table;
      List.map (fun e -> (dpid, e)) (Flow_table.expire sw.Switch.table) @ acc)
    t.switches []

(* Route probing ---------------------------------------------------------- *)

(** The switch path a unicast packet from [src] to [dst] host currently
    takes, or [`Delivered]/[`Dropped]/[`Punted]/[`Looped] summary.  Used
    by tests and attack PoCs to observe forwarding behaviour without
    mutating counters beyond one probe. *)
type probe =
  | Delivered_to of string * dpid list
  | Punted_at of dpid
  | Dropped_
  | Looped_

let probe t ~(src : Topology.host) ~(dst : Topology.host) ?(tp_dst = 80)
    ?(tp_src = 12345) () =
  let pkt =
    Packet.tcp ~src:src.mac ~dst:dst.mac ~nw_src:src.ip ~nw_dst:dst.ip ~tp_src
      ~tp_dst ()
  in
  let r = inject_from_host t src pkt in
  if r.looped then Looped_
  else
    match (r.delivered, r.punted) with
    | d :: _, _ -> Delivered_to (d.host.name, d.path)
    | [], p :: _ -> Punted_at p.dpid
    | [], [] -> Dropped_
