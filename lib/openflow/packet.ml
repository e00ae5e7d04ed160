(* Synthetic data-plane packets.

   Packets carry just enough structure for the simulator: an Ethernet
   header, an optional IPv4 header, an optional transport header and an
   opaque payload.  This mirrors the fields an OpenFlow 1.0 switch can
   match on, which is all the permission filters ever inspect. *)

open Types

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

let no_flags = { syn = false; ack = false; fin = false; rst = false }

type transport = {
  tp_src : tp_port;
  tp_dst : tp_port;
  flags : tcp_flags;  (** Only meaningful for TCP. *)
}

type ip_header = {
  nw_src : ipv4;
  nw_dst : ipv4;
  nw_proto : ip_proto;
  ttl : int;
}

type t = {
  dl_src : mac;
  dl_dst : mac;
  dl_type : eth_type;
  dl_vlan : vlan option;
  ip : ip_header option;
  tp : transport option;
  payload : string;
}

let size pkt =
  (* Synthetic wire size: headers plus payload, used by byte counters. *)
  let eth = 14 in
  let ip = match pkt.ip with Some _ -> 20 | None -> 0 in
  let tp = match pkt.tp with Some _ -> 20 | None -> 0 in
  eth + ip + tp + String.length pkt.payload

(* Constructors ----------------------------------------------------------- *)

let ethernet ?vlan ~src ~dst ~eth_type ?(payload = "") () =
  { dl_src = src; dl_dst = dst; dl_type = eth_type; dl_vlan = vlan;
    ip = None; tp = None; payload }

let arp ~src ~dst ?(payload = "arp") () =
  ethernet ~src ~dst ~eth_type:Eth_arp ~payload ()

let ip ?vlan ~src ~dst ~nw_src ~nw_dst ?(proto = Proto_tcp) ?(ttl = 64)
    ?(payload = "") () =
  { dl_src = src; dl_dst = dst; dl_type = Eth_ip; dl_vlan = vlan;
    ip = Some { nw_src; nw_dst; nw_proto = proto; ttl };
    tp = None; payload }

let tcp ?vlan ~src ~dst ~nw_src ~nw_dst ~tp_src ~tp_dst
    ?(flags = no_flags) ?(ttl = 64) ?(payload = "") () =
  { dl_src = src; dl_dst = dst; dl_type = Eth_ip; dl_vlan = vlan;
    ip = Some { nw_src; nw_dst; nw_proto = Proto_tcp; ttl };
    tp = Some { tp_src; tp_dst; flags }; payload }

let udp ?vlan ~src ~dst ~nw_src ~nw_dst ~tp_src ~tp_dst ?(ttl = 64)
    ?(payload = "") () =
  { dl_src = src; dl_dst = dst; dl_type = Eth_ip; dl_vlan = vlan;
    ip = Some { nw_src; nw_dst; nw_proto = Proto_udp; ttl };
    tp = Some { tp_src; tp_dst; flags = no_flags }; payload }

(** An HTTP request segment: TCP to port 80 with an ACK-ed payload. *)
let http_request ~src ~dst ~nw_src ~nw_dst ~tp_src ?(payload = "GET / HTTP/1.1")
    () =
  tcp ~src ~dst ~nw_src ~nw_dst ~tp_src ~tp_dst:80
    ~flags:{ no_flags with ack = true } ~payload ()

(** TCP RST crafted to tear down the session carried by [pkt].
    This is the packet the proof-of-concept attack app injects. *)
let rst_for pkt =
  match (pkt.ip, pkt.tp) with
  | Some iph, Some tph ->
    Some
      (tcp ~src:pkt.dl_dst ~dst:pkt.dl_src ~nw_src:iph.nw_dst
         ~nw_dst:iph.nw_src ~tp_src:tph.tp_dst ~tp_dst:tph.tp_src
         ~flags:{ no_flags with rst = true } ())
  | _ -> None

let is_rst pkt =
  match pkt.tp with Some { flags; _ } -> flags.rst | None -> false

let is_broadcast pkt = pkt.dl_dst = broadcast_mac

(* Field rewriting (used by Set-field actions) ---------------------------- *)

let with_nw_src v pkt =
  match pkt.ip with
  | Some iph -> { pkt with ip = Some { iph with nw_src = v } }
  | None -> pkt

let with_nw_dst v pkt =
  match pkt.ip with
  | Some iph -> { pkt with ip = Some { iph with nw_dst = v } }
  | None -> pkt

let with_dl_src v pkt = { pkt with dl_src = v }
let with_dl_dst v pkt = { pkt with dl_dst = v }

let with_tp_src v pkt =
  match pkt.tp with
  | Some tph -> { pkt with tp = Some { tph with tp_src = v } }
  | None -> pkt

let with_tp_dst v pkt =
  match pkt.tp with
  | Some tph -> { pkt with tp = Some { tph with tp_dst = v } }
  | None -> pkt

let decr_ttl pkt =
  match pkt.ip with
  | Some iph when iph.ttl > 0 -> Some { pkt with ip = Some { iph with ttl = iph.ttl - 1 } }
  | Some _ -> None
  | None -> Some pkt

let pp ppf pkt =
  Fmt.pf ppf "@[<h>%a->%a %a" pp_mac pkt.dl_src pp_mac pkt.dl_dst pp_eth_type
    pkt.dl_type;
  (match pkt.ip with
  | Some iph ->
    Fmt.pf ppf " %a->%a %a" pp_ipv4 iph.nw_src pp_ipv4 iph.nw_dst pp_ip_proto
      iph.nw_proto
  | None -> ());
  (match pkt.tp with
  | Some tph ->
    Fmt.pf ppf " %d->%d%s" tph.tp_src tph.tp_dst
      (if tph.flags.rst then " RST" else "")
  | None -> ());
  Fmt.pf ppf "@]"
