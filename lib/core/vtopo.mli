(** Virtual (abstract) topology evaluation (§VI-B1): present a set of
    physical switches to an app as one big switch, translating on the
    fly — flow rules become per-hop physical rules along shortest
    paths, statistics aggregate over the members, topology reads show a
    single switch whose ports are the member set's external ports
    (numbered deterministically in sorted endpoint order). *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller

type t = {
  vdpid : dpid;  (** The dpid the app addresses. *)
  members : Filter.Int_set.t;
  topo : Topology.t;
  vports : (port_no * Topology.endpoint) list;  (** vport -> physical. *)
}

val external_endpoints : Topology.t -> Filter.Int_set.t -> Topology.endpoint list
(** Host attachments plus ports linking outside the member set. *)

val create : ?vdpid:dpid -> members:Filter.Int_set.t -> Topology.t -> t
(** [vdpid] defaults to {!Filter_eval.virtual_big_switch_dpid}; an
    empty [members] set means the whole network. *)

val endpoint_of_vport : t -> port_no -> Topology.endpoint option
val vport_of_endpoint : t -> Topology.endpoint -> port_no option

val translate_flow_mod : t -> Flow_mod.t -> (dpid * Flow_mod.t) list
(** Per-hop physical rules realising a big-switch rule: header rewrites
    apply once at the egress hop; rules with no in_port install a
    shortest-path tree from every member switch. *)

val translate_topology_view : t -> Api.topology_view -> Api.topology_view
val aggregate_stats : t -> Stats.reply -> Stats.reply
val aggregate_flow_stats :
  t -> (dpid * Stats.flow_stat list) list -> (dpid * Stats.flow_stat list) list
