(* Virtual (abstract) topology evaluation (§VI-B1).

   The virtual-topology filter presents a set of physical switches to
   an app as one big switch.  The permission engine keeps the mapping
   between abstract and physical topology and translates on the fly:

   - flow rules added to the big switch become per-hop physical rules
     along the shortest path in the underlying physical topology;
   - statistics requests fan out to the member switches and the
     replies are aggregated;
   - topology reads present a single switch whose ports are the
     external ports of the member set.

   External ports (host attachments and links leaving the member set)
   are numbered 1..n in deterministic (sorted endpoint) order — these
   are the big switch's port numbers the app sees. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller

type t = {
  vdpid : dpid;  (** The dpid the app addresses. *)
  members : Filter.Int_set.t;  (** Physical member switches. *)
  topo : Topology.t;
  vports : (port_no * Topology.endpoint) list;  (** vport -> physical. *)
}

(** External endpoints of the member set: host attachments plus ports
    linking to non-member switches. *)
let external_endpoints topo members =
  let member d = Filter.Int_set.mem d members in
  let host_eps =
    List.filter_map
      (fun (h : Topology.host) ->
        if member h.attachment.dpid then Some h.attachment else None)
      (Topology.hosts topo)
  in
  let boundary_eps =
    List.concat_map
      (fun (l : Topology.link) ->
        if member l.src.dpid && not (member l.dst.dpid) then [ l.src ] else [])
      (* links are stored in both directions, so one side suffices *)
      topo.Topology.links
  in
  List.sort_uniq compare (host_eps @ boundary_eps)

let create ?(vdpid = Filter_eval.virtual_big_switch_dpid) ~members topo : t =
  let members =
    if Filter.Int_set.is_empty members then
      Filter.Int_set.of_list (Topology.switches topo)
    else members
  in
  let eps = external_endpoints topo members in
  let vports = List.mapi (fun i ep -> (i + 1, ep)) eps in
  { vdpid; members; topo; vports }

let endpoint_of_vport t vp = List.assoc_opt vp t.vports

let vport_of_endpoint t (ep : Topology.endpoint) =
  List.find_map (fun (vp, e) -> if e = ep then Some vp else None) t.vports

(* Flow-mod translation ----------------------------------------------------- *)

let split_actions (actions : Action.t list) =
  let sets = List.filter_map (function Action.Set f -> Some f | _ -> None) actions in
  let out =
    List.find_map (function Action.Output p -> Some p | _ -> None) actions
  in
  (sets, out)

(** The per-hop physical rules realising [fm] (addressed to the big
    switch) when traffic enters at member switch [ingress_sw] (with
    physical ingress port [in_port] when the virtual rule matched one).
    Header rewrites apply once, at the egress hop. *)
let rules_for_ingress t ~ingress_sw ~in_port ~egress ~sets (fm : Flow_mod.t) =
  let base_match = { fm.Flow_mod.match_ with Match_fields.in_port = None } in
  match Topology.shortest_path t.topo ~src:ingress_sw ~dst:egress.Topology.dpid with
  | None -> []
  | Some path ->
    let hops = Topology.path_hops t.topo path in
    List.map
      (fun (hop_in, sw, hop_out) ->
        let hop_in = if sw = ingress_sw then in_port else hop_in in
        let match_ = { base_match with Match_fields.in_port = hop_in } in
        let actions =
          match hop_out with
          | Some p -> [ Action.Output p ]
          | None ->
            (* Egress switch: apply rewrites then emit on the egress
               physical port. *)
            List.map (fun f -> Action.Set f) sets
            @ [ Action.Output egress.Topology.port ]
        in
        (sw, { fm with Flow_mod.match_; actions }))
      hops

(** Translate a flow-mod targeting the big switch into physical
    (dpid, flow-mod) pairs.  Virtual rules with no in_port install from
    every member switch (a shortest-path tree towards the egress). *)
let translate_flow_mod t (fm : Flow_mod.t) : (dpid * Flow_mod.t) list =
  let sets, out = split_actions fm.Flow_mod.actions in
  let ingresses =
    match fm.Flow_mod.match_.Match_fields.in_port with
    | Some vp -> (
      match endpoint_of_vport t vp with
      | Some ep -> [ (ep.Topology.dpid, Some ep.Topology.port) ]
      | None -> [])
    | None ->
      List.map (fun d -> (d, None)) (Filter.Int_set.elements t.members)
  in
  match out with
  | None ->
    (* Drop (or modify-only) rule: enforce at each ingress switch. *)
    List.map
      (fun (sw, in_port) ->
        let match_ = { fm.Flow_mod.match_ with Match_fields.in_port = in_port } in
        (sw, { fm with Flow_mod.match_; actions = [] }))
      ingresses
  | Some vp -> (
    match endpoint_of_vport t vp with
    | None -> []
    | Some egress ->
      List.concat_map
        (fun (ingress_sw, in_port) ->
          rules_for_ingress t ~ingress_sw ~in_port ~egress ~sets fm)
        ingresses
      (* The same (switch, match) can appear on several ingress paths;
         keep the first occurrence. *)
      |> List.fold_left
           (fun acc ((sw, fm') as rule) ->
             if
               List.exists
                 (fun (sw2, fm2) ->
                   sw = sw2
                   && Match_fields.equal fm'.Flow_mod.match_
                        fm2.Flow_mod.match_)
                 acc
             then acc
             else rule :: acc)
           []
      |> List.rev)

(* Read translation --------------------------------------------------------- *)

let translate_topology_view t (_view : Api.topology_view) : Api.topology_view =
  let hosts =
    List.filter_map
      (fun (h : Topology.host) ->
        match vport_of_endpoint t h.attachment with
        | Some vp ->
          Some { h with Topology.attachment = { dpid = t.vdpid; port = vp } }
        | None -> None)
      (Topology.hosts t.topo)
  in
  { Api.switches = [ t.vdpid ]; links = []; hosts }

let aggregate_flow_stats t (per_switch : (dpid * Stats.flow_stat list) list) =
  [ (t.vdpid, List.concat_map snd per_switch) ]

let aggregate_port_stats t (per_switch : (dpid * Stats.port_stat list) list) =
  let stats =
    List.concat_map
      (fun (d, stats) ->
        List.filter_map
          (fun (ps : Stats.port_stat) ->
            match vport_of_endpoint t { Topology.dpid = d; port = ps.port_no } with
            | Some vp -> Some { ps with Stats.port_no = vp }
            | None -> None (* internal port: hidden *))
          stats)
      per_switch
  in
  [ (t.vdpid, List.sort (fun (a : Stats.port_stat) b -> compare a.port_no b.port_no) stats) ]

let aggregate_switch_stats t (stats : Stats.switch_stat list) =
  [ Stats.merge_switch_stat ~dpid:t.vdpid stats ]

let aggregate_stats t (reply : Stats.reply) : Stats.reply =
  match reply with
  | Stats.Flow_stats l -> Stats.Flow_stats (aggregate_flow_stats t l)
  | Stats.Port_stats l -> Stats.Port_stats (aggregate_port_stats t l)
  | Stats.Switch_stats l -> Stats.Switch_stats (aggregate_switch_stats t l)
