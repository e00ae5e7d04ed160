(* Unit tests for the network simulator: flow tables, topology, switch
   pipeline, data-plane packet walk. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net

let ip = ipv4_of_string

let pkt ?(nw_src = "10.0.0.1") ?(nw_dst = "10.0.0.2") ?(tp_dst = 80)
    ?(src = 11) ?(dst = 22) () =
  Packet.tcp ~src ~dst ~nw_src:(ip nw_src) ~nw_dst:(ip nw_dst) ~tp_src:4321
    ~tp_dst ()

(* Flow table ---------------------------------------------------------------- *)

let test_table_priority_order () =
  let t = Flow_table.create () in
  let lo =
    Flow_mod.add ~priority:10 ~match_:Match_fields.wildcard_all ~actions:[] ()
  in
  let hi =
    Flow_mod.add ~priority:200
      ~match_:(Match_fields.make ~tp_dst:80 ())
      ~actions:[ Action.Output 3 ] ()
  in
  ignore (Flow_table.apply t lo);
  ignore (Flow_table.apply t hi);
  (match Flow_table.lookup t ~in_port:1 (pkt ()) with
  | Some e -> Alcotest.(check int) "high wins" 200 e.Flow_table.priority
  | None -> Alcotest.fail "expected a hit");
  match Flow_table.lookup t ~in_port:1 (pkt ~tp_dst:443 ()) with
  | Some e -> Alcotest.(check int) "falls to low" 10 e.Flow_table.priority
  | None -> Alcotest.fail "expected the catch-all"

let test_table_add_replaces () =
  let t = Flow_table.create () in
  let m = Match_fields.make ~tp_dst:80 () in
  ignore
    (Flow_table.apply t (Flow_mod.add ~priority:5 ~match_:m ~actions:[ Action.Output 1 ] ()));
  let removed =
    Flow_table.apply t
      (Flow_mod.add ~priority:5 ~match_:m ~actions:[ Action.Output 2 ] ())
  in
  Alcotest.(check int) "replaced one" 1 (List.length removed);
  Alcotest.(check int) "size 1" 1 (Flow_table.size t);
  match Flow_table.lookup t ~in_port:1 (pkt ()) with
  | Some e ->
    Alcotest.(check bool) "new actions" true (e.Flow_table.actions = [ Action.Output 2 ])
  | None -> Alcotest.fail "expected hit"

let test_table_modify () =
  let t = Flow_table.create () in
  let m = Match_fields.make ~tp_dst:80 () in
  ignore (Flow_table.apply t (Flow_mod.add ~priority:5 ~match_:m ~actions:[] ()));
  ignore
    (Flow_table.apply t
       (Flow_mod.modify ~match_:Match_fields.wildcard_all
          ~actions:[ Action.Output 9 ] ()));
  (match Flow_table.lookup t ~in_port:1 (pkt ()) with
  | Some e ->
    Alcotest.(check bool) "modified" true (e.Flow_table.actions = [ Action.Output 9 ])
  | None -> Alcotest.fail "expected hit");
  (* Modify with no match behaves as add (OF 1.0). *)
  let t2 = Flow_table.create () in
  ignore
    (Flow_table.apply t2 (Flow_mod.modify ~match_:m ~actions:[ Action.Output 1 ] ()));
  Alcotest.(check int) "modify-as-add" 1 (Flow_table.size t2)

let test_table_delete_subsumed () =
  let t = Flow_table.create () in
  ignore
    (Flow_table.apply t
       (Flow_mod.add ~priority:5
          ~match_:(Match_fields.make ~tp_dst:80 ~nw_dst:(Match_fields.exact_ip (ip "10.0.0.2")) ())
          ~actions:[] ()));
  ignore
    (Flow_table.apply t
       (Flow_mod.add ~priority:9
          ~match_:(Match_fields.make ~tp_dst:443 ())
          ~actions:[] ()));
  let removed =
    Flow_table.apply t
      (Flow_mod.delete ~match_:(Match_fields.make ~tp_dst:80 ()) ())
  in
  Alcotest.(check int) "one removed" 1 (List.length removed);
  Alcotest.(check int) "one left" 1 (Flow_table.size t)

let test_table_counters_and_stats () =
  let t = Flow_table.create () in
  ignore
    (Flow_table.apply t
       (Flow_mod.add ~priority:5 ~cookie:42 ~match_:Match_fields.wildcard_all
          ~actions:[ Action.Output 1 ] ()));
  ignore (Flow_table.lookup t ~in_port:1 (pkt ()));
  ignore (Flow_table.lookup t ~in_port:1 (pkt ()));
  match Flow_table.flow_stats t None with
  | [ fs ] ->
    Alcotest.(check int64) "2 packets" 2L fs.Stats.packet_count;
    Alcotest.(check int) "cookie" 42 fs.Stats.cookie;
    Alcotest.(check bool) "bytes counted" true (fs.Stats.byte_count > 0L)
  | l -> Alcotest.failf "expected 1 stat, got %d" (List.length l)

let test_table_hard_timeout () =
  let t = Flow_table.create () in
  ignore
    (Flow_table.apply t
       (Flow_mod.add ~hard_timeout:2 ~match_:Match_fields.wildcard_all ~actions:[] ()));
  Flow_table.tick t;
  Alcotest.(check int) "not yet" 0 (List.length (Flow_table.expire t));
  Flow_table.tick t;
  Alcotest.(check int) "expired" 1 (List.length (Flow_table.expire t));
  Alcotest.(check int) "gone" 0 (Flow_table.size t)

(* An Add that replaces an entry, and a lookup, allocate no more in a
   1024-entry table than in an 8-entry one.  Exact [Gc.minor_words]
   counts on this domain; the least of a few tries, so that a stray
   thread of an earlier test cannot add to the count. *)
let minor_words f =
  let least = ref infinity in
  for _ = 1 to 5 do
    let w0 = Gc.minor_words () in
    f ();
    least := Float.min !least (Gc.minor_words () -. w0)
  done;
  !least

let test_table_size_independent () =
  let cost n =
    let t = Flow_table.create () in
    let fm mac port =
      Flow_mod.add ~priority:100 ~match_:(Match_fields.make ~dl_dst:mac ())
        ~actions:[ Action.Output port ] ()
    in
    for mac = 1 to n do
      ignore (Flow_table.apply t (fm mac 1))
    done;
    let replace = fm (n / 2) 2 and p = pkt ~dst:(n / 2) () in
    ( minor_words (fun () -> ignore (Flow_table.apply t replace)),
      minor_words (fun () -> ignore (Flow_table.lookup t ~in_port:1 p)) )
  in
  let add_small, lookup_small = cost 8 and add_big, lookup_big = cost 1024 in
  let slack = 8. in
  if add_big > add_small +. slack then
    Alcotest.failf "replacing Add: %.0f words at 1024 entries, %.0f at 8"
      add_big add_small;
  if lookup_big > lookup_small +. slack then
    Alcotest.failf "lookup: %.0f words at 1024 entries, %.0f at 8" lookup_big
      lookup_small

(* Oracle: Flow_table against the list reference (Flow_table_ref) ---------- *)

type table_op =
  | Apply of Flow_mod.t
  | Lookup of port_no * Packet.t
  | Tick
  | Expire
  | Flow_stats of Match_fields.t option

(* Small value domains, so that matches collide, overlap and repeat. *)
let gen_packet =
  let open QCheck.Gen in
  let addr = oneofl [ "10.0.0.1"; "10.0.0.2"; "10.0.1.7"; "192.168.0.1" ] in
  let* dl_src = int_range 1 3 and* dl_dst = int_range 1 3 in
  let* dl_type = oneofl [ Eth_ip; Eth_other 0x0800; Eth_arp ] in
  let* dl_vlan = oneofl [ None; Some 7 ] in
  let* ip =
    opt
      (let* nw_src = addr and* nw_dst = addr in
       let* nw_proto = oneofl [ Proto_tcp; Proto_other 6; Proto_udp ] in
       return
         { Packet.nw_src = ip nw_src; nw_dst = ip nw_dst; nw_proto; ttl = 64 })
  in
  let* tp =
    opt
      (let* tp_src = oneofl [ 80; 4321 ] and* tp_dst = oneofl [ 80; 443 ] in
       return { Packet.tp_src; tp_dst; flags = Packet.no_flags })
  in
  return { Packet.dl_src; dl_dst; dl_type; dl_vlan; ip; tp; payload = "" }

let gen_match =
  let open QCheck.Gen in
  let field g = frequency [ (2, return None); (1, map Option.some g) ] in
  (* Addresses keep their bits outside the mask: 10.0.1.7/255.255.255.0
     matches the same packets as 10.0.1.0/255.255.255.0 but is not
     [Match_fields.equal] to it. *)
  let ip_match =
    let* addr = oneofl [ "10.0.0.1"; "10.0.1.7"; "10.0.1.0"; "192.168.0.1" ] in
    let* mask =
      oneofl [ 0xFFFFFFFFl; 0xFFFFFF00l; 0xFFFF0000l; 0xFF000000l; 0l ]
    in
    return { Match_fields.addr = ip addr; mask }
  in
  let masked =
    let* in_port = field (int_range 1 3) in
    let* dl_src = field (int_range 1 3) and* dl_dst = field (int_range 1 3) in
    let* dl_type = field (oneofl [ Eth_ip; Eth_other 0x0800; Eth_arp ]) in
    let* dl_vlan = field (return 7) in
    let* nw_src = field ip_match and* nw_dst = field ip_match in
    let* nw_proto = field (oneofl [ Proto_tcp; Proto_other 6; Proto_udp ]) in
    let* tp_src = field (oneofl [ 80; 4321 ]) in
    let* tp_dst = field (oneofl [ 80; 443 ]) in
    return
      (Match_fields.make ?in_port ?dl_src ?dl_dst ?dl_type ?dl_vlan ?nw_src
         ?nw_dst ?nw_proto ?tp_src ?tp_dst ())
  in
  let exact =
    let* in_port = int_range 1 3 and* p = gen_packet in
    return (Match_fields.of_packet ~in_port p)
  in
  frequency [ (1, return Match_fields.wildcard_all); (2, exact); (5, masked) ]

let gen_table_op =
  let open QCheck.Gen in
  let timeout = frequency [ (3, return 0); (1, int_range 1 3) ] in
  let flow_mod =
    let* command =
      frequency
        [ (5, return Flow_mod.Add); (1, return Flow_mod.Modify);
          (1, return Flow_mod.Delete) ]
    in
    let* match_ = gen_match and* priority = oneofl [ 0; 5; 5; 100 ] in
    let* actions =
      oneofl [ []; [ Action.Output 1 ]; [ Action.Output 2 ]; [ Action.Flood ] ]
    in
    let* cookie = int_range 0 3 in
    let* idle_timeout = timeout and* hard_timeout = timeout in
    return
      { Flow_mod.command; match_; priority; actions; idle_timeout;
        hard_timeout; cookie }
  in
  frequency
    [ (6, map (fun fm -> Apply fm) flow_mod);
      (5, map2 (fun port p -> Lookup (port, p)) (int_range 1 3) gen_packet);
      (1, return Tick); (1, return Expire);
      (1, map (fun m -> Flow_stats m) (opt gen_match)) ]

let pp_table_op ppf = function
  | Apply fm -> Flow_mod.pp ppf fm
  | Lookup (port, p) -> Fmt.pf ppf "lookup p%d %a" port Packet.pp p
  | Tick -> Fmt.string ppf "tick"
  | Expire -> Fmt.string ppf "expire"
  | Flow_stats m ->
    Fmt.pf ppf "flow_stats %a" Fmt.(option ~none:(any "*") Match_fields.pp) m

let of_ref (e : Flow_table_ref.entry) : Flow_table.entry =
  { match_ = e.match_; priority = e.priority; actions = e.actions;
    cookie = e.cookie; idle_timeout = e.idle_timeout;
    hard_timeout = e.hard_timeout; packet_count = e.packet_count;
    byte_count = e.byte_count; install_time = e.install_time }

(* Run [ops] on both tables; every result, [entries] and [size] must
   agree after every step. *)
let agrees_with_reference ops =
  let t = Flow_table.create () and r = Flow_table_ref.create () in
  List.for_all
    (fun op ->
      let same_result =
        match op with
        | Apply fm ->
          Flow_table.apply t fm = List.map of_ref (Flow_table_ref.apply r fm)
        | Lookup (in_port, p) ->
          Flow_table.lookup t ~in_port p
          = Option.map of_ref (Flow_table_ref.lookup r ~in_port p)
        | Tick ->
          Flow_table.tick t;
          Flow_table_ref.tick r;
          true
        | Expire ->
          Flow_table.expire t = List.map of_ref (Flow_table_ref.expire r)
        | Flow_stats m ->
          Flow_table.flow_stats t m = Flow_table_ref.flow_stats r m
      in
      same_result
      && Flow_table.entries t = List.map of_ref (Flow_table_ref.entries r)
      && Flow_table.size t = Flow_table_ref.size r)
    ops

let qsuite =
  [ QCheck.Test.make ~count:1000 ~name:"table = list reference"
      (QCheck.make
         ~print:(Fmt.to_to_string Fmt.(vbox (list pp_table_op)))
         QCheck.Gen.(list_size (return 60) gen_table_op))
      agrees_with_reference ]

(* Topology ------------------------------------------------------------------ *)

let test_topology_linear () =
  let t = Topology.linear 4 in
  Alcotest.(check int) "switches" 4 (List.length (Topology.switches t));
  Alcotest.(check int) "undirected links" 3 (List.length (Topology.undirected_links t));
  Alcotest.(check int) "hosts" 4 (List.length (Topology.hosts t));
  match Topology.shortest_path t ~src:1 ~dst:4 with
  | Some path -> Alcotest.(check (list int)) "path" [ 1; 2; 3; 4 ] path
  | None -> Alcotest.fail "expected a path"

let test_topology_tree () =
  let t = Topology.tree ~fanout:3 ~hosts_per_leaf:2 in
  Alcotest.(check int) "switches" 4 (List.length (Topology.switches t));
  Alcotest.(check int) "hosts" 6 (List.length (Topology.hosts t));
  match Topology.shortest_path t ~src:2 ~dst:4 with
  | Some path -> Alcotest.(check (list int)) "via root" [ 2; 1; 4 ] path
  | None -> Alcotest.fail "expected a path"

let test_topology_disconnect () =
  let t = Topology.linear 3 in
  Topology.remove_link t ~src:{ Topology.dpid = 1; port = 2 }
    ~dst:{ Topology.dpid = 2; port = 1 };
  Alcotest.(check bool) "disconnected" false (Topology.connected t ~src:1 ~dst:3);
  Alcotest.(check bool) "rest connected" true (Topology.connected t ~src:2 ~dst:3)

let test_topology_remove_switch () =
  let t = Topology.linear 3 in
  Topology.remove_switch t 2;
  Alcotest.(check int) "two left" 2 (List.length (Topology.switches t));
  Alcotest.(check bool) "split" false (Topology.connected t ~src:1 ~dst:3);
  Alcotest.(check int) "host gone too" 2 (List.length (Topology.hosts t))

let test_topology_lookups () =
  let t = Topology.linear 3 in
  (match Topology.host_by_name t "h2" with
  | Some h ->
    Alcotest.(check int) "attached to s2" 2 h.Topology.attachment.Topology.dpid;
    Alcotest.(check bool) "by mac" true (Topology.host_by_mac t h.Topology.mac <> None);
    Alcotest.(check bool) "by ip" true (Topology.host_by_ip t h.Topology.ip <> None)
  | None -> Alcotest.fail "h2 missing");
  Alcotest.(check bool) "no h9" true (Topology.host_by_name t "h9" = None)

let test_topology_path_hops () =
  let t = Topology.linear 3 in
  let hops = Topology.path_hops t [ 1; 2; 3 ] in
  Alcotest.(check int) "3 hops" 3 (List.length hops);
  (match hops with
  | [ (None, 1, Some 2); (Some 1, 2, Some 2); (Some 1, 3, None) ] -> ()
  | _ -> Alcotest.fail "unexpected hop structure");
  Alcotest.(check bool) "peer" true
    (Topology.peer_of t { Topology.dpid = 1; port = 2 }
    = Some { Topology.dpid = 2; port = 1 })

(* Switch -------------------------------------------------------------------- *)

let test_switch_table_miss_punts () =
  let sw = Switch.create ~dpid:1 ~ports:[ 1; 2 ] in
  match Switch.process sw ~in_port:1 (pkt ()) with
  | [ Switch.To_controller _ ] -> ()
  | _ -> Alcotest.fail "miss should punt to controller"

let test_switch_forward_and_flood () =
  let sw = Switch.create ~dpid:1 ~ports:[ 1; 2; 3 ] in
  ignore
    (Switch.apply_flow_mod sw
       (Flow_mod.add ~match_:(Match_fields.make ~tp_dst:80 ())
          ~actions:[ Action.Output 3 ] ()));
  (match Switch.process sw ~in_port:1 (pkt ()) with
  | [ Switch.Forward (3, _) ] -> ()
  | _ -> Alcotest.fail "expected forward to 3");
  ignore
    (Switch.apply_flow_mod sw
       (Flow_mod.add ~priority:300 ~match_:(Match_fields.make ~tp_dst:81 ())
          ~actions:[ Action.Flood ] ()));
  match Switch.process sw ~in_port:1 (pkt ~tp_dst:81 ()) with
  | outs ->
    let ports =
      List.filter_map (function Switch.Forward (p, _) -> Some p | _ -> None) outs
      |> List.sort compare
    in
    Alcotest.(check (list int)) "flood skips ingress" [ 2; 3 ] ports

let test_switch_drop_and_counters () =
  let sw = Switch.create ~dpid:1 ~ports:[ 1; 2 ] in
  ignore
    (Switch.apply_flow_mod sw
       (Flow_mod.add ~match_:Match_fields.wildcard_all ~actions:[] ()));
  (match Switch.process sw ~in_port:1 (pkt ()) with
  | [ Switch.Dropped ] -> ()
  | _ -> Alcotest.fail "expected drop");
  let stats = Switch.port_stats sw in
  let p1 = List.find (fun (s : Stats.port_stat) -> s.port_no = 1) stats in
  Alcotest.(check int64) "rx counted" 1L p1.Stats.rx_packets;
  Alcotest.(check int64) "drop counted" 1L p1.Stats.rx_dropped

let test_switch_rewrite_pipeline () =
  let sw = Switch.create ~dpid:1 ~ports:[ 1; 2 ] in
  ignore
    (Switch.apply_flow_mod sw
       (Flow_mod.add ~match_:(Match_fields.make ~tp_dst:23 ())
          ~actions:[ Action.Set (Action.Set_tp_dst 80); Action.Output 2 ] ()));
  match Switch.process sw ~in_port:1 (pkt ~tp_dst:23 ()) with
  | [ Switch.Forward (2, p) ] ->
    Alcotest.(check int) "rewritten on the wire" 80
      (Option.get p.Packet.tp).Packet.tp_dst
  | _ -> Alcotest.fail "expected rewritten forward"

(* Dataplane ------------------------------------------------------------------ *)

let linear_dp n =
  let topo = Topology.linear n in
  (topo, Dataplane.create topo)

let host topo name = Option.get (Topology.host_by_name topo name)

let test_dataplane_miss_punts_at_ingress () =
  let topo, dp = linear_dp 3 in
  let h1 = host topo "h1" and h3 = host topo "h3" in
  let p =
    Packet.tcp ~src:h1.Topology.mac ~dst:h3.Topology.mac ~nw_src:h1.Topology.ip
      ~nw_dst:h3.Topology.ip ~tp_src:1 ~tp_dst:80 ()
  in
  let r = Dataplane.inject_from_host dp h1 p in
  Alcotest.(check int) "one punt" 1 (List.length r.Dataplane.punted);
  let punt = List.hd r.Dataplane.punted in
  Alcotest.(check int) "at s1" 1 punt.Dataplane.dpid;
  Alcotest.(check int) "ingress port" 3 punt.Dataplane.in_port;
  (* Two hops: s1 forwards to s2, which misses and punts the packet with
     the port it arrived on (s2's port facing s1). *)
  ignore
    (Dataplane.apply_flow_mod dp 1
       (Flow_mod.add ~match_:Match_fields.wildcard_all
          ~actions:[ Action.Output 2 ] ()));
  match (Dataplane.inject_at dp ~dpid:1 ~in_port:3 p).Dataplane.punted with
  | [ punt ] ->
    Alcotest.(check int) "at s2" 2 punt.Dataplane.dpid;
    Alcotest.(check int) "s2 ingress port" 1 punt.Dataplane.in_port
  | l -> Alcotest.failf "expected one punt, got %d" (List.length l)

let install_path dp topo ~(dst : Topology.host) =
  (* Minimal routing: for every switch, forward dst's IP towards it. *)
  List.iter
    (fun sw ->
      let dst_sw = dst.Topology.attachment.Topology.dpid in
      let port =
        if sw = dst_sw then Some dst.Topology.attachment.Topology.port
        else
          match Topology.shortest_path topo ~src:sw ~dst:dst_sw with
          | Some (_ :: next :: _) ->
            Option.map fst (Topology.link_ports_between topo ~src:sw ~dst:next)
          | _ -> None
      in
      match port with
      | Some p ->
        ignore
          (Dataplane.apply_flow_mod dp sw
             (Flow_mod.add
                ~match_:(Match_fields.make ~nw_dst:(Match_fields.exact_ip dst.Topology.ip) ())
                ~actions:[ Action.Output p ] ()))
      | None -> ())
    (Topology.switches topo)

let test_dataplane_end_to_end_delivery () =
  let topo, dp = linear_dp 4 in
  let h1 = host topo "h1" and h4 = host topo "h4" in
  install_path dp topo ~dst:h4;
  match Dataplane.probe dp ~src:h1 ~dst:h4 () with
  | Dataplane.Delivered_to (name, path) ->
    Alcotest.(check string) "to h4" "h4" name;
    Alcotest.(check (list int)) "via all switches" [ 1; 2; 3; 4 ] path
  | _ -> Alcotest.fail "expected delivery"

let test_dataplane_loop_detection () =
  let topo, dp = linear_dp 2 in
  (* s1 sends port-80 traffic to s2 and s2 sends it straight back. *)
  let m = Match_fields.make ~tp_dst:80 () in
  ignore (Dataplane.apply_flow_mod dp 1 (Flow_mod.add ~match_:m ~actions:[ Action.Output 2 ] ()));
  ignore (Dataplane.apply_flow_mod dp 2 (Flow_mod.add ~match_:m ~actions:[ Action.Output 1 ] ()));
  let h1 = host topo "h1" in
  let p = pkt ~src:h1.Topology.mac () in
  let r = Dataplane.inject_at dp ~dpid:1 ~in_port:3 p in
  Alcotest.(check bool) "looped" true r.Dataplane.looped

let test_dataplane_packet_out_flood () =
  let topo, dp = linear_dp 2 in
  ignore topo;
  let p = Packet.arp ~src:1 ~dst:Types.broadcast_mac () in
  let r = Dataplane.packet_out dp ~dpid:1 ~port:(-1) p in
  (* Flood from s1 reaches h1 directly and s2 (which punts on miss). *)
  Alcotest.(check int) "delivered to h1" 1 (List.length r.Dataplane.delivered);
  Alcotest.(check int) "punted at s2" 1 (List.length r.Dataplane.punted)

let test_dataplane_stats_fanout () =
  let _topo, dp = linear_dp 3 in
  (match Dataplane.stats dp (Stats.request Stats.Switch_level) with
  | Stats.Switch_stats l -> Alcotest.(check int) "3 switches" 3 (List.length l)
  | _ -> Alcotest.fail "wrong reply");
  match Dataplane.stats dp (Stats.request ~dpid:2 Stats.Port_level) with
  | Stats.Port_stats [ (2, _) ] -> ()
  | _ -> Alcotest.fail "expected port stats for s2 only"

let test_dataplane_tick_expiry () =
  let _topo, dp = linear_dp 1 in
  ignore
    (Dataplane.apply_flow_mod dp 1
       (Flow_mod.add ~hard_timeout:1 ~match_:Match_fields.wildcard_all ~actions:[] ()));
  let expired = Dataplane.tick dp in
  Alcotest.(check int) "expired after tick" 1 (List.length expired)

let suite =
  [ Alcotest.test_case "table priority order" `Quick test_table_priority_order;
    Alcotest.test_case "table add replaces" `Quick test_table_add_replaces;
    Alcotest.test_case "table modify" `Quick test_table_modify;
    Alcotest.test_case "table delete subsumed" `Quick test_table_delete_subsumed;
    Alcotest.test_case "table counters/stats" `Quick test_table_counters_and_stats;
    Alcotest.test_case "table hard timeout" `Quick test_table_hard_timeout;
    Alcotest.test_case "table size-independent" `Quick test_table_size_independent;
    Alcotest.test_case "topology linear" `Quick test_topology_linear;
    Alcotest.test_case "topology tree" `Quick test_topology_tree;
    Alcotest.test_case "topology disconnect" `Quick test_topology_disconnect;
    Alcotest.test_case "topology remove switch" `Quick test_topology_remove_switch;
    Alcotest.test_case "topology lookups" `Quick test_topology_lookups;
    Alcotest.test_case "topology path hops" `Quick test_topology_path_hops;
    Alcotest.test_case "switch miss punts" `Quick test_switch_table_miss_punts;
    Alcotest.test_case "switch forward/flood" `Quick test_switch_forward_and_flood;
    Alcotest.test_case "switch drop/counters" `Quick test_switch_drop_and_counters;
    Alcotest.test_case "switch rewrite pipeline" `Quick test_switch_rewrite_pipeline;
    Alcotest.test_case "dataplane miss punts" `Quick test_dataplane_miss_punts_at_ingress;
    Alcotest.test_case "dataplane delivery" `Quick test_dataplane_end_to_end_delivery;
    Alcotest.test_case "dataplane loop detection" `Quick test_dataplane_loop_detection;
    Alcotest.test_case "dataplane packet-out flood" `Quick test_dataplane_packet_out_flood;
    Alcotest.test_case "dataplane stats fanout" `Quick test_dataplane_stats_fanout;
    Alcotest.test_case "dataplane tick expiry" `Quick test_dataplane_tick_expiry ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
