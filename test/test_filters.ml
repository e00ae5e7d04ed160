(* Filter evaluation semantics (§IV-B): per-singleton behaviour and
   boolean-composition laws, including qcheck property tests. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_controller
open Sdnshield

let ip = ipv4_of_string
let env = Filter_eval.pure_env
let eval e call = Filter_eval.eval env e (Attrs.of_call call)

let insert ?(dpid = 1) ?(nw_dst = Some "10.13.1.2") ?(nw_dst_mask = None)
    ?(priority = 100) ?(actions = [ Action.Output 1 ]) () =
  let nw_dst =
    Option.map
      (fun a ->
        match nw_dst_mask with
        | Some m -> Match_fields.subnet (ip a) (ip m)
        | None -> Match_fields.exact_ip (ip a))
      nw_dst
  in
  let match_ = Match_fields.make ?nw_dst ~dl_type:Eth_ip () in
  Api.Install_flow (dpid, Flow_mod.add ~priority ~match_ ~actions ())

(* Predicate filters ----------------------------------------------------------- *)

let subnet_filter = Test_util.filter_exn "IP_DST 10.13.0.0 MASK 255.255.0.0"

let test_pred_subnet () =
  Alcotest.(check bool) "narrower passes" true (eval subnet_filter (insert ()));
  Alcotest.(check bool) "outside fails" false
    (eval subnet_filter (insert ~nw_dst:(Some "10.14.1.2") ()));
  Alcotest.(check bool) "broader fails" false
    (eval subnet_filter
       (insert ~nw_dst:(Some "10.0.0.0") ~nw_dst_mask:(Some "255.0.0.0") ()));
  Alcotest.(check bool) "wildcarded fails" false
    (eval subnet_filter (insert ~nw_dst:None ()));
  Alcotest.(check bool) "equal range passes" true
    (eval subnet_filter
       (insert ~nw_dst:(Some "10.13.0.0") ~nw_dst_mask:(Some "255.255.0.0") ()))

let test_pred_vacuous_on_other_kinds () =
  (* A flow predicate attached to a topology read passes vacuously. *)
  Alcotest.(check bool) "read_topology unaffected" true
    (eval subnet_filter Api.Read_topology);
  Alcotest.(check bool) "event unaffected" true
    (eval subnet_filter (Api.Receive_event Api.E_packet_in))

let test_pred_on_syscall () =
  (* network_access LIMITING IP_DST — the Scenario 1 confinement. *)
  let f = Test_util.filter_exn "IP_DST 10.1.0.0 MASK 255.255.0.0" in
  let conn dst =
    Api.Syscall (Api.Net_connect { dst = ip dst; dst_port = 80; payload = "" })
  in
  Alcotest.(check bool) "admin range ok" true (eval f (conn "10.1.4.5"));
  Alcotest.(check bool) "attacker denied" false (eval f (conn "66.66.66.66"))

let test_pred_on_packet_out () =
  let f = Test_util.filter_exn "TCP_DST 80" in
  let po tp_dst =
    Api.Send_packet_out
      { dpid = 1; port = 1;
        packet =
          Packet.tcp ~src:1 ~dst:2 ~nw_src:(ip "10.0.0.1") ~nw_dst:(ip "10.0.0.2")
            ~tp_src:9 ~tp_dst ();
        from_pkt_in = false }
  in
  Alcotest.(check bool) "http pkt-out ok" true (eval f (po 80));
  Alcotest.(check bool) "telnet pkt-out rejected" false (eval f (po 23))

(* Wildcard filters -------------------------------------------------------------- *)

let test_wildcard_filter () =
  (* Upper 24 bits of IP_DST must stay wildcarded (the load-balancer
     example of §IV-B). *)
  let f = Test_util.filter_exn "WILDCARD IP_DST 255.255.255.0" in
  Alcotest.(check bool) "lower-8-bit rule ok" true
    (eval f
       (insert ~nw_dst:(Some "0.0.0.7") ~nw_dst_mask:(Some "0.0.0.255") ()));
  Alcotest.(check bool) "exact rule rejected" false
    (eval f (insert ~nw_dst:(Some "10.0.0.7") ()));
  Alcotest.(check bool) "fully wild ok" true (eval f (insert ~nw_dst:None ()))

(* Action filters ----------------------------------------------------------------- *)

let test_action_filter () =
  let fwd = Test_util.filter_exn "ACTION FORWARD" in
  Alcotest.(check bool) "forward ok" true (eval fwd (insert ()));
  Alcotest.(check bool) "drop rejected" false (eval fwd (insert ~actions:[] ()));
  Alcotest.(check bool) "rewrite rejected" false
    (eval fwd
       (insert ~actions:[ Action.Set (Action.Set_tp_dst 80); Action.Output 1 ] ()));
  let drop = Test_util.filter_exn "ACTION DROP" in
  Alcotest.(check bool) "drop ok" true (eval drop (insert ~actions:[] ()));
  Alcotest.(check bool) "forward rejected" false (eval drop (insert ()));
  let mod_tp = Test_util.filter_exn "ACTION MODIFY TCP_DST" in
  Alcotest.(check bool) "tp rewrite ok" true
    (eval mod_tp
       (insert ~actions:[ Action.Set (Action.Set_tp_dst 80); Action.Output 1 ] ()));
  Alcotest.(check bool) "other rewrite rejected" false
    (eval mod_tp
       (insert
          ~actions:[ Action.Set (Action.Set_nw_dst (ip "1.2.3.4")); Action.Output 1 ]
          ()))

(* Priority / rule-count ------------------------------------------------------------ *)

let test_priority_filters () =
  let f = Test_util.filter_exn "MAX_PRIORITY 500" in
  Alcotest.(check bool) "under max" true (eval f (insert ~priority:500 ()));
  Alcotest.(check bool) "over max" false (eval f (insert ~priority:501 ()));
  let g = Test_util.filter_exn "MIN_PRIORITY 10" in
  Alcotest.(check bool) "above min" true (eval g (insert ~priority:10 ()));
  Alcotest.(check bool) "below min" false (eval g (insert ~priority:9 ()))

let test_rule_count_uses_env () =
  let f = Test_util.filter_exn "MAX_RULE_COUNT 2" in
  let env_at n =
    { Filter_eval.pure_env with Filter_eval.rule_count = (fun _ -> n) }
  in
  let attrs = Attrs.of_call (insert ()) in
  Alcotest.(check bool) "budget free" true (Filter_eval.eval (env_at 1) f attrs);
  Alcotest.(check bool) "budget exhausted" false (Filter_eval.eval (env_at 2) f attrs)

(* Packet-out provenance -------------------------------------------------------------- *)

let test_pkt_out_filter () =
  let f = Test_util.filter_exn "FROM_PKT_IN" in
  let po from_pkt_in =
    Api.Send_packet_out
      { dpid = 1; port = 1; packet = Packet.arp ~src:1 ~dst:2 (); from_pkt_in }
  in
  Alcotest.(check bool) "replay ok" true (eval f (po true));
  Alcotest.(check bool) "arbitrary rejected" false (eval f (po false));
  let g = Test_util.filter_exn "ARBITRARY" in
  Alcotest.(check bool) "arbitrary allowed" true (eval g (po false))

(* Topology filters ---------------------------------------------------------------------- *)

let test_phys_topo_filter () =
  let f = Test_util.filter_exn "SWITCH 1,2" in
  Alcotest.(check bool) "member switch" true (eval f (insert ~dpid:2 ()));
  Alcotest.(check bool) "outside switch" false (eval f (insert ~dpid:3 ()));
  (* Whole-network reads pass (visibility filtered at the response). *)
  Alcotest.(check bool) "whole-net read passes" true
    (eval f (Api.Read_flow_table { dpid = None; pattern = None }))

let test_virt_topo_filter () =
  let f = Test_util.filter_exn "VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS" in
  Alcotest.(check bool) "big switch addressable" true
    (eval f (insert ~dpid:Filter_eval.virtual_big_switch_dpid ()));
  Alcotest.(check bool) "physical switch hidden" false (eval f (insert ~dpid:1 ()))

(* Stats filters ---------------------------------------------------------------------------- *)

let test_stats_filter () =
  let f = Test_util.filter_exn "PORT_LEVEL" in
  let rd level = Api.Read_stats (Stats.request level) in
  Alcotest.(check bool) "port ok" true (eval f (rd Stats.Port_level));
  Alcotest.(check bool) "flow rejected" false (eval f (rd Stats.Flow_level));
  let g = Test_util.filter_exn "PORT_LEVEL OR FLOW_LEVEL" in
  Alcotest.(check bool) "disjunction widens" true (eval g (rd Stats.Flow_level));
  Alcotest.(check bool) "switch still rejected" false (eval g (rd Stats.Switch_level))

(* OWN_FLOWS (via env) ----------------------------------------------------------------------- *)

let test_owner_filter_env () =
  let f = Test_util.filter_exn "OWN_FLOWS" in
  let owned = { env with Filter_eval.owns_all_targeted = (fun _ -> true) } in
  let foreign = { env with Filter_eval.owns_all_targeted = (fun _ -> false) } in
  let attrs = Attrs.of_call (insert ()) in
  Alcotest.(check bool) "own ok" true (Filter_eval.eval owned f attrs);
  Alcotest.(check bool) "foreign rejected" false (Filter_eval.eval foreign f attrs);
  let g = Test_util.filter_exn "ALL_FLOWS" in
  Alcotest.(check bool) "all_flows unrestricted" true (Filter_eval.eval foreign g attrs)

(* Macros deny closed ---------------------------------------------------------------------------- *)

let test_macro_denies () =
  let f = Filter.Atom (Filter.Macro "AdminRange") in
  Alcotest.(check bool) "unresolved stub denies" false (eval f (insert ()));
  let expanded =
    Filter.expand_macros
      (function "AdminRange" -> Some subnet_filter | _ -> None)
      f
  in
  Alcotest.(check bool) "expanded works" true (eval expanded (insert ()))

let test_macro_collection () =
  let f = Test_util.filter_exn "AdminRange OR (LocalTopo AND IP_DST 10.0.0.1)" in
  Alcotest.(check (list string)) "macros found" [ "AdminRange"; "LocalTopo" ]
    (Filter.macros f);
  Alcotest.(check bool) "has_macros" true (Filter.has_macros f);
  Alcotest.(check bool) "clean filter" false (Filter.has_macros subnet_filter)

(* Composition laws (qcheck) ----------------------------------------------------------------------- *)

let singleton_gen : Filter.singleton QCheck.Gen.t =
  let open QCheck.Gen in
  let field = oneofl Filter.[ F_ip_src; F_ip_dst; F_tcp_src; F_tcp_dst ] in
  let ipg = map (fun (a, b) -> ipv4_of_octets (a land 0xDF) b 0 0) (pair (int_bound 255) (int_bound 255)) in
  let maskg = map (fun l -> prefix_mask (8 * l)) (int_range 0 4) in
  frequency
    [ (4,
       map3
         (fun f a m ->
           if Filter.is_ip_field f then
             Filter.Pred { field = f; value = Filter.V_ip a; mask = Some m }
           else Filter.Pred { field = f; value = Filter.V_int (Int32.to_int a land 0xFFFF); mask = None })
         field ipg maskg);
      (1, map (fun m -> Filter.Wildcard { field = Filter.F_ip_dst; mask = m }) maskg);
      (1, oneofl Filter.[ Action_f A_drop; Action_f A_forward; Action_f (A_modify F_tcp_dst) ]);
      (1, oneofl Filter.[ Owner Own_flows; Owner All_flows ]);
      (1, map (fun n -> Filter.Max_priority n) (int_bound 1000));
      (1, map (fun n -> Filter.Min_priority n) (int_bound 1000));
      (1, map (fun n -> Filter.Max_rule_count (n + 1)) (int_bound 100));
      (1, oneofl Filter.[ Pkt_out From_pkt_in; Pkt_out Arbitrary ]);
      (1,
       oneofl
         Shield_openflow.Stats.
           [ Filter.Stats_level Flow_level; Filter.Stats_level Port_level;
             Filter.Stats_level Switch_level ]) ]

let rec expr_gen depth : Filter.expr QCheck.Gen.t =
  let open QCheck.Gen in
  if depth = 0 then map (fun s -> Filter.Atom s) singleton_gen
  else
    frequency
      [ (3, map (fun s -> Filter.Atom s) singleton_gen);
        (1, return Filter.True);
        (1, return Filter.False);
        (2, map2 (fun a b -> Filter.And (a, b)) (expr_gen (depth - 1)) (expr_gen (depth - 1)));
        (2, map2 (fun a b -> Filter.Or (a, b)) (expr_gen (depth - 1)) (expr_gen (depth - 1)));
        (1, map (fun a -> Filter.Not a) (expr_gen (depth - 1))) ]

let expr_arb = QCheck.make ~print:Filter.to_string (expr_gen 3)

let call_gen : Api.call QCheck.Gen.t =
  let open QCheck.Gen in
  let ipg = map (fun (a, b) -> ipv4_of_octets (a land 0xDF) b 1 1) (pair (int_bound 255) (int_bound 255)) in
  let insert_gen =
    map3
      (fun dst prio act ->
        let match_ =
          Match_fields.make ~dl_type:Eth_ip ~nw_dst:(Match_fields.exact_ip dst) ()
        in
        let actions =
          match act mod 3 with
          | 0 -> []
          | 1 -> [ Action.Output 1 ]
          | _ -> [ Action.Set (Action.Set_tp_dst 80); Action.Output 2 ]
        in
        Api.Install_flow (1 + (prio mod 4), Flow_mod.add ~priority:prio ~match_ ~actions ()))
      ipg (int_bound 1000) (int_bound 10)
  in
  let stats_gen =
    map
      (fun l ->
        Api.Read_stats
          (Stats.request
             (List.nth Stats.[ Flow_level; Port_level; Switch_level ] (l mod 3))))
      (int_bound 2)
  in
  let po_gen =
    map2
      (fun b dst ->
        Api.Send_packet_out
          { dpid = 1; port = 1;
            packet =
              Packet.tcp ~src:1 ~dst:2 ~nw_src:(ip "10.0.0.1") ~nw_dst:dst
                ~tp_src:1 ~tp_dst:80 ();
            from_pkt_in = b })
      bool ipg
  in
  frequency
    [ (4, insert_gen); (2, stats_gen); (2, po_gen);
      (1, return Api.Read_topology);
      (1, return (Api.Syscall (Api.Net_connect { dst = ip "10.1.0.1"; dst_port = 80; payload = "" }))) ]

let call_arb = QCheck.make ~print:(Fmt.to_to_string Api.pp_call) call_gen

let qsuite =
  let count = 500 in
  [ QCheck.Test.make ~count ~name:"negation involutive"
      (QCheck.pair expr_arb call_arb)
      (fun (e, c) ->
        let a = Attrs.of_call c in
        Filter_eval.eval env (Filter.Not (Filter.Not e)) a = Filter_eval.eval env e a);
    QCheck.Test.make ~count ~name:"de morgan (and)"
      (QCheck.triple expr_arb expr_arb call_arb)
      (fun (x, y, c) ->
        let a = Attrs.of_call c in
        Filter_eval.eval env (Filter.Not (Filter.And (x, y))) a
        = Filter_eval.eval env (Filter.Or (Filter.Not x, Filter.Not y)) a);
    QCheck.Test.make ~count ~name:"de morgan (or)"
      (QCheck.triple expr_arb expr_arb call_arb)
      (fun (x, y, c) ->
        let a = Attrs.of_call c in
        Filter_eval.eval env (Filter.Not (Filter.Or (x, y))) a
        = Filter_eval.eval env (Filter.And (Filter.Not x, Filter.Not y)) a);
    QCheck.Test.make ~count ~name:"smart constructors preserve semantics"
      (QCheck.triple expr_arb expr_arb call_arb)
      (fun (x, y, c) ->
        let a = Attrs.of_call c in
        Filter_eval.eval env (Filter.conj x y) a
        = Filter_eval.eval env (Filter.And (x, y)) a
        && Filter_eval.eval env (Filter.disj x y) a
           = Filter_eval.eval env (Filter.Or (x, y)) a
        && Filter_eval.eval env (Filter.neg x) a
           = Filter_eval.eval env (Filter.Not x) a);
    QCheck.Test.make ~count ~name:"cnf/dnf preserve semantics"
      (QCheck.pair expr_arb call_arb)
      (fun (e, c) ->
        let a = Attrs.of_call c in
        let reference = Filter_eval.eval env e a in
        (try Filter_eval.eval env (Nf.expr_of_cnf (Nf.cnf e)) a = reference
         with Nf.Too_large -> true)
        &&
        try Filter_eval.eval env (Nf.expr_of_dnf (Nf.dnf e)) a = reference
        with Nf.Too_large -> true);
    QCheck.Test.make ~count ~name:"simplify preserves semantics"
      (QCheck.pair expr_arb call_arb)
      (fun (e, c) ->
        let a = Attrs.of_call c in
        Filter_eval.eval env (Perm_ops.simplify_expr e) a
        = Filter_eval.eval env e a) ]

let suite =
  [ Alcotest.test_case "pred subnet" `Quick test_pred_subnet;
    Alcotest.test_case "pred vacuous elsewhere" `Quick test_pred_vacuous_on_other_kinds;
    Alcotest.test_case "pred on syscall" `Quick test_pred_on_syscall;
    Alcotest.test_case "pred on packet-out" `Quick test_pred_on_packet_out;
    Alcotest.test_case "wildcard filter" `Quick test_wildcard_filter;
    Alcotest.test_case "action filter" `Quick test_action_filter;
    Alcotest.test_case "priority filters" `Quick test_priority_filters;
    Alcotest.test_case "rule-count via env" `Quick test_rule_count_uses_env;
    Alcotest.test_case "pkt-out provenance" `Quick test_pkt_out_filter;
    Alcotest.test_case "physical topology filter" `Quick test_phys_topo_filter;
    Alcotest.test_case "virtual topology filter" `Quick test_virt_topo_filter;
    Alcotest.test_case "stats filter" `Quick test_stats_filter;
    Alcotest.test_case "ownership via env" `Quick test_owner_filter_env;
    Alcotest.test_case "macro denies closed" `Quick test_macro_denies;
    Alcotest.test_case "macro collection" `Quick test_macro_collection ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
