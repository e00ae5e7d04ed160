(* High-level policy composition under SDNShield (§VI-C).

   A firewall module and a routing module are written in the bundled
   decision-tree policy language and composed; the compiler tracks
   which app contributed each compiled rule, and SDNShield checks every
   rule against each owner's permission engine — including the partial-
   denial mode the paper sketches as future work.

   Run with: dune exec examples/hll_composition.exe *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller
open Shield_hll
open Sdnshield

let () =
  Fmt.pr "=== High-level policy composition under SDNShield ===@.@.";
  let open Syntax in
  (* Module 1 (firewall app): only web traffic may proceed; everything
     else dies here. *)
  let firewall ~inner =
    tag "firewall"
      (if_
         (Test (Eth_type_is Eth_ip) &&. (tcp_dst 80 ||. tcp_dst 443))
         ~then_:inner ~else_:Drop)
  in
  (* Module 2 (router app): send 10.0/8 traffic out port 2, and rewrite
     a legacy server's port on the way. *)
  let router =
    tag "router"
      (if_
         (ip_dst_subnet (ipv4_of_string "10.0.0.0") (prefix_mask 8))
         ~then_:
           (if_ (tcp_dst 443)
              ~then_:(Modify (Action.Set_tp_dst 8443, Forward 2))
              ~else_:(Forward 2))
         ~else_:Drop)
  in
  let composed = firewall ~inner:router in
  Fmt.pr "--- Composed policy ---@.%a@.@." pp_policy composed;

  Fmt.pr "--- Compiled rules (with ownership) ---@.";
  let rules = Compiler.compile composed in
  List.iter (fun r -> Fmt.pr "%a@." Compiler.pp_rule r) rules;

  (* Permission engines: the firewall may do anything to flows; the
     router is forwarding-only — so the compiled rewrite rule it
     co-owns must be rejected on its behalf. *)
  let engines =
    [ ("firewall",
       Engine.create ~app_name:"firewall" (Perm_parser.manifest_exn "PERM insert_flow"));
      ("router",
       Engine.create ~app_name:"router"
         (Perm_parser.manifest_exn
            "PERM insert_flow LIMITING ACTION FORWARD OR ACTION DROP")) ]
  in
  let run_mode mode label =
    Fmt.pr "@.--- Deployment (%s) ---@." label;
    let topo = Topology.linear 2 in
    let dp = Dataplane.create topo in
    let kernel = Kernel.create dp in
    let report =
      Deploy.deploy ~mode ~engines ~switches:[ 1 ]
        ~install:(fun d fm ->
          ignore (Kernel.exec kernel ~app:"hll" ~cookie:9 (Api.Install_flow (d, fm))))
        composed
    in
    List.iter (fun v -> Fmt.pr "%a@." Deploy.pp_verdict v) report.Deploy.verdicts;
    Fmt.pr "installed=%d rejected=%d@." report.Deploy.installed_rules
      report.Deploy.rejected_rules;
    (* Observable behaviour. *)
    let probe tp_dst =
      let p =
        Packet.tcp ~src:1 ~dst:2 ~nw_src:(ipv4_of_string "10.0.0.1")
          ~nw_dst:(ipv4_of_string "10.0.0.9") ~tp_src:555 ~tp_dst ()
      in
      let r = Dataplane.inject_at dp ~dpid:1 ~in_port:3 p in
      if r.Dataplane.dropped > 0 then "dropped"
      else if r.Dataplane.punted <> [] then "punted"
      else "forwarded"
    in
    Fmt.pr "http(80): %s, https(443): %s, telnet(23): %s@." (probe 80)
      (probe 443) (probe 23)
  in
  run_mode Deploy.Strict "strict: all owners must authorise";
  run_mode Deploy.Partial "partial denial: unauthorised owners reported"
