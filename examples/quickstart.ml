(* Quickstart: the SDNShield permission pipeline in one page.

   1. Parse an app's permission manifest (the developer side).
   2. Compile it into a permission engine.
   3. Check some API calls against it and look at the decisions.

   Run with: dune exec examples/quickstart.exe *)

open Shield_openflow
open Shield_openflow.Types
open Shield_controller
open Sdnshield

let () =
  (* A least-privilege manifest for a reactive forwarding app: it may
     watch packet-ins, install forwarding-only rules into the
     10.0.0.0/8 tenant space, and replay buffered packets — no
     arbitrary injection, no host access. *)
  let manifest_src =
    "PERM pkt_in_event\n\
     PERM read_payload\n\
     PERM insert_flow LIMITING ACTION FORWARD AND \\\n\
     \                 IP_DST 10.0.0.0 MASK 255.0.0.0 AND MAX_PRIORITY 1000\n\
     PERM send_pkt_out LIMITING FROM_PKT_IN\n"
  in
  let manifest = Perm_parser.manifest_exn manifest_src in
  Fmt.pr "=== Requested manifest ===@.%a@.@." Perm.pp manifest;

  let engine = Engine.create ~app_name:"quickstart" manifest in

  let check label call =
    match Engine.check engine call with
    | Api.Allow -> Fmt.pr "ALLOW  %-38s %a@." label Api.pp_call call
    | Api.Deny _ -> Fmt.pr "DENY   %-38s %a@." label Api.pp_call call
  in

  let fm ?(priority = 100) ?(actions = [ Action.Output 2 ]) dst =
    Flow_mod.add ~priority
      ~match_:
        (Match_fields.make ~dl_type:Eth_ip
           ~nw_dst:(Match_fields.exact_ip (ipv4_of_string dst))
           ())
      ~actions ()
  in

  Fmt.pr "=== Decisions ===@.";
  check "forwarding rule in tenant space" (Api.Install_flow (1, fm "10.3.2.1"));
  check "rule outside tenant space" (Api.Install_flow (1, fm "192.168.1.1"));
  check "over-priority rule" (Api.Install_flow (1, fm ~priority:5000 "10.3.2.1"));
  check "header-rewriting rule"
    (Api.Install_flow
       (1, fm ~actions:[ Action.Set (Action.Set_tp_dst 80); Action.Output 2 ] "10.3.2.1"));
  check "packet-in replay"
    (Api.Send_packet_out
       { dpid = 1; port = 2; packet = Packet.arp ~src:1 ~dst:2 (); from_pkt_in = true });
  check "arbitrary packet injection"
    (Api.Send_packet_out
       { dpid = 1; port = 2; packet = Packet.arp ~src:1 ~dst:2 (); from_pkt_in = false });
  check "topology read (no token)" Api.Read_topology;
  check "host network access (no token)"
    (Api.Syscall
       (Api.Net_connect
          { dst = ipv4_of_string "66.66.66.66"; dst_port = 80; payload = "exfil" }));

  (* Transactions: all-or-nothing rule groups (§VI-B2). *)
  Fmt.pr "@.=== Transactional API calls ===@.";
  (match
     Engine.check_transaction engine
       [ Api.Install_flow (1, fm "10.1.1.1");
         Api.Install_flow (1, fm "192.168.9.9");
         Api.Install_flow (1, fm "10.1.1.2") ]
   with
  | Ok () -> Fmt.pr "transaction approved@."
  | Error (i, why) ->
    Fmt.pr "transaction rejected at call #%d (%s) — nothing was installed@."
      i why);
  let checks, denials = Engine.stats engine in
  Fmt.pr "@.%d permission checks performed, %d denied.@." checks denials
