(* sdnshield — command-line front end for the permission and
   reconciliation engines.

     sdnshield parse <manifest-file>
         Validate and pretty-print a permission manifest.

     sdnshield parse-policy <policy-file>
         Validate and pretty-print a security policy.

     sdnshield reconcile --app NAME <manifest-file> <policy-file>
         Run reconciliation and print the report and the final
         manifest.  Exits 1 when violations were found (after repair).

     sdnshield check <manifest-file> [CALL...]
         Compile the manifest and check call specs, e.g.:
           insert:1:10.0.0.1:100   (switch 1, dst IP, priority)
           delete:1:10.0.0.1
           stats:flow | stats:port | stats:switch
           pktout:1  pktout-replay:1
           net:66.66.66.66:80  file:/etc/passwd  spawn:sh
           topo  event:pkt_in

     sdnshield vet <manifest-file> [--policy <policy-file>] [--app NAME]
               [--max-steps N] [--max-clauses N] [--max-nodes N]
               [--max-depth N] [--deadline SECS]
         Vet an untrusted manifest (and optionally reconcile it against
         a policy) under a resource budget (docs/VETTING.md).  Exits 0
         when admitted — degraded verdicts print their fallback notes —
         and 1 when rejected.

     sdnshield lint <file> [--policy] [--json] [--deny SEV]
               [--disable RULE]... [--call SPEC]...
         Run shield-lint (docs/LINTING.md) over a manifest (or, with
         --policy, a policy) and print structured findings as text or
         SARIF-shaped JSON.  --call specs (check syntax) form a
         behaviour trace enabling the over-privilege audit.  Exits
         non-zero when any finding reaches the --deny severity
         (default error); --deny warn promotes warnings for CI.

     sdnshield verify <manifest-file> <policy-file> [--app NAME]
               [--json] [--deny] [budget flags as for vet]
         Reconcile and then certify the repaired manifest against every
         policy obligation (docs/VERIFY.md).  Refuted obligations carry
         concrete counterexample calls; --deny fails CI on anything but
         a certified verdict.

     sdnshield faults-demo [--events N] [--seed S]
         Drive the supervised isolated runtime under injected
         checker/kernel/deputy faults and print the fault-tolerance
         report (docs/RUNTIME.md).  Exits 1 if any liveness invariant
         of faults-smoke fails.

     sdnshield market-demo [--txns N] [--apps N] [--fault-*  P]
               [--json] [--timeline FILE]
         Run a seeded lifecycle churn script through the epoch market
         with full control-plane observability: prints the ledger,
         cross-checks the transaction-span trail against it, reports
         the health verdict during and after the faulted window, and
         optionally exports a Perfetto timeline (docs/CHURN.md,
         docs/OBSERVABILITY.md §5).

     sdnshield telemetry [--format text|json|prom] [--market]
         Run a seeded traced workload and export the unified telemetry
         snapshot; --market adds a churn phase plus its ledger and
         epoch history to the export.

     sdnshield timeline [--events N] [--txns N] [--out FILE]
         Export mediated calls and lifecycle transactions from a
         seeded run as Chrome trace_event JSON (open in Perfetto).

     sdnshield health [--txns N] [--seed S] [--json]
         Run clean / faulted / recovered churn phases against the
         sliding-window health monitor and print each phase verdict
         with causes.  Exits 1 unless the final verdict is healthy and
         the incident checks of health-smoke hold.

   The demo commands (faults-demo, market-demo, telemetry, timeline,
   health) run the drivers of the smoke gates, Shield_workload.Drill,
   and add only flags and printing.

   All input files use the syntax of the paper's Appendices A and B. *)

open Cmdliner
open Shield_openflow
open Shield_openflow.Types
open Shield_controller
open Sdnshield
module Drill = Shield_workload.Drill

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* parse ---------------------------------------------------------------------- *)

let parse_cmd =
  let run path =
    match Perm_parser.manifest_of_string (read_file path) with
    | Ok m ->
      Fmt.pr "%a@." Perm.pp m;
      (match Perm.macros m with
      | [] -> `Ok ()
      | ms ->
        Fmt.pr "# unresolved stubs: %s@." (String.concat ", " ms);
        `Ok ())
    | Error e -> `Error (false, "parse error: " ^ e)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST") in
  Cmd.v
    (Cmd.info "parse" ~doc:"Validate and pretty-print a permission manifest")
    Term.(ret (const run $ path))

let parse_policy_cmd =
  let run path =
    match Policy_parser.of_string (read_file path) with
    | Ok p ->
      Fmt.pr "%a@." Policy.pp p;
      `Ok ()
    | Error e -> `Error (false, "parse error: " ^ e)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY") in
  Cmd.v
    (Cmd.info "parse-policy" ~doc:"Validate and pretty-print a security policy")
    Term.(ret (const run $ path))

(* reconcile ------------------------------------------------------------------- *)

let reconcile_cmd =
  let run app manifest_path policy_path =
    match
      Reconcile.run_strings ~app_name:app
        ~manifest_src:(read_file manifest_path)
        ~policy_src:(read_file policy_path)
    with
    | Error e -> `Error (false, e)
    | Ok (final, report) ->
      List.iter
        (fun v -> Fmt.pr "violation: %a@." Reconcile.pp_violation v)
        report.Reconcile.violations;
      List.iter
        (fun (a, ms) ->
          Fmt.pr "unresolved stubs in %s: %s@." a (String.concat ", " ms))
        report.Reconcile.unresolved_macros;
      Fmt.pr "# final permissions for %s@.%a@." app Perm.pp final;
      if Reconcile.ok report then `Ok ()
      else `Error (false, "policy violations were found (manifest repaired above)")
  in
  let app_arg =
    Arg.(value & opt string "app" & info [ "app" ] ~docv:"NAME" ~doc:"App name")
  in
  let manifest = Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST") in
  let policy = Arg.(required & pos 1 (some file) None & info [] ~docv:"POLICY") in
  Cmd.v
    (Cmd.info "reconcile"
       ~doc:"Reconcile an app manifest against a security policy")
    Term.(ret (const run $ app_arg $ manifest $ policy))

(* check ----------------------------------------------------------------------- *)

(* Every malformed spec is an [Error], never an exception: [check]
   reports it and still decides the other specs. *)
let call_of_spec spec : (Api.call, string) result =
  let ( let* ) = Result.bind in
  let bad fmt = Printf.ksprintf (fun why -> Error ("bad call spec " ^ why)) fmt in
  let int s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> bad "%S: %S is not an integer" spec s
  in
  let ip s =
    match ipv4_of_string s with
    | ip -> Ok ip
    | exception Invalid_argument _ ->
      bad "%S: %S is not an IPv4 address" spec s
  in
  let fm ?(priority = 100) dst =
    Flow_mod.add ~priority
      ~match_:
        (Match_fields.make ~dl_type:Eth_ip ~nw_dst:(Match_fields.exact_ip dst) ())
      ~actions:[ Action.Output 2 ] ()
  in
  let pktout ~from_pkt_in dpid =
    let* dpid = int dpid in
    Ok
      (Api.Send_packet_out
         { dpid; port = 1; packet = Packet.arp ~src:1 ~dst:2 (); from_pkt_in })
  in
  match String.split_on_char ':' spec with
  | [ "insert"; dpid; dst ] ->
    let* dpid = int dpid in
    let* dst = ip dst in
    Ok (Api.Install_flow (dpid, fm dst))
  | [ "insert"; dpid; dst; prio ] ->
    let* dpid = int dpid in
    let* dst = ip dst in
    let* priority = int prio in
    Ok (Api.Install_flow (dpid, fm ~priority dst))
  | [ "delete"; dpid; dst ] ->
    let* dpid = int dpid in
    let* dst = ip dst in
    Ok
      (Api.Install_flow
         ( dpid,
           Flow_mod.delete
             ~match_:(Match_fields.make ~nw_dst:(Match_fields.exact_ip dst) ())
             () ))
  | [ "stats"; "flow" ] -> Ok (Api.Read_stats (Stats.request Stats.Flow_level))
  | [ "stats"; "port" ] -> Ok (Api.Read_stats (Stats.request Stats.Port_level))
  | [ "stats"; "switch" ] -> Ok (Api.Read_stats (Stats.request Stats.Switch_level))
  | [ "pktout"; dpid ] -> pktout ~from_pkt_in:false dpid
  | [ "pktout-replay"; dpid ] -> pktout ~from_pkt_in:true dpid
  | [ "net"; dst; port ] ->
    let* dst = ip dst in
    let* dst_port = int port in
    Ok (Api.Syscall (Api.Net_connect { dst; dst_port; payload = "" }))
  | [ "file"; path ] -> Ok (Api.Syscall (Api.File_open { path; write = false }))
  | [ "spawn"; cmd ] -> Ok (Api.Syscall (Api.Spawn_process cmd))
  | [ "topo" ] -> Ok Api.Read_topology
  | [ "event"; "pkt_in" ] -> Ok (Api.Receive_event Api.E_packet_in)
  | [ "event"; "flow" ] -> Ok (Api.Receive_event Api.E_flow)
  | [ "event"; "topology" ] -> Ok (Api.Receive_event Api.E_topology)
  | _ -> bad "%S" spec

let check_cmd =
  let run explain manifest_path specs =
    match Perm_parser.manifest_of_string (read_file manifest_path) with
    | Error e -> `Error (false, "parse error: " ^ e)
    | Ok manifest -> (
      match Perm.macros manifest with
      | _ :: _ as ms ->
        `Error
          ( false,
            "manifest has unresolved stubs (" ^ String.concat ", " ms
            ^ "); reconcile first" )
      | [] ->
        let engine =
          Engine.create ~ownership:(Ownership.create ()) ~app_name:"cli"
            ~cookie:1 manifest
        in
        let had_error = ref false in
        List.iter
          (fun spec ->
            match call_of_spec spec with
            | Error e ->
              had_error := true;
              Fmt.pr "ERROR  %s@." e
            | Ok call ->
              if explain then begin
                let decision, info = Engine.check_explained engine call in
                (match decision with
                | Api.Allow -> Fmt.pr "ALLOW  %a@." Api.pp_call call
                | Api.Deny why ->
                  Fmt.pr "DENY   %a  (%s)@." Api.pp_call call why);
                match info.Api.explain with
                | Some e -> Fmt.pr "       because: %s@." e
                | None -> ()
              end
              else
                match Engine.check engine call with
                | Api.Allow -> Fmt.pr "ALLOW  %a@." Api.pp_call call
                | Api.Deny why ->
                  Fmt.pr "DENY   %a  (%s)@." Api.pp_call call why)
          specs;
        if !had_error then `Error (false, "some call specs were invalid")
        else `Ok ())
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print, for each decision, which permission token and \
             top-level filter clause decided it.")
  in
  let manifest = Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST") in
  let specs = Arg.(value & pos_right 0 string [] & info [] ~docv:"CALL") in
  Cmd.v
    (Cmd.info "check" ~doc:"Check API call specs against a manifest")
    Term.(
      ret (const run $ explain_arg $ manifest $ specs))

(* vet ------------------------------------------------------------------------ *)

(* The budget flags [vet] and [verify] share; an absent flag keeps its
   [Budget.default_limits] value. *)
let limits_term : Budget.limits Term.t =
  let d = Budget.default_limits in
  let limits max_steps max_clauses max_nodes max_depth deadline =
    { Budget.max_steps = Option.value max_steps ~default:d.Budget.max_steps;
      max_clauses = Option.value max_clauses ~default:d.Budget.max_clauses;
      max_nodes = Option.value max_nodes ~default:d.Budget.max_nodes;
      max_depth = Option.value max_depth ~default:d.Budget.max_depth;
      deadline =
        (match deadline with Some _ -> deadline | None -> d.Budget.deadline) }
  in
  let opt_int names doc =
    Arg.(value & opt (some int) None & info names ~docv:"N" ~doc)
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Wall-clock budget.")
  in
  Term.(
    const limits
    $ opt_int [ "max-steps" ] "Work-tick budget."
    $ opt_int [ "max-clauses" ] "Clause-allocation budget."
    $ opt_int [ "max-nodes" ] "Macro-expansion node budget."
    $ opt_int [ "max-depth" ] "Nesting-depth budget."
    $ deadline)

let vet_cmd =
  let run manifest_path policy_path app limits =
    let manifest_src = read_file manifest_path in
    let print_lint (fs : Lint.finding list) =
      List.iter (fun f -> Fmt.pr "lint: @[<v>%a@]@." Lint.pp_finding f) fs
    in
    let finish label notes rejection =
      List.iter (fun n -> Fmt.pr "note: %s@." n) notes;
      (match rejection with
      | Some r -> Fmt.epr "%a@." Vetting.pp_rejection r
      | None -> ());
      match label with
      | "rejected" ->
        Fmt.epr "verdict: rejected@.";
        exit 1
      | "degraded" ->
        Fmt.pr "verdict: degraded — admitted with conservative fallbacks@.";
        `Ok ()
      | _ ->
        Fmt.pr "verdict: admitted@.";
        `Ok ()
    in
    match policy_path with
    | None -> (
      match Vetting.vet_manifest ~limits manifest_src with
      | Vetting.Admitted m ->
        Fmt.pr "%a@." Perm.pp m;
        print_lint (Lint.lint_manifest m);
        finish "admitted" [] None
      | Vetting.Degraded (m, notes) ->
        Fmt.pr "%a@." Perm.pp m;
        print_lint (Lint.lint_manifest m);
        finish "degraded" notes None
      | Vetting.Rejected r -> finish "rejected" [] (Some r))
    | Some policy_path -> (
      let policy_src = read_file policy_path in
      let print_report (report : Reconcile.report) =
        List.iter
          (fun v -> Fmt.pr "violation: %a@." Reconcile.pp_violation v)
          report.Reconcile.violations;
        match List.assoc_opt app report.Reconcile.manifests with
        | Some m -> Fmt.pr "# reconciled permissions for %s@.%a@." app Perm.pp m
        | None -> ()
      in
      match
        Vetting.vet_and_reconcile ~limits
          ~apps:[ (app, manifest_src) ]
          policy_src
      with
      | Vetting.Admitted { report; lint; _ } ->
        print_report report;
        print_lint lint;
        finish "admitted" [] None
      | Vetting.Degraded ({ report; lint; _ }, notes) ->
        print_report report;
        print_lint lint;
        finish "degraded" notes None
      | Vetting.Rejected r -> finish "rejected" [] (Some r))
  in
  let manifest =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST")
  in
  let policy =
    Arg.(
      value
      & opt (some file) None
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Also vet this policy and run reconciliation under the budget.")
  in
  let app_arg =
    Arg.(value & opt string "app" & info [ "app" ] ~docv:"NAME" ~doc:"App name")
  in
  Cmd.v
    (Cmd.info "vet"
       ~doc:
         "Vet an untrusted manifest (and optionally a policy) under a \
          resource budget (docs/VETTING.md); exits 0 on \
          admitted/degraded, 1 on rejected")
    Term.(ret (const run $ manifest $ policy $ app_arg $ limits_term))

(* faults-demo ---------------------------------------------------------------- *)

let faults_demo_cmd =
  let run events seed =
    let r =
      Drill.fault_run ~seed ~mode:(Runtime.Isolated { ksd_threads = 2 }) ~events
    in
    Fmt.pr "%a" Drill.pp_fault_run r;
    match r.Drill.violations with
    | [] ->
      Fmt.pr "every handled event's call got a reply@.";
      `Ok ()
    | vs ->
      List.iter (Fmt.epr "%s@.") vs;
      exit 1
  in
  let events =
    Arg.(
      value & opt int 2_000
      & info [ "events" ] ~docv:"N" ~doc:"Packet-in events to inject.")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Fault-schedule seed (schedules are deterministic per seed).")
  in
  Cmd.v
    (Cmd.info "faults-demo"
       ~doc:
         "Drive the supervised isolated runtime under injected \
          checker/kernel/deputy faults and print the fault-tolerance report \
          (docs/RUNTIME.md); the run is faults-smoke's, and it exits 1 if \
          any of that gate's liveness invariants fails")
    Term.(ret (const run $ events $ seed))

(* market-demo ---------------------------------------------------------------- *)

module J = Telemetry.Json

let txn_json (txn : Market.txn) =
  let base =
    [ ("id", J.Num (float_of_int txn.Market.id));
      ("kind", J.Str (Market.kind_to_string txn.Market.request.Market.kind));
      ("app", J.Str txn.Market.request.Market.app) ]
  in
  match txn.Market.outcome with
  | Market.Committed { epoch; delta; republished; _ } ->
    J.Obj
      (base
      @ [ ("outcome", J.Str "committed");
          ("epoch", J.Num (float_of_int epoch));
          ("delta", J.Bool delta);
          ("republished", J.Arr (List.map (fun a -> J.Str a) republished)) ])
  | Market.Rolled_back { stage; reason; epoch; _ } ->
    J.Obj
      (base
      @ [ ("outcome", J.Str "rolled_back");
          ("stage", J.Str stage);
          ("reason", J.Str reason);
          ("epoch", J.Num (float_of_int epoch)) ])

(* A live-update churn demo (docs/CHURN.md) on the observed market of
   market-smoke and health-smoke: a seeded install / upgrade / revoke
   script, optionally with the mid-swap fault sites armed, prints as a
   ledger (or JSON), and the drill's checks decide the exit status. *)
let market_demo_cmd =
  let run txns apps invalid seed fault_verify fault_compile fault_publish json
      timeline_out =
    let o = Drill.observe (Trace.create ~txn_capacity:(max 1024 txns) ()) in
    Drill.with_swap_faults ~seed ~verify:fault_verify ~compile:fault_compile
      ~publish:fault_publish (fun () ->
        Drill.churn o.Drill.market ~seed ~apps ~invalid ~txns ());
    let ledger = Market.history o.Drill.market.Drill.queue in
    let stats = Market.stats o.Drill.market.Drill.queue in
    let epoch = o.Drill.market.Drill.epoch in
    (* Health before and after the window slides past the run. *)
    let during = Health.verdict o.Drill.health in
    Drill.slide o;
    let after = Health.verdict o.Drill.health in
    let trail = List.length (Trace.txn_spans o.Drill.trace) in
    let trail_ok = Drill.span_trail_mismatches o.Drill.trace ledger = [] in
    let bundles = Forensics.Flight.bundles o.Drill.flight in
    Option.iter
      (fun path -> write_file path (Timeline.to_string o.Drill.trace))
      timeline_out;
    (if json then
       Fmt.pr "%s@."
         (J.to_string
            (J.Obj
               [ ("epoch_history", J.Arr (List.map txn_json ledger));
                 ("final_epoch", J.Num (float_of_int (Epoch.epoch epoch)));
                 ("live_apps", J.Num (float_of_int (List.length (Epoch.apps epoch))));
                 ("commits", J.Num (float_of_int stats.Market.commits));
                 ("rollbacks", J.Num (float_of_int stats.Market.rollbacks));
                 ( "faults_injected",
                   J.Obj
                     (List.map
                        (fun (name, n) -> (name, J.Num (float_of_int n)))
                        (Faults.report ())) );
                 ("consistent", J.Bool (o.Drill.market.Drill.inconsistent = []));
                 ("txn_spans", J.Num (float_of_int trail));
                 ("span_trail_consistent", J.Bool trail_ok);
                 ( "health_during",
                   J.Str (Health.status_to_string during.Health.status) );
                 ( "health_after",
                   J.Str (Health.status_to_string after.Health.status) );
                 ("flight_bundles", J.Num (float_of_int (List.length bundles)));
                 ( "flight_stages",
                   J.Arr
                     (List.filter_map
                        (fun (b : Forensics.Flight.bundle) ->
                          match b.Forensics.Flight.txn with
                          | Some { Trace.verdict = Trace.Txn_rolled_back v; _ }
                            ->
                            Some (J.Str v.stage)
                          | _ -> None)
                        bundles) ) ]))
     else begin
       List.iter (fun txn -> Fmt.pr "%a@." Market.pp_txn txn) ledger;
       Fmt.pr "@.final epoch=%d live apps=%d commits=%d rollbacks=%d@."
         (Epoch.epoch epoch)
         (List.length (Epoch.apps epoch))
         stats.Market.commits stats.Market.rollbacks;
       Fmt.pr "txn spans=%d trail=%s flight bundles=%d@." trail
         (if trail_ok then "consistent" else "MISMATCHED")
         (List.length bundles);
       Fmt.pr "health during run: %a@." Health.pp_verdict during;
       Fmt.pr "health after window: %a@." Health.pp_verdict after;
       if fault_verify +. fault_compile +. fault_publish > 0. then
         Fmt.pr "%a" Faults.pp_report ()
     end);
    (* Armed faults that fired must degrade the verdict, and disarming
       must let it recover once the incident ages out. *)
    let injected = List.exists (fun (_, n) -> n > 0) (Faults.report ()) in
    let violations =
      Drill.violations o
      @ if injected then Drill.incident_violations o ~during ~after else []
    in
    Drill.close_observed o;
    List.iter (Fmt.epr "%s@.") violations;
    if violations <> [] then exit 1;
    `Ok ()
  in
  let txns =
    Arg.(
      value & opt int 40
      & info [ "txns" ] ~docv:"N" ~doc:"Lifecycle transactions to run.")
  in
  let apps =
    Arg.(
      value & opt int 12
      & info [ "apps" ] ~docv:"N" ~doc:"App pool the script churns over.")
  in
  let invalid =
    Arg.(
      value & opt float 0.15
      & info [ "invalid" ] ~docv:"FRAC"
          ~doc:
            "Fraction of requests built to roll back (wrong lifecycle state \
             or a manifest vetting refuses).")
  in
  let seed =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Script and fault-schedule seed (runs are deterministic).")
  in
  let fault p doc =
    Arg.(value & opt float 0. & info [ "fault-" ^ p ] ~docv:"PROB" ~doc)
  in
  let fault_verify =
    fault "verify" "Probability of an injected fault mid-verify (per swap)."
  in
  let fault_compile =
    fault "compile" "Probability of an injected fault mid-compile (per swap)."
  in
  let fault_publish =
    fault "publish"
      "Probability of an injected fault mid-publish (after some slots already \
       swapped — exercises the undo path)."
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the epoch history and summary as JSON instead of text.")
  in
  let timeline_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Also write the run's Chrome trace_event timeline (Perfetto / \
             chrome://tracing loadable) to $(docv).")
  in
  Cmd.v
    (Cmd.info "market-demo"
       ~doc:
         "Run a seeded app-market churn script (install/upgrade/revoke) \
          through the epoch-based live-update pipeline, optionally with \
          mid-swap faults armed, and print the epoch history \
          (docs/CHURN.md).  The run is fully observed: transaction spans, \
          the sliding-window health verdict (during the run and after the \
          window slides past) and flight-recorder bundles per rollback.  \
          Exits 1 if any transaction leaves the deployment's epoch \
          invariants violated or breaks the ledger's epoch trace, if the \
          span trail disagrees with the ledger, or if injected faults fail \
          to degrade (and then release) the health verdict or to leave \
          flight bundles that name each failed stage")
    Term.(
      ret
        (const run $ txns $ apps $ invalid $ seed $ fault_verify
       $ fault_compile $ fault_publish $ json $ timeline_out))

(* telemetry ------------------------------------------------------------------ *)

(* The churn phase of `telemetry --market` and `timeline`, recorded
   into [trace].  The market stays open, its metrics registered, until
   the caller closes it; a closed market keeps its ledger and epoch. *)
let traced_churn ~trace ?health ~txns ~apps ~invalid ~seed () =
  let m = Drill.market ~trace ?health () in
  Drill.churn m ~seed ~apps ~invalid ~txns ();
  m

let committed_epochs ledger =
  List.filter_map
    (fun (txn : Market.txn) ->
      match txn.Market.outcome with
      | Market.Committed { epoch; _ } -> Some epoch
      | Market.Rolled_back _ -> None)
    ledger

let telemetry_cmd =
  let run format events spans_to_show market =
    let trace = Trace.create ~capacity:4096 () in
    let health = Health.create () in
    let market =
      if market then
        Some
          (traced_churn ~trace ~health ~txns:40 ~apps:12 ~invalid:0.15 ~seed:11
             ())
      else None
    in
    (* The snapshot is taken while the market is open, so it carries
       the market's metrics. *)
    let snap = Drill.traced_calls ~trace ~health ~events () in
    Option.iter Drill.close market;
    let market_json (m : Drill.market) =
      let ledger = Market.history m.Drill.queue in
      J.Obj
        [ ("ledger", J.Arr (List.map txn_json ledger));
          ( "epoch_history",
            J.Arr
              (List.map (fun e -> J.Num (float_of_int e)) (committed_epochs ledger))
          );
          ("final_epoch", J.Num (float_of_int (Epoch.epoch m.Drill.epoch)));
          ( "live_apps",
            J.Num (float_of_int (List.length (Epoch.apps m.Drill.epoch))) ) ]
    in
    let json_doc () =
      match market with
      | None -> Telemetry.to_json snap
      | Some m ->
        J.to_string
          (J.Obj
             [ ("telemetry", Telemetry.to_json_value snap);
               ("market", market_json m) ])
    in
    let pp_market_text () =
      Option.iter
        (fun (m : Drill.market) ->
          let ledger = Market.history m.Drill.queue in
          Fmt.pr "# --- market ---@.";
          List.iter (fun txn -> Fmt.pr "%a@." Market.pp_txn txn) ledger;
          Fmt.pr "epoch history: %s@."
            (String.concat " -> "
               (List.map string_of_int (0 :: committed_epochs ledger)));
          Fmt.pr "final epoch=%d live apps=%d@." (Epoch.epoch m.Drill.epoch)
            (List.length (Epoch.apps m.Drill.epoch)))
        market
    in
    (match format with
    | "json" -> Fmt.pr "%s@." (json_doc ())
    | "prometheus" -> Fmt.pr "%s" (Telemetry.to_prometheus snap)
    | "text" ->
      Fmt.pr "%a" Telemetry.pp snap;
      pp_market_text ()
    | _ ->
      Fmt.pr "# --- text ---@.%a" Telemetry.pp snap;
      pp_market_text ();
      Fmt.pr "# --- json ---@.%s@." (json_doc ());
      Fmt.pr "# --- prometheus ---@.%s" (Telemetry.to_prometheus snap));
    (match spans_to_show with
    | 0 -> ()
    | n ->
      let spans = Trace.spans trace in
      let tail =
        let len = List.length spans in
        if len <= n then spans else List.filteri (fun i _ -> i >= len - n) spans
      in
      Fmt.pr "# --- last %d spans ---@." (List.length tail);
      List.iter (fun s -> Fmt.pr "%a@." Trace.pp_span s) tail);
    `Ok ()
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("all", "all"); ("json", "json");
                    ("prometheus", "prometheus"); ("text", "text") ])
          "all"
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,json), $(b,prometheus), $(b,text), or \
             $(b,all) (default).")
  in
  let events =
    Arg.(
      value & opt int 2_000
      & info [ "events" ] ~docv:"N" ~doc:"Packet-in events to inject.")
  in
  let spans_arg =
    Arg.(
      value & opt int 5
      & info [ "spans" ] ~docv:"N"
          ~doc:"Also print the last N recorded spans (0 = none).")
  in
  let market_arg =
    Arg.(
      value & flag
      & info [ "market" ]
          ~doc:
            "Also run a seeded churn script through the live-update market \
             (sharing the trace store and health monitor) and render its \
             transaction ledger and epoch history as an extra section.  \
             The snapshot is taken before the market closes, so it also \
             carries the $(b,lat:stage:*) histograms, the \
             $(b,market:committed), $(b,market:rolled-back) and \
             $(b,market:reconcile:delta|full) counters and the \
             $(b,market:epoch) and $(b,market:apps) gauges.")
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Run a small traced workload on the isolated runtime and emit the \
          unified telemetry snapshot — latency histograms, registry \
          counters, queue gauges, fault counters, span accounting and the health \
          verdict — as JSON, Prometheus text exposition, or a \
          human-readable report; $(b,--market) adds the churn ledger and \
          epoch history (docs/OBSERVABILITY.md)")
    Term.(ret (const run $ format $ events $ spans_arg $ market_arg))

(* timeline ------------------------------------------------------------------- *)

(* Export a combined workload — mediated calls plus lifecycle churn,
   sharing one span store — as a Chrome trace_event document, the
   format chrome://tracing and https://ui.perfetto.dev load directly:
   calls on one track, transactions (with nested stage slices) on the
   other. *)
let timeline_cmd =
  let run events txns apps invalid seed out =
    let trace = Trace.create ~capacity:8192 ~txn_capacity:(max 1024 txns) () in
    ignore (Drill.traced_calls ~trace ~events ());
    Drill.close (traced_churn ~trace ~txns ~apps ~invalid ~seed ());
    let doc = Timeline.to_string trace in
    (match out with
    | None -> print_string doc
    | Some path ->
      write_file path doc;
      let st = Trace.stats trace in
      Fmt.pr "wrote %s: %d call spans, %d transaction spans@." path
        st.Trace.stored st.Trace.txn_stored);
    `Ok ()
  in
  let events =
    Arg.(
      value & opt int 500
      & info [ "events" ] ~docv:"N"
          ~doc:"Packet-in events for the mediated-call track.")
  in
  let txns =
    Arg.(
      value & opt int 24
      & info [ "txns" ] ~docv:"N"
          ~doc:"Lifecycle transactions for the transaction track.")
  in
  let apps =
    Arg.(
      value & opt int 12
      & info [ "apps" ] ~docv:"N" ~doc:"App pool the churn script uses.")
  in
  let invalid =
    Arg.(
      value & opt float 0.15
      & info [ "invalid" ] ~docv:"FRAC"
          ~doc:"Fraction of churn requests built to roll back.")
  in
  let seed =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"SEED" ~doc:"Churn script seed.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the document to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run a traced workload (mediated calls + lifecycle churn) and \
          export it as a Chrome trace_event JSON document, loadable in \
          Perfetto or chrome://tracing: calls and lifecycle transactions \
          on separate tracks, stage spans nested under their transaction \
          (docs/OBSERVABILITY.md)")
    Term.(ret (const run $ events $ txns $ apps $ invalid $ seed $ out))

(* health --------------------------------------------------------------------- *)

(* health-smoke's phases on the observed market, on a manual clock:
   clean churn (expect healthy), churn with the mid-swap fault sites
   armed (expect degraded), then slide the window past the incident
   and run clean churn again (expect healthy).  Exits 1 when the final
   verdict is not healthy or a drill check fails. *)
let health_cmd =
  let run txns apps seed json =
    let o = Drill.observe (Trace.create ()) in
    let clean = Drill.phase o ~seed ~apps ~txns () in
    let faulted = Drill.phase o ~faulted:true ~seed:(seed + 1) ~apps ~txns () in
    Drill.slide o;
    let slid = Health.verdict o.Drill.health in
    let recovered = Drill.phase o ~seed:(seed + 2) ~apps ~txns () in
    let violations =
      Drill.violations o @ Drill.incident_violations o ~during:faulted ~after:slid
    in
    Drill.close_observed o;
    let verdicts =
      [ ("clean", clean); ("faulted", faulted); ("recovered", recovered) ]
    in
    let bundles = Forensics.Flight.bundles o.Drill.flight in
    (if json then
       let cause_json (c : Health.cause) =
         J.Obj
           [ ("signal", J.Str c.Health.cause_signal);
             ("observed", J.Num c.Health.observed);
             ("threshold", J.Num c.Health.threshold);
             ("level", J.Str (Health.status_to_string c.Health.level)) ]
       in
       Fmt.pr "%s@."
         (J.to_string
            (J.Obj
               [ ( "phases",
                   J.Arr
                     (List.map
                        (fun (name, (v : Health.verdict)) ->
                          J.Obj
                            [ ("phase", J.Str name);
                              ( "status",
                                J.Str (Health.status_to_string v.Health.status)
                              );
                              ("causes", J.Arr (List.map cause_json v.Health.causes))
                            ])
                        verdicts) );
                 ( "flight_bundles",
                   J.Num (float_of_int (List.length bundles)) ) ]))
     else
       List.iter
         (fun (name, v) ->
           Fmt.pr "phase %-9s -> %a@." name Health.pp_verdict v)
         verdicts);
    List.iter (Fmt.epr "%s@.") violations;
    if violations <> [] || recovered.Health.status <> Health.Healthy then exit 1;
    `Ok ()
  in
  let txns =
    Arg.(
      value & opt int 25
      & info [ "txns" ] ~docv:"N" ~doc:"Lifecycle transactions per phase.")
  in
  let apps =
    Arg.(
      value & opt int 12
      & info [ "apps" ] ~docv:"N" ~doc:"App pool the churn scripts use.")
  in
  let seed =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Base script / fault-schedule seed (phases offset it).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the phase verdicts as JSON.")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Drive the sliding-window health monitor through a clean / \
          faulted / recovered churn sequence on a manual clock and print \
          the verdict after each phase (docs/OBSERVABILITY.md).  Exits 1 \
          when the final verdict is not healthy or a health-smoke check \
          fails")
    Term.(ret (const run $ txns $ apps $ seed $ json))

(* lint ----------------------------------------------------------------------- *)

let lint_cmd =
  let run path as_policy json deny disabled call_specs =
    let deny_rank =
      match deny with
      | "error" -> 2
      | "warn" -> 1
      | "info" -> 0
      | _ -> 2
    in
    let rules_result =
      List.fold_left
        (fun acc id ->
          match acc with
          | Error _ -> acc
          | Ok rules -> (
            match Lint.rule_of_id id with
            | Some r -> Ok (List.filter (fun r' -> r' <> r) rules)
            | None ->
              Error
                (Printf.sprintf "unknown rule %S (known: %s)" id
                   (String.concat ", " (List.map Lint.rule_id Lint.all_rules)))))
        (Ok Lint.all_rules) disabled
    in
    match rules_result with
    | Error e -> `Error (false, e)
    | Ok rules -> (
      let src = read_file path in
      let findings_result =
        if as_policy then
          (* The over-privilege audit is manifest-only: a behaviour
             trace has no meaning against a policy, so rejecting the
             combination loudly beats silently dropping the specs the
             user typed. *)
          if call_specs <> [] then
            Error
              "--call builds a behaviour trace for the manifest \
               over-privilege audit and cannot be combined with --policy; \
               lint the app manifest instead"
          else
            match Policy_parser.of_string src with
            | Error e -> Error ("parse error: " ^ e)
            | Ok policy -> Ok (Lint.lint_policy ~rules policy)
        else
          match Perm_parser.manifest_of_string src with
          | Error e -> Error ("parse error: " ^ e)
          | Ok m -> (
            match call_specs with
            | [] -> Ok (Lint.lint_manifest ~rules m)
            | specs -> (
              let rec parse_calls acc = function
                | [] -> Ok (List.rev acc)
                | s :: rest ->
                  Result.bind (call_of_spec s) (fun c -> parse_calls (c :: acc) rest)
              in
              Result.map
                (fun trace -> Lint.lint_manifest ~rules ~trace m)
                (parse_calls [] specs)))
      in
      match findings_result with
      | Error e -> `Error (false, e)
      | Ok findings ->
        if json then Fmt.pr "%s@." (Lint.to_sarif ~uri:path findings)
        else Fmt.pr "%a" Lint.pp_report findings;
        let worst =
          match Lint.max_severity findings with
          | None -> -1
          | Some Lint.Error -> 2
          | Some Lint.Warn -> 1
          | Some Lint.Info -> 0
        in
        if worst >= deny_rank then begin
          (* Gate counts collapse witness-bearing findings to one per
             rule (Lint.gate_count): attaching confirmed witness calls
             to a rule's findings must not inflate the numbers CI keys
             on. *)
          Fmt.epr
            "lint: findings at or above the --deny %s threshold (%d \
             error(s), %d warning(s), %d info)@."
            deny
            (Lint.gate_count Lint.Error findings)
            (Lint.gate_count Lint.Warn findings)
            (Lint.gate_count Lint.Info findings);
          exit 1
        end
        else `Ok ())
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let as_policy =
    Arg.(
      value & flag
      & info [ "policy" ]
          ~doc:"Treat $(docv) as a security policy instead of a manifest.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit SARIF-shaped JSON instead of text.")
  in
  let deny =
    Arg.(
      value
      & opt (enum [ ("error", "error"); ("warn", "warn"); ("info", "info") ])
          "error"
      & info [ "deny" ] ~docv:"SEVERITY"
          ~doc:
            "Exit non-zero when any finding is at or above $(docv) \
             (default $(b,error)); $(b,--deny warn) promotes warnings for \
             CI use.")
  in
  let disabled =
    Arg.(
      value & opt_all string []
      & info [ "disable" ] ~docv:"RULE"
          ~doc:"Disable a rule by id (repeatable), e.g. \
                $(b,shadowed-clause).")
  in
  let calls =
    Arg.(
      value & opt_all string []
      & info [ "call" ] ~docv:"SPEC"
          ~doc:
            "Behaviour-trace call spec (repeatable), same syntax as \
             $(b,check); supplying a trace enables the over-privilege \
             audit against the inferred least-privilege manifest.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run shield-lint over a manifest or policy and print structured \
          findings (docs/LINTING.md); text or SARIF-shaped JSON output, \
          with $(b,--deny) severity promotion for CI")
    Term.(ret (const run $ path $ as_policy $ json $ deny $ disabled $ calls))

(* verify --------------------------------------------------------------------- *)

let verify_cmd =
  let run app manifest_path policy_path json deny minimal limits =
    match
      Vetting.vet_and_reconcile ~limits
        ~apps:[ (app, read_file manifest_path) ]
        (read_file policy_path)
    with
    | Vetting.Rejected r ->
      `Error (false, Fmt.str "%a" Vetting.pp_rejection r)
    | Vetting.Admitted { certificate = cert; _ }
    | Vetting.Degraded ({ certificate = cert; _ }, _) ->
      if json then
        Fmt.pr "%s@." (Telemetry.Json.to_string (Verify.json_of_certificate cert))
      else Fmt.pr "%a@." Verify.pp_certificate cert;
      if deny && not (Verify.certified cert) then begin
        Fmt.epr "verify: %s — failing (--deny)@." (Verify.verdict_label cert);
        exit 1
      end
      else if minimal && Verify.minimality_label cert <> "minimal" then begin
        Fmt.epr
          "verify: repair minimality is %s — failing (--minimal)@."
          (Verify.minimality_label cert);
        exit 1
      end
      else `Ok ()
  in
  let app_arg =
    Arg.(value & opt string "app" & info [ "app" ] ~docv:"NAME" ~doc:"App name")
  in
  let manifest =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST")
  in
  let policy =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"POLICY")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the certificate as JSON instead of a text report.")
  in
  let deny =
    Arg.(
      value & flag
      & info [ "deny" ]
          ~doc:
            "Exit non-zero unless the verdict is $(b,certified) — for CI: \
             refuted and unverified (budget-degraded) runs both fail.")
  in
  let minimal =
    Arg.(
      value & flag
      & info [ "minimal" ]
          ~doc:
            "Additionally exit non-zero unless the certificate's \
             least-repair dimension is $(b,minimal): confirmed slack (a \
             repair stripped behaviour the policy allows) and \
             unknown-minimality (budget-degraded) runs both fail.  \
             Composes with $(b,--deny) for full promotion.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Reconcile an app manifest against a policy and certify that the \
          repaired manifest satisfies every obligation (docs/VERIFY.md); \
          refuted obligations come with concrete counterexample calls, and \
          the certificate carries a least-repair minimality dimension. \
          Exits 0 unless $(b,--deny) (verdict not certified) or \
          $(b,--minimal) (repair not provably minimal) fail it")
    Term.(
      ret
        (const run $ app_arg $ manifest $ policy $ json $ deny $ minimal
       $ limits_term))

let () =
  let info =
    Cmd.info "sdnshield" ~version:"1.0.0"
      ~doc:"SDNShield permission & reconciliation engines (DSN'16 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ parse_cmd; parse_policy_cmd; reconcile_cmd; check_cmd; vet_cmd;
            lint_cmd; verify_cmd; faults_demo_cmd; market_demo_cmd;
            telemetry_cmd; timeline_cmd; health_cmd ]))
