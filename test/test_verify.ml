(* shield-verify: certification of reconciled manifests
   (docs/VERIFY.md).

   Pins the ISSUE invariants:

   - every [Refuted] verdict carries concrete counterexample calls
     that [Filter_eval] confirms (admitted by the manifest side,
     escaping the bound), and the certificate's own cross-check —
     replaying those calls through the deployed [Engine] — agrees;
   - reconciliation's repair actually works: the dirty corpus is
     refuted raw and certified post-repair;
   - budget exhaustion and [Nf.Too_large] degrade to [Unverified],
     never to a false [Certified], and [verify] never raises — not
     even on the hostile generators;
   - the [Inclusion] fallback directions the verifier's soundness
     rests on stay fail-closed: [includes → false],
     [satisfiable]/[overlap → true]. *)

open Shield_controller
open Sdnshield
module Hostile = Shield_workload.Hostile_gen
module Prng = Shield_workload.Prng

let manifest = Test_util.manifest_exn

let policy src =
  match Policy_parser.of_string src with
  | Ok p -> p
  | Error e -> Alcotest.failf "policy parse: %s" e

let read_example name =
  let candidates =
    [ Filename.concat "examples/verify" name;
      Filename.concat "../examples/verify" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "corpus file %s not found" name
  | Some path ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let pure = Filter_eval.pure_env

(* Semantic soundness of a witness, re-derived from scratch. *)
let witness_sound (w : Verify.witness) : bool =
  let attrs = Attrs.of_call w.Verify.call in
  Filter_eval.eval pure (Perm.filter_of w.Verify.admitted_by w.Verify.token) attrs
  && (match w.Verify.escapes with
     | None -> true
     | Some bound ->
       not (Filter_eval.eval pure (Perm.filter_of bound w.Verify.token) attrs))

let witnesses_of (cert : Verify.certificate) =
  match cert.Verify.verdict with
  | Verify.Refuted cs -> List.concat_map (fun c -> c.Verify.witnesses) cs
  | _ -> []

(* Corpus ---------------------------------------------------------------------- *)

let test_dirty_refuted_soundly () =
  let m = manifest (read_example "dirty.manifest") in
  let p = policy (read_example "dirty.policy") in
  let cert = Verify.verify ~apps:[ ("app", m) ] p in
  (match cert.Verify.verdict with
  | Verify.Refuted _ -> ()
  | _ -> Alcotest.failf "expected Refuted, got %s" (Verify.verdict_label cert));
  let ws = witnesses_of cert in
  Alcotest.(check bool) "at least one witness" true (ws <> []);
  List.iter
    (fun w ->
      Alcotest.(check bool) "witness confirmed by Filter_eval" true
        (witness_sound w))
    ws;
  Alcotest.(check bool) "witnesses replayed through the checkers" true
    (cert.Verify.crosscheck.Verify.replayed > 0);
  Alcotest.(check bool) "Engine agrees with Filter_eval" true
    cert.Verify.crosscheck.Verify.checkers_agree

let test_dirty_certified_after_repair () =
  let m = manifest (read_example "dirty.manifest") in
  let p = policy (read_example "dirty.policy") in
  let report = Reconcile.run ~apps:[ ("app", m) ] p in
  let cert = Verify.verify_report p report in
  Alcotest.(check bool)
    (Fmt.str "reconciled dirty manifest certifies (got %s)"
       (Verify.verdict_label cert))
    true (Verify.certified cert)

let test_clean_certified () =
  let m = manifest (read_example "clean.manifest") in
  let p = policy (read_example "clean.policy") in
  let cert = Verify.verify ~apps:[ ("app", m) ] p in
  Alcotest.(check string) "clean corpus certifies" "certified"
    (Verify.verdict_label cert)

(* Budget degradation ---------------------------------------------------------- *)

let test_budget_degrades_to_unverified () =
  let m = manifest (read_example "dirty.manifest") in
  let p = policy (read_example "dirty.policy") in
  let limits = { Budget.default_limits with Budget.max_steps = 2 } in
  match Verify.verify ~limits ~apps:[ ("app", m) ] p with
  | cert -> (
    match cert.Verify.verdict with
    | Verify.Certified ->
      Alcotest.fail "exhausted budget certified a violating manifest"
    | Verify.Refuted _ | Verify.Unverified _ -> ())
  | exception exn ->
    Alcotest.failf "verify raised under an exhausted budget: %s"
      (Printexc.to_string exn)

(* Obligation shapes ----------------------------------------------------------- *)

(* NOT over a certifiably-true comparison has no call-level
   counterexample; the verdict must stay fail-closed (Unverified),
   never flip the lattice's sound positive into a Refuted — and
   certainly never Certified. *)
let test_not_is_fail_closed () =
  let p =
    policy
      "LET narrow = { PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK \
       255.0.0.0 }\n\
       LET wide = { PERM insert_flow }\n\
       ASSERT NOT (narrow <= wide)"
  in
  let cert = Verify.verify ~apps:[ ("app", []) ] p in
  Alcotest.(check string) "NOT of a provable inclusion is Unverified"
    "unverified" (Verify.verdict_label cert)

let test_exclusivity_refuted_with_two_witnesses () =
  let m =
    manifest "PERM read_statistics\nPERM modify_topology"
  in
  let p =
    policy "ASSERT EITHER { PERM read_statistics } OR { PERM modify_topology }"
  in
  let cert = Verify.verify ~apps:[ ("app", m) ] p in
  match cert.Verify.verdict with
  | Verify.Refuted [ c ] ->
    Alcotest.(check int) "one witness per exclusive set" 2
      (List.length c.Verify.witnesses);
    List.iter
      (fun w ->
        Alcotest.(check bool) "exclusivity witness confirmed" true
          (witness_sound w))
      c.Verify.witnesses
  | _ ->
    Alcotest.failf "expected a single exclusivity counterexample, got %s"
      (Verify.verdict_label cert)

(* An unrepairable shape: JOIN on the left means reconcile can only
   Alert_only; verification must keep refuting the un-repaired
   manifests rather than report success. *)
let test_unrepairable_stays_refuted () =
  let m = manifest "PERM modify_topology" in
  let p =
    policy
      "LET a = APP app\n\
       ASSERT a JOIN a <= { PERM read_statistics }"
  in
  let report = Reconcile.run ~apps:[ ("app", m) ] p in
  let cert = Verify.verify_report p report in
  Alcotest.(check string) "Alert_only violation is still refuted" "refuted"
    (Verify.verdict_label cert);
  List.iter
    (fun w ->
      Alcotest.(check bool) "witness confirmed" true (witness_sound w))
    (witnesses_of cert)

(* Minimality of repairs (docs/VERIFY.md "Minimality") ------------------------- *)

(* A reconciliation report as a buggy repair pass would publish it:
   the recorded Truncated_to_boundary repair [before -> after] strips
   more than MEET(original, boundary). *)
let overtruncated_report () =
  let before = manifest (read_example "dirty.manifest") in
  let after = manifest (read_example "overtruncated.manifest") in
  let p = policy (read_example "dirty.policy") in
  let stmt =
    match List.find_opt (function Policy.Assert _ -> true | _ -> false) p with
    | Some s -> s
    | None -> Alcotest.fail "dirty.policy has no ASSERT statement"
  in
  ( p,
    { Reconcile.manifests = [ ("app", after) ];
      violations =
        [ { Reconcile.stmt;
            app = Some "app";
            message = "simulated buggy boundary truncation";
            action = Reconcile.Truncated_to_boundary;
            before;
            after } ];
      unresolved_macros = [] } )

let test_honest_repair_is_minimal () =
  let m = manifest (read_example "dirty.manifest") in
  let p = policy (read_example "dirty.policy") in
  let report = Reconcile.run ~apps:[ ("app", m) ] p in
  let cert = Verify.verify_report p report in
  Alcotest.(check string) "reconcile's own repair certifies minimal" "minimal"
    (Verify.minimality_label cert)

let test_overtruncation_yields_slack () =
  let p, report = overtruncated_report () in
  let cert = Verify.verify_report p report in
  match cert.Verify.minimality with
  | Verify.Slack (_ :: _ as ws) ->
    let before = manifest (read_example "dirty.manifest") in
    let after = manifest (read_example "overtruncated.manifest") in
    (* The boundary of dirty.policy's ASSERT, re-parsed from scratch. *)
    let bound =
      manifest
        "PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0 AND \
         MAX_PRIORITY 32000\n\
         PERM read_statistics\n\
         PERM pkt_in_event"
    in
    let least = Perm_ops.meet before bound in
    List.iter
      (fun (w : Verify.witness) ->
        Alcotest.(check bool) "slack witness sound as a witness" true
          (witness_sound w);
        let attrs = Attrs.of_call w.Verify.call in
        Alcotest.(check bool) "allowed by MEET(original, boundary)" true
          (Filter_eval.eval pure (Perm.filter_of least w.Verify.token) attrs);
        Alcotest.(check bool) "denied by the published repair" false
          (Filter_eval.eval pure (Perm.filter_of after w.Verify.token) attrs))
      ws;
    Alcotest.(check bool) "slack witnesses replay through the checkers" true
      (cert.Verify.crosscheck.Verify.replayed > 0);
    Alcotest.(check bool) "checkers agree on the slack witnesses" true
      cert.Verify.crosscheck.Verify.checkers_agree
  | Verify.Slack [] -> Alcotest.fail "Slack with an empty witness list"
  | m -> Alcotest.failf "expected Slack, got %a" Verify.pp_minimality m

let test_minimality_exhaustion_is_unknown () =
  let p, report = overtruncated_report () in
  let limits = { Budget.default_limits with Budget.max_steps = 2 } in
  match Verify.verify_report ~limits p report with
  | cert -> (
    match cert.Verify.minimality with
    | Verify.Unknown_minimality _ -> ()
    | Verify.Minimal ->
      Alcotest.fail "exhausted budget certified an over-truncation minimal"
    | Verify.Slack _ ->
      Alcotest.fail "exhausted budget still synthesized slack witnesses")
  | exception exn ->
    Alcotest.failf "verify_report raised under an exhausted budget: %s"
      (Printexc.to_string exn)

(* Fail-closed Inclusion fallbacks (the audit the verifier rests on) ----------- *)

let test_inclusion_fallback_directions () =
  let bomb = Hostile.cross_bomb ~atoms:80 in
  (* cross_bomb's DNF is |atoms|^2 clauses — 6400, past every guard
     below.  [True] includes every filter semantically, so a [false]
     answer here can only be the conservative fallback: the direction
     that keeps shield-verify sound (an unprovable obligation degrades
     to Unknown, never to a certified pass).  Reflexive queries dodge
     the blow-up through the syntactic-equality fast path, so the
     right-hand side must differ. *)
  Alcotest.(check bool) "includes degrades to FALSE" false
    (Inclusion.filter_includes ~max_clauses:64 Filter.True bomb);
  (* cross_bomb is port-disjoint — provably unsatisfiable with enough
     clauses — so a [true] here is the conservative direction: an
     overlap we cannot disprove stays an armed exclusivity constraint. *)
  Alcotest.(check bool) "satisfiable degrades to TRUE" true
    (Inclusion.filter_satisfiable ~max_clauses:64 bomb);
  let mb = [ { Perm.token = Token.Insert_flow; filter = bomb } ] in
  Alcotest.(check bool) "overlap degrades to TRUE" true
    (Inclusion.manifests_overlap mb mb)

(* Vetting carries the certificate --------------------------------------------- *)

let test_vetting_carries_certificate () =
  match
    Vetting.vet_and_reconcile
      ~apps:[ ("app", read_example "dirty.manifest") ]
      (read_example "dirty.policy")
  with
  | Vetting.Admitted { Vetting.certificate = cert; _ }
  | Vetting.Degraded ({ Vetting.certificate = cert; _ }, _) ->
    Alcotest.(check bool)
      (Fmt.str "post-repair admission certifies (got %s)"
         (Verify.verdict_label cert))
      true (Verify.certified cert)
  | Vetting.Rejected r ->
    Alcotest.failf "rejected: %s" (Fmt.str "%a" Vetting.pp_rejection r)

(* Counters and rendering ------------------------------------------------------ *)

let test_counters_reach_telemetry () =
  Verify.reset_stats ();
  let m = manifest (read_example "clean.manifest") in
  let p = policy (read_example "clean.policy") in
  ignore (Verify.verify ~apps:[ ("app", m) ] p);
  let dm = manifest (read_example "dirty.manifest") in
  let dp = policy (read_example "dirty.policy") in
  ignore (Verify.verify ~apps:[ ("app", dm) ] dp);
  let s = Verify.stats () in
  Alcotest.(check int) "one certified" 1 s.Verify.certified_n;
  Alcotest.(check int) "one refuted" 1 s.Verify.refuted_n;
  let counters = Metrics.counter_report () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " counter registered") true
        (List.mem_assoc name counters))
    [ "verify-certified"; "verify-refuted"; "verify-unverified";
      "verify-minimal"; "verify-slack"; "verify-unknown-minimality" ]

let test_json_rendering () =
  let m = manifest (read_example "dirty.manifest") in
  let p = policy (read_example "dirty.policy") in
  let cert = Verify.verify ~apps:[ ("app", m) ] p in
  let json = Verify.json_of_certificate cert in
  match Telemetry.Json.of_string (Telemetry.Json.to_string json) with
  | Error e -> Alcotest.failf "certificate JSON does not re-parse: %s" e
  | Ok j -> (
    (match Telemetry.Json.member "verdict" j with
    | Some (Telemetry.Json.Str "refuted") -> ()
    | _ -> Alcotest.fail "verdict field missing or wrong");
    match Telemetry.Json.member "minimality" j with
    | Some (Telemetry.Json.Obj _) -> ()
    | _ -> Alcotest.fail "minimality field missing or wrong")

(* Properties ------------------------------------------------------------------ *)

let qsuite =
  [ QCheck.Test.make ~count:40
      ~name:"verify never raises on assertion-heavy hostile inputs"
      QCheck.small_nat
      (fun seed ->
        let manifest_src, policy_src = Hostile.assertion_heavy ~seed in
        let m = Test_util.manifest_exn manifest_src in
        let p =
          match Policy_parser.of_string policy_src with
          | Ok p -> p
          | Error e -> QCheck.Test.fail_reportf "policy parse: %s" e
        in
        ignore (Verify.verify ~apps:[ ("app", m) ] p);
        true);
    QCheck.Test.make ~count:40
      ~name:"refuted counterexamples replay soundly and checkers agree"
      (QCheck.pair QCheck.small_nat (QCheck.int_range 0 254))
      (fun (seed, octet) ->
        (* A seeded manifest against a narrow random boundary: most
           draws are refutable, and every refutation must be sound. *)
        let m =
          Test_util.manifest_exn (fst (Hostile.assertion_heavy ~seed))
        in
        let p =
          policy
            (Printf.sprintf
               "LET a = APP app\n\
                ASSERT a <= { PERM insert_flow LIMITING IP_DST 10.%d.0.0 \
                MASK 255.255.0.0 AND MAX_PRIORITY 500\n\
                PERM read_statistics LIMITING FLOW_LEVEL\n\
                PERM pkt_in_event }"
               octet)
        in
        let cert = Verify.verify ~apps:[ ("app", m) ] p in
        match cert.Verify.verdict with
        | Verify.Refuted _ ->
          List.for_all witness_sound (witnesses_of cert)
          && cert.Verify.crosscheck.Verify.checkers_agree
        | Verify.Certified | Verify.Unverified _ -> true);
    QCheck.Test.make ~count:40
      ~name:"slack witnesses are in MEET(original, boundary) \\ repaired"
      (QCheck.pair QCheck.small_nat (QCheck.int_range 0 254))
      (fun (seed, octet) ->
        (* Reconcile a seeded manifest against a narrow boundary, then
           corrupt every boundary repair by a further unjustified
           truncation.  Whenever the minimality pass reports Slack,
           each witness must be (re-derived from scratch) allowed by
           MEET(original, boundary) and denied by the published
           repaired manifest — and the certificate's cross-check must
           have replayed it identically through the Engine. *)
        let m = Test_util.manifest_exn (fst (Hostile.assertion_heavy ~seed)) in
        let bound_src =
          Printf.sprintf
            "PERM insert_flow LIMITING IP_DST 10.%d.0.0 MASK 255.255.0.0 AND \
             MAX_PRIORITY 500\n\
             PERM read_statistics LIMITING FLOW_LEVEL\n\
             PERM pkt_in_event"
            octet
        in
        let p =
          policy (Printf.sprintf "LET a = APP app\nASSERT a <= { %s }" bound_src)
        in
        let bound = Test_util.manifest_exn bound_src in
        let cap =
          Test_util.manifest_exn "PERM insert_flow LIMITING MAX_PRIORITY 1"
        in
        let report = Reconcile.run ~apps:[ ("app", m) ] p in
        let corrupt mf = Perm_ops.simplify (Perm_ops.meet mf cap) in
        let report =
          { report with
            Reconcile.manifests =
              List.map (fun (a, mf) -> (a, corrupt mf)) report.Reconcile.manifests;
            violations =
              List.map
                (fun (v : Reconcile.violation) ->
                  if v.Reconcile.action = Reconcile.Truncated_to_boundary then
                    { v with Reconcile.after = corrupt v.Reconcile.after }
                  else v)
                report.Reconcile.violations }
        in
        let cert = Verify.verify_report p report in
        match cert.Verify.minimality with
        | Verify.Slack ws ->
          ws <> []
          && List.for_all
               (fun (w : Verify.witness) ->
                 let attrs = Attrs.of_call w.Verify.call in
                 let least =
                   match
                     List.find_opt
                       (fun (v : Reconcile.violation) ->
                         v.Reconcile.action = Reconcile.Truncated_to_boundary)
                       report.Reconcile.violations
                   with
                   | Some v -> Perm_ops.meet v.Reconcile.before bound
                   | None -> []
                 in
                 Filter_eval.eval pure
                   (Perm.filter_of least w.Verify.token)
                   attrs
                 && not
                      (Filter_eval.eval pure
                         (Perm.filter_of
                            (List.assoc "app" report.Reconcile.manifests)
                            w.Verify.token)
                         attrs))
               ws
          && cert.Verify.crosscheck.Verify.replayed > 0
          && cert.Verify.crosscheck.Verify.checkers_agree
        | Verify.Minimal | Verify.Unknown_minimality _ -> true);
    QCheck.Test.make ~count:40
      ~name:"minimality pass never raises on assertion-heavy repairs"
      QCheck.small_nat
      (fun seed ->
        (* The full reconcile-then-verify path with the minimality
           dimension enabled: [verify_report] must terminate with a
           certificate on every hostile seed, whatever the verdict. *)
        let manifest_src, policy_src = Hostile.assertion_heavy ~seed in
        let m = Test_util.manifest_exn manifest_src in
        let p =
          match Policy_parser.of_string policy_src with
          | Ok p -> p
          | Error e -> QCheck.Test.fail_reportf "policy parse: %s" e
        in
        let report = Reconcile.run ~apps:[ ("app", m) ] p in
        ignore (Verify.verify_report p report);
        true);
    QCheck.Test.make ~count:40
      ~name:"verify never raises on hostile filter ASTs"
      QCheck.(pair small_nat (int_range 1 120))
      (fun (seed, size) ->
        let rng = Prng.of_int seed in
        let f = Hostile.random_hostile_ast rng ~size in
        let m = Hostile.manifest_of_filter f in
        let p =
          policy
            "LET a = APP app\n\
             ASSERT a <= { PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK \
             255.0.0.0 }"
        in
        ignore (Verify.verify ~apps:[ ("app", m) ] p);
        true) ]

let suite =
  [ Alcotest.test_case "dirty corpus refuted soundly" `Quick
      test_dirty_refuted_soundly;
    Alcotest.test_case "dirty corpus certified after repair" `Quick
      test_dirty_certified_after_repair;
    Alcotest.test_case "clean corpus certified" `Quick test_clean_certified;
    Alcotest.test_case "budget degrades to Unverified" `Quick
      test_budget_degrades_to_unverified;
    Alcotest.test_case "NOT is fail-closed" `Quick test_not_is_fail_closed;
    Alcotest.test_case "exclusivity refuted with two witnesses" `Quick
      test_exclusivity_refuted_with_two_witnesses;
    Alcotest.test_case "unrepairable violation stays refuted" `Quick
      test_unrepairable_stays_refuted;
    Alcotest.test_case "honest repair certifies minimal" `Quick
      test_honest_repair_is_minimal;
    Alcotest.test_case "over-truncation yields confirmed Slack" `Quick
      test_overtruncation_yields_slack;
    Alcotest.test_case "minimality exhaustion degrades to Unknown" `Quick
      test_minimality_exhaustion_is_unknown;
    Alcotest.test_case "Inclusion fallbacks stay fail-closed" `Quick
      test_inclusion_fallback_directions;
    Alcotest.test_case "vetting carries the certificate" `Quick
      test_vetting_carries_certificate;
    Alcotest.test_case "verdict counters reach telemetry" `Quick
      test_counters_reach_telemetry;
    Alcotest.test_case "certificate JSON round-trips" `Quick
      test_json_rendering ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
