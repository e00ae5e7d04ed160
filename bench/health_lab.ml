(* Health lab: the streaming health monitor and the flight recorder
   under injected lifecycle faults (docs/OBSERVABILITY.md).

   `health-smoke` is the tier-1 gate for the control-plane
   observability chain, end to end, on the observed market of
   [Shield_workload.Drill] (which `sdnshield health` also runs):

   - a clean churn phase must judge Healthy;
   - churn with the mid-swap fault sites armed must degrade the
     verdict with a named [faults] cause, and every fault-injected
     rollback must leave a flight-recorder bundle whose transaction
     span names the failed stage;
   - the transaction-span trail must agree with the market ledger
     (same ids, same commit/rollback verdicts, same failed stages);
   - every phase with no fault armed must commit every transaction:
     each phase's script starts from the deployment the last one left;
   - sliding the window past the incident (manual clock) must flip
     the verdict back to Healthy without any process restart;
   - the Prometheus exposition of a snapshot carrying trace + health
     sections must pass {!Telemetry.validate_prometheus} and contain
     the new metric families. *)

open Shield_controller
module Drill = Shield_workload.Drill

let smoke () =
  Bench_util.start_gate ~title:"Health: smoke" "health-smoke" 120.;
  let fail = Bench_util.fail in
  (* Every rollback's bundle is checked, so the recorder keeps them
     all: the faulted phase rolls back more than the default 16. *)
  let o = Drill.observe ~flight_capacity:64 (Trace.create ()) in
  Fun.protect
    ~finally:(fun () -> Drill.close_observed o)
    (fun () ->
      (* Phase A: clean churn judges Healthy. *)
      let v = Drill.phase o ~seed:11 ~apps:10 ~txns:20 () in
      if v.Health.status <> Health.Healthy then
        fail "clean churn judged %s, expected healthy"
          (Health.status_to_string v.Health.status);
      (* Phase B: armed mid-swap faults degrade the verdict, and the
         snapshot exposition taken *during* the incident carries every
         new metric family. *)
      let v_fault = Drill.phase o ~faulted:true ~seed:12 ~apps:10 ~txns:40 () in
      if not (List.exists (fun (_, n) -> n > 0) (Faults.report ())) then
        fail "fault schedule injected nothing at %g per swap site"
          Drill.incident_rate;
      let prom =
        Telemetry.to_prometheus
          (Telemetry.snapshot ~trace:o.Drill.trace ~health:o.Drill.health ())
      in
      (match Telemetry.validate_prometheus prom with
      | Ok () -> ()
      | Error e -> fail "Prometheus exposition invalid: %s" e);
      List.iter
        (fun family ->
          if not (Drill.contains ~sub:family prom) then
            fail "Prometheus exposition lacks %s" family)
        [ "sdnshield_health_status"; "sdnshield_health_window_seconds";
          "sdnshield_health_signal"; "sdnshield_health_cause_level";
          "sdnshield_trace_txn_spans_total" ];
      (* Phase C: the window slides past the incident; the verdict
         recovers with no restart.  The incident left its named cause
         and its flight bundles. *)
      Drill.slide o;
      let v_slid = Health.verdict o.Drill.health in
      List.iter (fail "%s")
        (Drill.incident_violations o ~during:v_fault ~after:v_slid);
      let rollbacks =
        List.filter
          (fun (txn : Market.txn) -> not (Market.committed txn.Market.outcome))
          (Market.history o.Drill.market.Drill.queue)
      in
      let bundles = Forensics.Flight.bundles o.Drill.flight in
      let trail = Trace.txn_spans o.Drill.trace in
      (* Clean churn keeps it healthy. *)
      let v_final = Drill.phase o ~seed:13 ~apps:10 ~txns:10 () in
      if v_final.Health.status <> Health.Healthy then
        fail "post-recovery clean churn judged %s"
          (Health.status_to_string v_final.Health.status);
      (* The span trail is the ledger, and no clean phase rolled
         back. *)
      List.iter (fail "%s") (Drill.violations o);
      Fmt.pr
        "phases: clean=%s faulted=%s slid=%s final=%s; %d rollbacks, %d \
         flight bundles, %d spans@."
        (Health.status_to_string v.Health.status)
        (Health.status_to_string v_fault.Health.status)
        (Health.status_to_string v_slid.Health.status)
        (Health.status_to_string v_final.Health.status)
        (List.length rollbacks) (List.length bundles) (List.length trail));
  Bench_util.report "health-smoke"
