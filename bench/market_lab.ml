(* Market lab: app-store churn against a live deployment
   (docs/CHURN.md).

   Three phases, each checking a different face of the live-update
   subsystem's contract:

   1. {e Churn ground truth} — a seeded 1k-app lifecycle script
      ([Churn_gen]) runs through the {!Market} with faults
      disarmed while reader domains hammer a probe app's live checker
      under CBench-style flow-mod traffic.  Checks: the commit /
      rollback ledger matches the generator's own model {e exactly}
      (valid entries commit, invalid ones roll back, no slack); the
      ledger's epoch trace is clean (a commit advances the epoch by
      one, a rollback leaves it untouched); zero torn calls — every
      snapshot-pinned probe pair lands entirely on one epoch; the
      deployment stays {!Sdnshield.Epoch.consistent}; and both the
      delta and the whole-policy reconcile paths were taken.

   2. {e Swap latency} — the probe readers' per-decision latency
      during churn against a quiescent baseline measured by the same
      loop.  Gate: p99(churn) <= max(2 x p99(quiescent),
      p99(quiescent) + 20us) — hot-swaps may not stall the data path.

   3. {e Fault-armed churn} — the same script shape with the
      [Swap_verify] / [Swap_compile] / [Swap_publish] fault sites
      armed.  Checks: every injected mid-swap fault surfaces as a
      clean rollback (stage named, epoch untouched), the deployment
      stays consistent, and the pipeline recovers — a fresh install
      commits once disarmed.

   `market-lab` prints the full report; `market-smoke` is the tier-1
   gate (smaller volume, same invariants including the p99 bound, a
   watchdog turns a hang into exit 3).  Phase 3 runs on the observed
   market of [Shield_workload.Drill], the one `sdnshield market-demo`
   runs, so it also checks the span trail against the ledger and the
   health and flight-recorder chain of the injected incident. *)

open Shield_openflow
open Shield_controller
open Shield_workload
open Sdnshield

let fail = Bench_util.fail

let insert_call ~nw_dst =
  Api.Install_flow
    ( 1,
      Flow_mod.add ~priority:100
        ~match_:
          (Match_fields.make ~dl_type:Types.Eth_ip
             ~nw_dst:(Match_fields.exact_ip (Types.ipv4_of_string nw_dst))
             ())
        ~actions:[ Action.Output 1 ] () )

(* The probe app alternates between grants on two disjoint /16s, so on
   any single epoch exactly one of the two probe calls is allowed: a
   torn evaluation (or a spurious absent window) shows up as an
   agreeing pair. *)
let probe_app = "probe"
let grant_src o =
  Printf.sprintf "PERM insert_flow LIMITING IP_DST 10.%d.0.0 MASK 255.255.0.0" o
let o1 = 1
let o2 = 2
let call_a = insert_call ~nw_dst:"10.1.0.1"
let call_b = insert_call ~nw_dst:"10.2.0.1"

(* A policy with one per-app boundary on the probe app: scripted
   app-NNN churn takes the delta reconcile path (their statements
   don't reach [probe]), while every probe flip takes the whole-policy
   path — the lab exercises and counts both.  The boundary admits
   [insert_flow], so intersection preserves the probe's /16 grants. *)
let lab_policy =
  "LET watched = APP probe\n\
   ASSERT watched <= { PERM read_statistics PERM insert_flow }"

type probe_tally = {
  torn : int Atomic.t;  (** Agreeing probe pairs on one snapshot. *)
  probes : int Atomic.t;  (** Snapshot-pinned probe pairs issued. *)
}

(** One reader: resolve the probe app's slot once per pair, time each
    decision, flag torn pairs.  Runs until [stop] (or [pairs] pairs
    when given); returns its latency histogram for merging. *)
let reader ?pairs ~(live : Api.checker) ~stop ~tally () =
  let h = Metrics.Histogram.create () in
  let resolve =
    match live.Api.snapshot with
    | Some f -> f
    | None -> invalid_arg "live checker must expose snapshot"
  in
  let timed_check ck call =
    let t0 = Unix.gettimeofday () in
    let d = ck.Api.check call in
    Metrics.Histogram.record h (Unix.gettimeofday () -. t0);
    d
  in
  let n = ref 0 in
  let budget_left () = match pairs with None -> true | Some p -> !n < p in
  while (not (Atomic.get stop)) && budget_left () do
    incr n;
    let ck = resolve () in
    let da = timed_check ck call_a and db = timed_check ck call_b in
    Atomic.incr tally.probes;
    (match (da, db) with
    | Api.Allow, Api.Deny _ | Api.Deny _, Api.Allow -> ()
    | _ -> Atomic.incr tally.torn)
  done;
  h

(* Phase 1+2: scripted churn with concurrent probe readers ---------------- *)

let run_churn ~apps ~script_len ~flips ~quiescent_probes ~readers :
    Telemetry.Json.t =
  let dm = Drill.market ~policy:lab_policy ~sandbox:(Sandbox.create ()) () in
  let t = dm.Drill.epoch and m = dm.Drill.queue in
  (* Probe app in, then the quiescent latency baseline: same reader
     loop, no churn. *)
  (match Market.submit m (Market.install probe_app (grant_src o1)) with
  | Market.Committed _ -> ()
  | Market.Rolled_back { stage; reason; _ } ->
    failwith (Printf.sprintf "probe install failed at %s: %s" stage reason));
  let live = Epoch.checker t probe_app in
  (* Quiescent baseline: the same reader loop, same domain setup, no
     churn — so the latency comparison isolates the swaps. *)
  let quiet_tally = { torn = Atomic.make 0; probes = Atomic.make 0 } in
  let quiet_h =
    Domain.join
      (Domain.spawn
         (reader ~pairs:quiescent_probes ~live ~stop:(Atomic.make false)
            ~tally:quiet_tally))
  in
  if Atomic.get quiet_tally.torn > 0 then
    fail "quiescent: %d torn pairs with no churn at all — checker bug"
      (Atomic.get quiet_tally.torn);
  (* Scripted churn: interleave probe-app flips so the readers race
     real hot-swaps, not just unrelated-app traffic. *)
  let script =
    Churn_gen.script ~seed:11 ~apps ~invalid_fraction:0.15 ~length:script_len ()
  in
  let stop = Atomic.make false in
  let tally = { torn = Atomic.make 0; probes = Atomic.make 0 } in
  let reader_domains =
    List.init readers (fun _ -> Domain.spawn (reader ~live ~stop ~tally))
  in
  let flip_every = max 1 (script_len / max 1 flips) in
  let entries =
    List.concat
      (List.mapi
         (fun i (e : Churn_gen.entry) ->
           if i > 0 && i mod flip_every = 0 then
             let o = if i / flip_every land 1 = 1 then o2 else o1 in
             [ { Churn_gen.request = Market.upgrade probe_app (grant_src o);
                 valid = true };
               e ]
           else [ e ])
         script)
  in
  Drill.submit dm entries;
  Atomic.set stop true;
  let churn_h =
    List.fold_left
      (fun acc d -> Metrics.Histogram.merge acc (Domain.join d))
      (Metrics.Histogram.create ()) reader_domains
  in
  (* Ground truth: the ledger (minus the probe install) must match the
     script's model exactly — commit where valid, rollback where not. *)
  let ledger = Market.history m in
  let scripted =
    match ledger with
    | _probe_install :: rest -> rest
    | [] -> []
  in
  let expected = List.map (fun (e : Churn_gen.entry) -> e.Churn_gen.valid) entries in
  if List.length scripted <> List.length expected then
    fail "churn: ledger has %d scripted txns, expected %d"
      (List.length scripted) (List.length expected);
  List.iteri
    (fun i (txn : Market.txn) ->
      match List.nth_opt expected i with
      | None -> ()
      | Some valid ->
        if Market.committed txn.Market.outcome <> valid then
          fail "churn: txn %d (%s %s) %s but the script says %s" txn.Market.id
            (Market.kind_to_string txn.Market.request.Market.kind)
            txn.Market.request.Market.app
            (if Market.committed txn.Market.outcome then "committed"
             else "rolled back")
            (if valid then "commit" else "rollback"))
    scripted;
  List.iter (fail "churn: %s") (Drill.epoch_trace_violations ledger);
  if Atomic.get tally.torn > 0 then
    fail "churn: %d torn probe pairs out of %d — a call mixed two epochs"
      (Atomic.get tally.torn) (Atomic.get tally.probes);
  if Atomic.get tally.probes = 0 then
    fail "churn: readers issued no probes — the race was never exercised";
  List.iter
    (fail "churn: epoch invariants violated after transaction %d")
    (List.rev dm.Drill.inconsistent);
  let deltas, fulls = Epoch.reconcile_counts t in
  if deltas = 0 then fail "churn: the delta reconcile path was never taken";
  if fulls = 0 then fail "churn: the whole-policy reconcile path was never taken";
  let stats = Market.stats m in
  (* Latency gate: churn may not stall the data path. *)
  let p99_q = Metrics.Histogram.percentile quiet_h 99. in
  let p99_c = Metrics.Histogram.percentile churn_h 99. in
  let bound = Float.max (2. *. p99_q) (p99_q +. 20e-6) in
  if Float.is_finite p99_c && p99_c > bound then
    fail "churn: p99 %.1fus during swaps exceeds the bound %.1fus (quiescent %.1fus)"
      (p99_c *. 1e6) (bound *. 1e6) (p99_q *. 1e6);
  Bench_util.subhr "scripted churn under probe traffic";
  Fmt.pr "apps=%d script=%d (+%d probe flips) commits=%d rollbacks=%d@." apps
    script_len (List.length entries - script_len) stats.Market.commits
    stats.Market.rollbacks;
  Fmt.pr "final epoch=%d live apps=%d reconciles: delta=%d full=%d@."
    (Epoch.epoch t)
    (List.length (Epoch.apps t))
    deltas fulls;
  Fmt.pr "probes: %d pinned pairs, %d torn; latency p50=%s p99=%s (quiescent p99=%s, bound=%s)@."
    (Atomic.get tally.probes) (Atomic.get tally.torn)
    (Bench_util.fmt_us (Metrics.Histogram.percentile churn_h 50.))
    (Bench_util.fmt_us p99_c) (Bench_util.fmt_us p99_q)
    (Bench_util.fmt_us bound);
  let module J = Telemetry.Json in
  let json =
    J.Obj
      [ ("phase", J.Str "churn");
        ("apps", J.Num (float apps));
        ("script", J.Num (float script_len));
        ("submitted", J.Num (float stats.Market.submitted));
        ("commits", J.Num (float stats.Market.commits));
        ("rollbacks", J.Num (float stats.Market.rollbacks));
        ("final_epoch", J.Num (float (Epoch.epoch t)));
        ("live_apps", J.Num (float (List.length (Epoch.apps t))));
        ("reconcile_delta", J.Num (float deltas));
        ("reconcile_full", J.Num (float fulls));
        ("probe_pairs", J.Num (float (Atomic.get tally.probes)));
        ("torn", J.Num (float (Atomic.get tally.torn)));
        ("p99_quiescent_us", J.Num (p99_q *. 1e6));
        ("p99_churn_us", J.Num (p99_c *. 1e6));
        ("p99_bound_us", J.Num (bound *. 1e6)) ]
  in
  Drill.close dm;
  json

(* Phase 3: fault-armed churn --------------------------------------------- *)

let run_faulted ~apps ~script_len : Telemetry.Json.t =
  let o = Drill.observe (Trace.create ()) in
  let dm = o.Drill.market in
  let t = dm.Drill.epoch and m = dm.Drill.queue in
  Drill.with_swap_faults ~seed:7 ~verify:0.05 ~compile:0.05 ~publish:0.05
    (fun () -> Drill.churn dm ~seed:23 ~apps ~txns:script_len ());
  (* Every injected mid-swap fault must have surfaced as a clean
     rollback: stage named, epoch untouched, deployment consistent
     after every transaction, span trail equal to the ledger. *)
  List.iter (fail "faulted: %s") (Drill.violations o);
  let ledger = Market.history m in
  let stage_ok = [ "vet"; "reconcile"; "lint"; "verify"; "compile"; "publish" ] in
  List.iter
    (fun (txn : Market.txn) ->
      match txn.Market.outcome with
      | Market.Rolled_back { stage; _ } when not (List.mem stage stage_ok) ->
        fail "faulted: txn %d rolled back at unknown stage %S" txn.Market.id stage
      | _ -> ())
    ledger;
  let injected =
    Faults.injected Faults.Swap_verify
    + Faults.injected Faults.Swap_compile
    + Faults.injected Faults.Swap_publish
  in
  if injected = 0 then
    fail "faulted: no swap faults fired — the sites were never reached";
  let stats = Market.stats m in
  if stats.Market.rollbacks = 0 then
    fail "faulted: armed swap faults produced no rollbacks";
  (* The incident degraded health with a faults cause, ages out of
     the window, and left flight bundles naming the failed stages. *)
  let during = Health.verdict o.Drill.health in
  Drill.slide o;
  List.iter (fail "faulted: %s")
    (Drill.incident_violations o ~during ~after:(Health.verdict o.Drill.health));
  (* Recovery: with the sites disarmed the pipeline serves again. *)
  (match Market.submit m (Market.install "recovery" (grant_src o1)) with
  | Market.Committed _ -> ()
  | Market.Rolled_back { stage; reason; _ } ->
    fail "faulted: post-disarm install failed at %s: %s" stage reason);
  (match (Epoch.checker t "recovery").Api.check call_a with
  | Api.Allow -> ()
  | Api.Deny _ -> fail "faulted: post-disarm grant does not serve");
  Bench_util.subhr "fault-armed churn (swap sites at p=0.05)";
  Fmt.pr "script=%d commits=%d rollbacks=%d injected: verify=%d compile=%d publish=%d@."
    script_len stats.Market.commits stats.Market.rollbacks
    (Faults.injected Faults.Swap_verify)
    (Faults.injected Faults.Swap_compile)
    (Faults.injected Faults.Swap_publish);
  Fmt.pr "rollback notifications in the forensic fault log: %d@."
    (List.length
       (List.filter
          (fun (e : Sandbox.audit_entry) -> e.Sandbox.action = "market-rollback")
          (Forensics.fault_log o.Drill.sandbox)));
  let module J = Telemetry.Json in
  let json =
    J.Obj
      [ ("phase", J.Str "faulted");
        ("script", J.Num (float script_len));
        ("commits", J.Num (float stats.Market.commits));
        ("rollbacks", J.Num (float stats.Market.rollbacks));
        ("injected_verify", J.Num (float (Faults.injected Faults.Swap_verify)));
        ("injected_compile", J.Num (float (Faults.injected Faults.Swap_compile)));
        ("injected_publish", J.Num (float (Faults.injected Faults.Swap_publish)));
        ("final_epoch", J.Num (float (Epoch.epoch t))) ]
  in
  Drill.close_observed o;
  json

(* Entry points ------------------------------------------------------------ *)

let run_all ~gate ~apps ~script_len ~flips ~quiescent_probes ~faulted_len =
  let churn_json =
    run_churn ~apps ~script_len ~flips ~quiescent_probes ~readers:2
  in
  let fault_json = run_faulted ~apps:100 ~script_len:faulted_len in
  let module J = Telemetry.Json in
  Bench_util.write_json "BENCH_MARKET.json"
    (J.Obj [ ("bench", J.Str gate); ("phases", J.Arr [ churn_json; fault_json ]) ]);
  Bench_util.report gate
    ~detail:": churn, swap-latency and fault invariants all held"

let run () =
  Bench_util.start_gate
    ~title:"Market lab: 1k-app churn, hot-swap consistency, rollback under faults"
    "market-lab" 600.;
  run_all ~gate:"market-lab" ~apps:1000 ~script_len:3000 ~flips:200
    ~quiescent_probes:20_000 ~faulted_len:400

(** Tier-1 gate: same invariants (including the p99 bound), smaller
    volume. *)
let smoke () =
  Bench_util.start_gate ~title:"Market churn: smoke" "market-smoke" 180.;
  run_all ~gate:"market-smoke" ~apps:200 ~script_len:500 ~flips:60
    ~quiescent_probes:5_000 ~faulted_len:150
