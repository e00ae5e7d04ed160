(* shield-verify lab: prove the certifier's contract on a known corpus
   (docs/VERIFY.md).

   Invariants checked against the examples/verify corpus:

   - the raw dirty manifest is Refuted, and every witness is
     semantically sound: replayed through [Filter_eval], the call is
     admitted by the manifest side and escapes the bound — and the
     certificate's own cross-check (the same witnesses through the
     deployed [Engine]) agrees;
   - after reconciliation repairs the dirty manifest, the very same
     obligations certify — the paper's "repair produces a compliant
     manifest" claim, checked rather than assumed;
   - the clean corpus certifies as-is;
   - an exhausted budget degrades to Unverified — never to a false
     Certified, and never to an exception.

   `verify-lab` adds hostile-generator sweeps and a timing section;
   `verify-smoke` is the fast tier-1 gate wired into `dune runtest`.
   Both persist BENCH_VERIFY.json. *)

open Sdnshield
module Hostile = Shield_workload.Hostile_gen
module J = Shield_controller.Telemetry.Json

let fail = Bench_util.fail

let read_example = Bench_util.read_example ~dir:"verify"
let manifest_of = Bench_util.manifest_of
let policy_of = Bench_util.policy_of

let pure = Filter_eval.pure_env

(** Semantic soundness of one witness, re-established from scratch:
    the call must be admitted by the manifest side and (for boundary
    escapes) rejected by the bound, under [Filter_eval] itself. *)
let confirm_witness ~what (w : Verify.witness) =
  let attrs = Attrs.of_call w.Verify.call in
  let fl = Perm.filter_of w.Verify.admitted_by w.Verify.token in
  if not (Filter_eval.eval pure fl attrs) then
    fail "%s: witness call is NOT admitted by the manifest side" what;
  match w.Verify.escapes with
  | None -> ()
  | Some bound ->
    let fr = Perm.filter_of bound w.Verify.token in
    if Filter_eval.eval pure fr attrs then
      fail "%s: witness call does NOT escape the bound it refutes" what

let counterexamples (cert : Verify.certificate) =
  match cert.Verify.verdict with Verify.Refuted cs -> cs | _ -> []

(* Dirty corpus: refuted raw, certified after repair ------------------------- *)

let check_dirty_corpus () =
  let m = manifest_of ~what:"dirty.manifest" (read_example "dirty.manifest") in
  let p = policy_of ~what:"dirty.policy" (read_example "dirty.policy") in
  let apps = [ ("app", m) ] in
  let raw, raw_dt = Bench_util.timed (fun () -> Verify.verify ~apps p) in
  Fmt.pr "raw dirty manifest:      %s (%s)@."
    (Verify.verdict_label raw)
    (Bench_util.fmt_us raw_dt);
  (match raw.Verify.verdict with
  | Verify.Refuted cs ->
    List.iter
      (fun (c : Verify.counterexample) ->
        if c.Verify.witnesses = [] then
          fail "dirty: counterexample carries no witness";
        List.iter (confirm_witness ~what:"dirty") c.Verify.witnesses)
      cs;
    if raw.Verify.crosscheck.Verify.replayed = 0 then
      fail "dirty: refuted but no witness was replayed through the engine";
    if not raw.Verify.crosscheck.Verify.checkers_agree then
      fail "dirty: Engine disagreed with Filter_eval: %s"
        (String.concat "; " raw.Verify.crosscheck.Verify.crosscheck_notes)
  | v ->
    fail "dirty: expected Refuted on the raw manifest, got %s"
      (match v with
      | Verify.Certified -> "Certified"
      | Verify.Unverified r -> "Unverified (" ^ r ^ ")"
      | Verify.Refuted _ -> assert false));
  (* Repair, then re-verify: reconciliation's output must certify. *)
  let report = Reconcile.run ~apps p in
  let repaired, rep_dt =
    Bench_util.timed (fun () -> Verify.verify_report p report)
  in
  Fmt.pr "reconciled dirty manifest: %s (%s)@."
    (Verify.verdict_label repaired)
    (Bench_util.fmt_us rep_dt);
  if not (Verify.certified repaired) then
    fail "dirty: reconciled manifest did not certify (%s)"
      (Verify.verdict_label repaired);
  (raw, raw_dt, rep_dt)

(* Clean corpus: certified as-is ---------------------------------------------- *)

let check_clean_corpus () =
  let m = manifest_of ~what:"clean.manifest" (read_example "clean.manifest") in
  let p = policy_of ~what:"clean.policy" (read_example "clean.policy") in
  let cert, dt =
    Bench_util.timed (fun () -> Verify.verify ~apps:[ ("app", m) ] p)
  in
  Fmt.pr "clean manifest:          %s (%s)@."
    (Verify.verdict_label cert)
    (Bench_util.fmt_us dt);
  if not (Verify.certified cert) then begin
    fail "clean: expected Certified, got %s" (Verify.verdict_label cert);
    Fmt.pr "%a@." Verify.pp_certificate cert
  end;
  dt

(* Budget degradation: Unverified, never a false Certified ------------------- *)

let check_budget_degradation () =
  let m = manifest_of ~what:"dirty.manifest" (read_example "dirty.manifest") in
  let p = policy_of ~what:"dirty.policy" (read_example "dirty.policy") in
  let limits = { Budget.default_limits with Budget.max_steps = 2 } in
  match Verify.verify ~limits ~apps:[ ("app", m) ] p with
  | cert ->
    Fmt.pr "exhausted budget:        %s@." (Verify.verdict_label cert);
    (match cert.Verify.verdict with
    | Verify.Certified ->
      fail "budget: an exhausted budget certified a violating manifest"
    | Verify.Refuted _ | Verify.Unverified _ -> ())
  | exception exn ->
    fail "budget: verify raised under an exhausted budget: %s"
      (Printexc.to_string exn)

(* Hostile sweep: never raises ------------------------------------------------ *)

let check_hostile ~seeds =
  for seed = 1 to seeds do
    let manifest_src, policy_src = Hostile.assertion_heavy ~seed in
    let what = Printf.sprintf "hostile assertion-heavy (seed %d)" seed in
    let m = manifest_of ~what manifest_src in
    let p = policy_of ~what policy_src in
    match Verify.verify ~apps:[ ("app", m) ] p with
    | (_ : Verify.certificate) -> ()
    | exception exn ->
      fail "%s: verify raised: %s" what (Printexc.to_string exn)
  done

(* Harness --------------------------------------------------------------------- *)

let emit_json ~gate ~raw ~raw_dt ~rep_dt ~clean_dt =
  let s = Verify.stats () in
  let cexs = counterexamples raw in
  Bench_util.write_json "BENCH_VERIFY.json"
    (J.Obj
       [ ("bench", J.Str gate);
         ("corpus", J.Str "examples/verify dirty/clean");
         ( "verdicts",
           J.Obj
             [ ("certified", J.Num (float s.Verify.certified_n));
               ("refuted", J.Num (float s.Verify.refuted_n));
               ("unverified", J.Num (float s.Verify.unverified_n)) ] );
         ("dirty_counterexamples", J.Num (float (List.length cexs)));
         ( "dirty_witness_replays",
           J.Num (float raw.Verify.crosscheck.Verify.replayed) );
         ( "checkers_agree",
           J.Bool raw.Verify.crosscheck.Verify.checkers_agree );
         ( "infer_consistent",
           J.Bool raw.Verify.crosscheck.Verify.infer_consistent );
         ( "timings_us",
           J.Obj
             [ ("dirty_raw", J.Num (raw_dt *. 1e6));
               ("dirty_reconciled", J.Num (rep_dt *. 1e6));
               ("clean", J.Num (clean_dt *. 1e6)) ] ) ])

let run_checks ~gate ~hostile_seeds =
  Verify.reset_stats ();
  let raw, raw_dt, rep_dt = check_dirty_corpus () in
  let clean_dt = check_clean_corpus () in
  check_budget_degradation ();
  if hostile_seeds > 0 then check_hostile ~seeds:hostile_seeds;
  emit_json ~gate ~raw ~raw_dt ~rep_dt ~clean_dt;
  Bench_util.report gate
    ~detail:
      ": dirty refuted with confirmed witnesses, repair certifies, clean \
       certifies, budget degrades"

let run () =
  Bench_util.start_gate
    ~title:"shield-verify: certification on the dirty/clean corpus"
    "verify-lab" 300.;
  run_checks ~gate:"verify-lab" ~hostile_seeds:12

(** Tier-1 gate: same invariants, smaller hostile sweep. *)
let smoke () =
  Bench_util.start_gate ~title:"shield-verify: smoke" "verify-smoke" 120.;
  run_checks ~gate:"verify-smoke" ~hostile_seeds:2
