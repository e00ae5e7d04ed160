(* Symbolic-difference lab: prove the Diff engine's contract and the
   minimality certification built on it (docs/VERIFY.md "Minimality").

   Invariants checked against the examples/verify corpus:

   - the clean corpus reconciles without repairs and certifies
     Minimal (vacuously), and the honestly-reconciled dirty corpus —
     a real Truncated_to_boundary repair — also certifies Minimal:
     MEET(original, boundary) loses nothing against reconcile's
     actual output;
   - an over-truncated repair (examples/verify/overtruncated.manifest
     standing in for a buggy MEET) yields Slack, and every Slack
     witness is semantically sound: the call is admitted by the least
     repair and denied by the published manifest under [Filter_eval]
     itself, and the certificate's checker cross-check agrees;
   - an exhausted budget degrades minimality to Unknown_minimality —
     never to a false Minimal, and never to an exception;
   - [Diff.diff] itself is fail-closed: past budget exhaustion it
     answers Unknown, never a false Empty, and witness lists stay
     bounded by [Diff.dedup]'s cap under hostile manifests.

   `diff-lab` adds hostile-generator sweeps; `diff-smoke` is the fast
   tier-1 gate wired into `dune runtest`.  Both persist
   BENCH_DIFF.json. *)

open Sdnshield
module Hostile = Shield_workload.Hostile_gen
module J = Shield_controller.Telemetry.Json

let fail = Bench_util.fail

let read_example = Bench_util.read_example ~dir:"verify"
let manifest_of = Bench_util.manifest_of
let policy_of = Bench_util.policy_of

let pure = Filter_eval.pure_env

(** A Slack witness, re-confirmed from scratch: admitted by the least
    repair ([admitted_by]), denied by the published repaired manifest
    ([escapes]) — under [Filter_eval] itself. *)
let confirm_slack ~what (w : Verify.witness) =
  let attrs = Attrs.of_call w.Verify.call in
  let fl = Perm.filter_of w.Verify.admitted_by w.Verify.token in
  if not (Filter_eval.eval pure fl attrs) then
    fail "%s: slack witness is NOT admitted by the least repair" what;
  match w.Verify.escapes with
  | None -> fail "%s: slack witness carries no repaired-manifest side" what
  | Some after ->
    if Filter_eval.eval pure (Perm.filter_of after w.Verify.token) attrs then
      fail "%s: slack witness is NOT denied by the repaired manifest" what

let minimality_name = function
  | Verify.Minimal -> "minimal"
  | Verify.Slack _ -> "slack"
  | Verify.Unknown_minimality _ -> "unknown"

(* Clean corpora: Minimal, vacuously and after a real repair --------------- *)

let check_minimal_corpora () =
  let clean_m =
    manifest_of ~what:"clean.manifest" (read_example "clean.manifest")
  in
  let clean_p = policy_of ~what:"clean.policy" (read_example "clean.policy") in
  let report = Reconcile.run ~apps:[ ("app", clean_m) ] clean_p in
  let cert, clean_dt =
    Bench_util.timed (fun () -> Verify.verify_report clean_p report)
  in
  Fmt.pr "clean corpus:              %s / minimality %s (%s)@."
    (Verify.verdict_label cert)
    (Verify.minimality_label cert)
    (Bench_util.fmt_us clean_dt);
  if cert.Verify.minimality <> Verify.Minimal then
    fail "clean: expected Minimal (no repairs), got %s"
      (minimality_name cert.Verify.minimality);
  (* The honest repair: reconcile truncates dirty.manifest by MEET
     with the boundary, and the minimality pass must prove that this
     truncation took nothing the boundary would have kept. *)
  let dirty_m =
    manifest_of ~what:"dirty.manifest" (read_example "dirty.manifest")
  in
  let dirty_p = policy_of ~what:"dirty.policy" (read_example "dirty.policy") in
  let report = Reconcile.run ~apps:[ ("app", dirty_m) ] dirty_p in
  if
    not
      (List.exists
         (fun (v : Reconcile.violation) ->
           v.Reconcile.action = Reconcile.Truncated_to_boundary)
         report.Reconcile.violations)
  then fail "dirty: reconcile performed no boundary truncation to audit";
  let cert, repaired_dt =
    Bench_util.timed (fun () -> Verify.verify_report dirty_p report)
  in
  Fmt.pr "honestly repaired dirty:   %s / minimality %s (%s)@."
    (Verify.verdict_label cert)
    (Verify.minimality_label cert)
    (Bench_util.fmt_us repaired_dt);
  if cert.Verify.minimality <> Verify.Minimal then
    fail "dirty repaired: expected Minimal for reconcile's own repair, got %s"
      (minimality_name cert.Verify.minimality);
  (clean_dt, repaired_dt)

(* Over-truncated repair: Slack with confirmed witnesses ------------------- *)

(* A report as a buggy reconciliation would have produced it: the
   recorded repair [before -> after] over-truncates (overtruncated
   .manifest drops read_statistics, narrows 10/8 to 10.0/16 and caps
   priority at 10000 where the boundary allows 32000). *)
let overtruncated_report () =
  let before =
    manifest_of ~what:"dirty.manifest" (read_example "dirty.manifest")
  in
  let after =
    manifest_of ~what:"overtruncated.manifest"
      (read_example "overtruncated.manifest")
  in
  let p = policy_of ~what:"dirty.policy" (read_example "dirty.policy") in
  let stmt =
    match
      List.find_opt (function Policy.Assert _ -> true | _ -> false) p
    with
    | Some s -> s
    | None ->
      fail "dirty.policy has no ASSERT statement";
      Policy.Assert
        (Policy.A_cmp (Policy.P_block [], Policy.C_le, Policy.P_block []))
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

let check_overtruncated () =
  let p, report = overtruncated_report () in
  let cert, dt = Bench_util.timed (fun () -> Verify.verify_report p report) in
  Fmt.pr "over-truncated repair:     %s / minimality %s (%s)@."
    (Verify.verdict_label cert)
    (Verify.minimality_label cert)
    (Bench_util.fmt_us dt);
  (match cert.Verify.minimality with
  | Verify.Slack ws ->
    if ws = [] then fail "overtruncated: Slack with an empty witness list";
    if List.length ws > 8 then
      fail "overtruncated: %d slack witnesses exceed the dedup cap"
        (List.length ws);
    List.iter (confirm_slack ~what:"overtruncated") ws;
    if cert.Verify.crosscheck.Verify.replayed = 0 then
      fail "overtruncated: no slack witness was replayed through the engine";
    if not cert.Verify.crosscheck.Verify.checkers_agree then
      fail "overtruncated: Engine disagreed with Filter_eval: %s"
        (String.concat "; " cert.Verify.crosscheck.Verify.crosscheck_notes)
  | m ->
    fail "overtruncated: expected Slack with confirmed witnesses, got %s"
      (minimality_name m));
  (cert, dt)

(* Budget exhaustion: Unknown_minimality, never a false Minimal ------------ *)

let check_budget_degradation () =
  let p, report = overtruncated_report () in
  let limits = { Budget.default_limits with Budget.max_steps = 2 } in
  match Verify.verify_report ~limits p report with
  | cert ->
    Fmt.pr "exhausted budget:          minimality %s@."
      (Verify.minimality_label cert);
    (match cert.Verify.minimality with
    | Verify.Unknown_minimality _ -> ()
    | Verify.Minimal ->
      fail "budget: an exhausted budget certified an over-truncation Minimal"
    | Verify.Slack _ ->
      (* Witnesses under a 2-step budget would mean the search ran
         un-metered. *)
      fail "budget: an exhausted budget still synthesized slack witnesses")
  | exception exn ->
    fail "budget: verify_report raised under an exhausted budget: %s"
      (Printexc.to_string exn)

(* Diff fail-closed direction + witness bounds ----------------------------- *)

let check_diff_direction () =
  let wide = [ { Perm.token = Token.Insert_flow; filter = Filter.True } ] in
  let narrow =
    manifest_of ~what:"clean.manifest" (read_example "clean.manifest")
  in
  (* Past exhaustion, [diff] must answer Unknown: a false Empty here
     would let a buggy repair certify Minimal.  (Direction table in
     docs/VETTING.md; unit-pinned by test/test_diff.ml.) *)
  let b = Budget.create ~limits:{ Budget.default_limits with max_steps = 1 } () in
  (* Drain the scope first so every tick inside [diff] raises. *)
  (try
     Budget.with_scope b (fun () ->
         Budget.step ();
         Budget.step ())
   with Budget.Exhausted _ -> ());
  (match Budget.with_scope b (fun () -> Diff.diff wide narrow) with
  | Diff.Unknown _ -> ()
  | Diff.Empty -> fail "direction: exhausted diff answered a false Empty"
  | Diff.Nonempty _ ->
    fail "direction: exhausted diff still synthesized witnesses"
  | exception exn ->
    fail "direction: diff raised instead of absorbing exhaustion: %s"
      (Printexc.to_string exn));
  (* Under an ample budget the same pair has confirmed witnesses. *)
  match Diff.diff wide narrow with
  | Diff.Nonempty (_ :: _) -> ()
  | v ->
    fail "direction: expected witnesses for True \\ clean, got %s"
      (match v with
      | Diff.Empty -> "Empty"
      | Diff.Unknown r -> "Unknown (" ^ r ^ ")"
      | Diff.Nonempty _ -> "Nonempty []")

let check_hostile ~seeds =
  for seed = 1 to seeds do
    let what = Printf.sprintf "hostile (seed %d)" seed in
    let manifest_src, _ = Hostile.assertion_heavy ~seed in
    let m = manifest_of ~what manifest_src in
    match Diff.diff ~max_witnesses:64 m [] with
    | Diff.Nonempty ws ->
      if List.length (Diff.dedup ws) > 8 then
        fail "%s: dedup left %d witnesses (cap is 8)" what
          (List.length (Diff.dedup ws))
    | Diff.Empty | Diff.Unknown _ -> ()
    | exception exn -> fail "%s: diff raised: %s" what (Printexc.to_string exn)
  done

(* Harness ----------------------------------------------------------------- *)

let emit_json ~gate ~slack_cert ~clean_dt ~repaired_dt ~slack_dt =
  let s = Verify.stats () in
  let slack_witnesses =
    match slack_cert.Verify.minimality with
    | Verify.Slack ws -> List.length ws
    | _ -> 0
  in
  Bench_util.write_json "BENCH_DIFF.json"
    (J.Obj
       [ ("bench", J.Str gate);
         ("corpus", J.Str "examples/verify clean/dirty/overtruncated");
         ( "minimality",
           J.Obj
             [ ("minimal", J.Num (float s.Verify.minimal_n));
               ("slack", J.Num (float s.Verify.slack_n));
               ("unknown", J.Num (float s.Verify.unknown_minimality_n)) ] );
         ("slack_witnesses", J.Num (float slack_witnesses));
         ( "slack_witness_replays",
           J.Num (float slack_cert.Verify.crosscheck.Verify.replayed) );
         ( "checkers_agree",
           J.Bool slack_cert.Verify.crosscheck.Verify.checkers_agree );
         ( "timings_us",
           J.Obj
             [ ("clean", J.Num (clean_dt *. 1e6));
               ("dirty_repaired", J.Num (repaired_dt *. 1e6));
               ("overtruncated", J.Num (slack_dt *. 1e6)) ] ) ])

let run_checks ~gate ~hostile_seeds =
  Verify.reset_stats ();
  let clean_dt, repaired_dt = check_minimal_corpora () in
  let slack_cert, slack_dt = check_overtruncated () in
  check_budget_degradation ();
  check_diff_direction ();
  if hostile_seeds > 0 then check_hostile ~seeds:hostile_seeds;
  emit_json ~gate ~slack_cert ~clean_dt ~repaired_dt ~slack_dt;
  Bench_util.report gate
    ~detail:
      ": honest repairs certify Minimal, over-truncation yields confirmed \
       Slack, exhaustion degrades to Unknown without a false Empty"

let run () =
  Bench_util.start_gate
    ~title:"symbolic diff: minimality certification on the corpus" "diff-lab"
    300.;
  run_checks ~gate:"diff-lab" ~hostile_seeds:12

(** Tier-1 gate: same invariants, smaller hostile sweep. *)
let smoke () =
  Bench_util.start_gate ~title:"symbolic diff: smoke" "diff-smoke" 120.;
  run_checks ~gate:"diff-smoke" ~hostile_seeds:2
