(* Shield-lint lab: prove the static analyzer's contract on a known
   corpus (docs/LINTING.md).

   Invariants checked against the examples/lint corpus and the seeded
   [Shield_workload] generators:

   - every rule of the catalogue fires on the lint-dirty corpus
     (manifest rules incl. the trace-driven over-privilege audit;
     policy rules on the dirty policy);
   - the lint-clean corpus produces zero findings — in particular
     zero [Error] findings, the CI-blocking severity;
   - the SARIF-shaped JSON renderer round-trips through the
     observability stack's own parser with one result per finding;
   - an exhausted budget degrades every rule to [Info] "unverified"
     findings — lint never raises (fail-degraded, like vetting);
   - on the perfbench boot's pool of generated manifests, no rule
     reports a permission more than once.

   `lint-lab` runs the full report (more seeds, larger traces);
   `lint-smoke` is the fast tier-1 gate wired into `dune runtest`. *)

open Sdnshield
module Hostile = Shield_workload.Hostile_gen
module Pgen = Shield_workload.Perm_gen
module Prng = Shield_workload.Prng
module Json = Shield_controller.Telemetry.Json

let fail = Bench_util.fail

let read_example = Bench_util.read_example ~dir:"lint"
let manifest_of = Bench_util.manifest_of
let policy_of = Bench_util.policy_of

let check_rules ~what expected findings =
  List.iter
    (fun r ->
      if not (Lint.has_rule r findings) then
        fail "%s: rule %s did not fire" what (Lint.rule_id r))
    expected

let manifest_rules =
  [ Lint.Unsatisfiable_filter; Lint.Vacuous_filter; Lint.Shadowed_clause;
    Lint.Redundant_refinement; Lint.Over_privilege ]

let policy_rules =
  [ Lint.Dead_binding; Lint.Self_meet_join; Lint.Overlapping_exclusive ]

let describe what findings =
  Fmt.pr "%-28s %d error(s), %d warning(s), %d info@." what
    (Lint.count Lint.Error findings)
    (Lint.count Lint.Warn findings)
    (Lint.count Lint.Info findings)

(* Dirty corpus: all 8 rules ------------------------------------------------- *)

let check_dirty_corpus ~trace =
  let dirty_m =
    manifest_of ~what:"dirty.manifest" (read_example "dirty.manifest")
  in
  let findings = Lint.lint_manifest ~trace dirty_m in
  describe "dirty.manifest" findings;
  check_rules ~what:"dirty.manifest" manifest_rules findings;
  if Lint.count Lint.Error findings = 0 then
    fail "dirty.manifest: expected at least one Error finding";
  let dirty_p = policy_of ~what:"dirty.policy" (read_example "dirty.policy") in
  let findings = Lint.lint_policy dirty_p in
  describe "dirty.policy" findings;
  check_rules ~what:"dirty.policy" policy_rules findings;
  findings

let check_generated_corpus ~seeds ~trace =
  for seed = 1 to seeds do
    let what = Printf.sprintf "hostile dirty manifest (seed %d)" seed in
    let m = manifest_of ~what (Hostile.lint_dirty_manifest_src ~seed) in
    check_rules ~what manifest_rules (Lint.lint_manifest ~trace m);
    let what = Printf.sprintf "hostile dirty policy (seed %d)" seed in
    let p = policy_of ~what (Hostile.lint_dirty_policy_src ~seed) in
    check_rules ~what policy_rules (Lint.lint_policy p)
  done

let check_over_privileged ~n =
  let manifest, trace = Pgen.over_privileged ~n () in
  let findings = Lint.lint_manifest ~trace manifest in
  describe "over-privileged pair" findings;
  if not (Lint.has_rule Lint.Over_privilege findings) then
    fail
      "over-privileged pair: a widened manifest produced no over-privilege \
       finding against its own trace"

(* Clean corpus: silence ------------------------------------------------------ *)

let check_clean_corpus ~trace:_ =
  let clean_m =
    manifest_of ~what:"clean.manifest" (read_example "clean.manifest")
  in
  let findings = Lint.lint_manifest clean_m in
  describe "clean.manifest" findings;
  if findings <> [] then
    List.iter
      (fun f -> fail "clean.manifest: unexpected finding: %s" f.Lint.message)
      findings;
  let clean_p = policy_of ~what:"clean.policy" (read_example "clean.policy") in
  let findings = Lint.lint_policy clean_p in
  describe "clean.policy" findings;
  if findings <> [] then
    List.iter
      (fun f -> fail "clean.policy: unexpected finding: %s" f.Lint.message)
      findings

(* SARIF round-trip ----------------------------------------------------------- *)

let check_sarif_roundtrip findings =
  let sarif = Lint.to_sarif ~uri:"examples/lint/dirty.policy" findings in
  match Json.of_string sarif with
  | Error e -> fail "sarif: output does not re-parse: %s" e
  | Ok json -> (
    (match Json.member "version" json with
    | Some (Json.Str "2.1.0") -> ()
    | _ -> fail "sarif: missing or wrong version field");
    match Json.member "runs" json with
    | Some (Json.Arr [ run ]) -> (
      match Json.member "results" run with
      | Some (Json.Arr results) ->
        if List.length results <> List.length findings then
          fail "sarif: %d results for %d findings" (List.length results)
            (List.length findings)
      | _ -> fail "sarif: run carries no results array")
    | _ -> fail "sarif: expected exactly one run")

(* Budget degradation --------------------------------------------------------- *)

let check_budget_degradation () =
  let dirty_m =
    manifest_of ~what:"dirty.manifest" (read_example "dirty.manifest")
  in
  let limits = { Budget.default_limits with Budget.max_steps = 1 } in
  match Lint.lint_manifest ~limits dirty_m with
  | findings ->
    describe "exhausted budget" findings;
    if findings = [] then
      fail "budget: an exhausted budget produced no unverified findings";
    List.iter
      (fun f ->
        if f.Lint.severity <> Lint.Info then
          fail
            "budget: finding %S under an exhausted budget has severity %s, \
             not Info"
            f.Lint.message
            (Lint.severity_label f.Lint.severity))
      findings
  | exception exn ->
    fail "budget: lint raised under an exhausted budget: %s"
      (Printexc.to_string exn)

(* Once per permission ---------------------------------------------------------- *)

(* The pool perfbench/boot.ml's [pool_requests] admits at boot: 40
   Medium manifests drawn from one seed.  Its filters normalise to
   thousands of clauses, so a clause-level rule that reported per
   clause would show here as tens of thousands of findings. *)
let pool ~seed =
  let rng = Prng.of_int seed in
  List.init 40 (fun _ ->
      let focus = if Prng.bool rng then `Insert else `Stats in
      Pgen.generate ~seed:(Prng.int rng 1_000_000) ~complexity:Pgen.Medium
        ~focus ())

let check_once_per_permission ~seed =
  let total = ref 0 in
  List.iter
    (List.iter (fun (p : Perm.t) ->
         let findings = Lint.lint_manifest [ p ] in
         total := !total + List.length findings;
         List.iter
           (fun rule ->
             match List.filter (fun f -> f.Lint.rule = rule) findings with
             | [] | [ _ ] -> ()
             | fs ->
               fail "pool (seed %d): %s reported PERM %s %d times" seed
                 (Lint.rule_id rule)
                 (Token.to_string p.Perm.token)
                 (List.length fs))
           Lint.all_rules))
    (pool ~seed);
  Fmt.pr "%-28s %d finding(s) over 40 manifests@."
    (Printf.sprintf "pool (seed %d)" seed)
    !total

(* Harness --------------------------------------------------------------------- *)

let run_checks ~gate ~seeds ~trace_n =
  (* Before the reset: the pool's findings are not part of the corpus
     whose counters BENCH_LINT.json records. *)
  check_once_per_permission ~seed:1;
  Lint.reset_counters ();
  let _, trace = Pgen.over_privileged ~n:trace_n () in
  let dirty_policy_findings = check_dirty_corpus ~trace in
  check_generated_corpus ~seeds ~trace;
  check_over_privileged ~n:trace_n;
  check_clean_corpus ~trace;
  check_sarif_roundtrip dirty_policy_findings;
  check_budget_degradation ();
  Fmt.pr "@.lint counters:@.";
  List.iter (fun (name, n) -> Fmt.pr "  %-36s %d@." name n) (Lint.stats ());
  let module J = Shield_controller.Telemetry.Json in
  Bench_util.write_json "BENCH_LINT.json"
    (J.Obj
       [ ("bench", J.Str gate);
         ("corpus", J.Str "examples/lint dirty/clean + hostile seeds");
         ( "rule_counters",
           J.Obj (List.map (fun (name, n) -> (name, J.Num (float n))) (Lint.stats ())) );
         ("failures", J.Num (float (List.length !Bench_util.failures))) ]);
  Bench_util.report gate ~detail:": rule coverage, clean corpus and renderers hold"

let run () =
  Bench_util.start_gate
    ~title:"Shield-lint: rule coverage on the dirty/clean corpus" "lint-lab"
    300.;
  run_checks ~gate:"lint-lab" ~seeds:16 ~trace_n:512

(** Tier-1 gate: same invariants, smaller volume. *)
let smoke () =
  Bench_util.start_gate ~title:"Shield-lint: smoke" "lint-smoke" 120.;
  run_checks ~gate:"lint-smoke" ~seeds:3 ~trace_n:64
