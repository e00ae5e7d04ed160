(* Shield-lint: the rule catalogue, counters, renderers and the
   fail-degraded budget discipline (docs/LINTING.md).

   The qcheck properties pin the two ISSUE invariants: manifests
   synthesised by [Infer.of_trace] are lint-clean against their own
   trace (no over-privilege findings — inference IS the least
   privilege), and lint never raises on hostile inputs. *)

open Shield_controller
open Sdnshield
module Hostile = Shield_workload.Hostile_gen
module Pgen = Shield_workload.Perm_gen
module Prng = Shield_workload.Prng
module Json = Telemetry.Json

let filter = Test_util.filter_exn
let manifest = Test_util.manifest_exn

let policy src =
  match Policy_parser.of_string src with
  | Ok p -> p
  | Error e -> Alcotest.failf "policy parse: %s" e

let perm token f = { Perm.token; filter = f }

let read_example name =
  let candidates =
    [ Filename.concat "examples/lint" name;
      Filename.concat "../examples/lint" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "corpus file %s not found" name
  | Some path ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

(* Catalogue ------------------------------------------------------------------- *)

let test_rule_ids () =
  Alcotest.(check int) "eight rules" 8 (List.length Lint.all_rules);
  List.iter
    (fun r ->
      match Lint.rule_of_id (Lint.rule_id r) with
      | Some r' when r' = r -> ()
      | _ -> Alcotest.failf "rule id %s does not round-trip" (Lint.rule_id r))
    Lint.all_rules;
  Alcotest.(check bool) "unknown id" true (Lint.rule_of_id "bogus" = None);
  List.iter
    (fun s ->
      match Lint.severity_of_label (Lint.severity_label s) with
      | Some s' when s' = s -> ()
      | _ -> Alcotest.fail "severity label does not round-trip")
    [ Lint.Error; Lint.Warn; Lint.Info ]

(* Manifest rules -------------------------------------------------------------- *)

let test_unsatisfiable () =
  let fs =
    Lint.lint_manifest [ perm Token.Insert_flow (filter "TCP_DST 80 AND TCP_DST 443") ]
  in
  Alcotest.(check bool) "fires" true (Lint.has_rule Lint.Unsatisfiable_filter fs);
  Alcotest.(check int) "is an Error" 1 (Lint.count Lint.Error fs);
  (* Cross-dimension conjunctions are fine. *)
  let fs =
    Lint.lint_manifest
      [ perm Token.Insert_flow (filter "TCP_DST 80 AND IP_DST 10.0.0.1") ]
  in
  Alcotest.(check bool) "cross-dimension silent" false
    (Lint.has_rule Lint.Unsatisfiable_filter fs);
  (* Complementary literals within one clause. *)
  let fs =
    Lint.lint_manifest
      [ perm Token.Insert_flow (filter "OWN_FLOWS AND NOT OWN_FLOWS") ]
  in
  Alcotest.(check bool) "complementary literals fire" true
    (Lint.has_rule Lint.Unsatisfiable_filter fs)

(* A filter the author wrote as two ORs normalises to four DNF clauses,
   all unsatisfiable: one finding for the permission, with the count. *)
let test_unsatisfiable_counts_clauses () =
  let fs =
    Lint.lint_manifest
      [ perm Token.Insert_flow
          (filter
             "(TCP_DST 80 OR TCP_DST 81) AND (TCP_DST 443 OR TCP_DST 8443)") ]
  in
  match fs with
  | [ f ] ->
    Alcotest.(check string) "an Error" "error"
      (Lint.severity_label f.Lint.severity);
    Alcotest.(check string) "first clause" "PERM insert_flow, clause 1"
      f.Lint.location;
    Alcotest.(check bool) "counts the clauses" true
      (String.ends_with ~suffix:"(4 of 4 DNF clauses)" f.Lint.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_vacuous () =
  let fs =
    Lint.lint_manifest
      [ perm Token.Delete_flow (filter "OWN_FLOWS OR NOT OWN_FLOWS") ]
  in
  Alcotest.(check bool) "tautology fires" true
    (Lint.has_rule Lint.Vacuous_filter fs);
  let fs = Lint.lint_manifest [ perm Token.Delete_flow (filter "OWN_FLOWS") ] in
  Alcotest.(check bool) "single atom silent" false
    (Lint.has_rule Lint.Vacuous_filter fs);
  (* A CNF clause is a disjunction, and the message renders it as one. *)
  let fs =
    Lint.lint_manifest
      [ perm Token.Delete_flow
          (filter "(OWN_FLOWS OR NOT OWN_FLOWS) AND TCP_DST 80") ]
  in
  match List.filter (fun f -> f.Lint.rule = Lint.Vacuous_filter) fs with
  | [ f ] ->
    Alcotest.(check string) "tautological clause rendered with OR"
      "clause (OWN_FLOWS OR NOT OWN_FLOWS) contains complementary literals \
       and is always true; it contributes nothing to the conjunction"
      f.Lint.message
  | fs -> Alcotest.failf "expected one vacuous finding, got %d" (List.length fs)

let test_shadowed () =
  let fs =
    Lint.lint_manifest
      [ perm Token.Insert_flow
          (filter
             "IP_DST 10.0.0.0 MASK 255.0.0.0 OR (IP_DST 10.1.0.0 MASK \
              255.255.0.0 AND OWN_FLOWS)") ]
  in
  Alcotest.(check bool) "narrower later clause fires" true
    (Lint.has_rule Lint.Shadowed_clause fs);
  let fs =
    Lint.lint_manifest
      [ perm Token.Insert_flow
          (filter
             "IP_DST 10.0.0.0 MASK 255.0.0.0 OR IP_DST 11.0.0.0 MASK \
              255.0.0.0") ]
  in
  Alcotest.(check bool) "disjoint clauses silent" false
    (Lint.has_rule Lint.Shadowed_clause fs)

let test_redundant () =
  let fs =
    Lint.lint_manifest
      [ perm Token.Read_statistics (filter "MAX_PRIORITY 100") ]
  in
  Alcotest.(check bool) "stats vs priority fires" true
    (Lint.has_rule Lint.Redundant_refinement fs);
  let fs =
    Lint.lint_manifest [ perm Token.Read_statistics (filter "FLOW_LEVEL") ]
  in
  Alcotest.(check bool) "stats level relevant" false
    (Lint.has_rule Lint.Redundant_refinement fs);
  (* A macro might expand to anything: never claim redundancy. *)
  let fs =
    Lint.lint_manifest [ perm Token.Read_statistics (filter "some_stub") ]
  in
  Alcotest.(check bool) "macro counts as relevant" false
    (Lint.has_rule Lint.Redundant_refinement fs)

let test_over_privilege () =
  let m, trace = Pgen.over_privileged ~n:64 () in
  (* Without a trace the audit cannot run. *)
  Alcotest.(check bool) "no trace, no audit" false
    (Lint.has_rule Lint.Over_privilege (Lint.lint_manifest m));
  let fs = Lint.lint_manifest ~trace m in
  let op = List.filter (fun f -> f.Lint.rule = Lint.Over_privilege) fs in
  Alcotest.(check bool) "unused token reported" true
    (List.exists
       (fun f -> Test_vetting.contains ~affix:"read_payload" f.Lint.location)
       op);
  Alcotest.(check bool) "strictly-wider filter reported" true
    (List.exists
       (fun f -> Test_vetting.contains ~affix:"insert_flow" f.Lint.location)
       op)

(* Policy rules ---------------------------------------------------------------- *)

let dirty_policy () = policy (read_example "dirty.policy")

let test_dead_binding () =
  let fs = Lint.lint_policy (dirty_policy ()) in
  let dead = List.filter (fun f -> f.Lint.rule = Lint.Dead_binding) fs in
  Alcotest.(check bool) "dead perm binding is a Warn" true
    (List.exists
       (fun f ->
         f.Lint.severity = Lint.Warn
         && Test_vetting.contains ~affix:"unused" f.Lint.message)
       dead);
  Alcotest.(check bool) "unreferenced stub is Info without manifests" true
    (List.exists
       (fun f ->
         f.Lint.severity = Lint.Info
         && Test_vetting.contains ~affix:"ghost_macro" f.Lint.message)
       dead);
  (* With the app manifests' stubs supplied, a used stub is live... *)
  let fs =
    Lint.lint_policy ~manifest_macros:[ "ghost_macro" ] (dirty_policy ())
  in
  Alcotest.(check bool) "stub in a manifest is live" false
    (List.exists
       (fun f -> Test_vetting.contains ~affix:"ghost_macro" f.Lint.message)
       fs);
  (* ...and a stub no manifest mentions is a definite Warn. *)
  let fs = Lint.lint_policy ~manifest_macros:[] (dirty_policy ()) in
  Alcotest.(check bool) "stub absent everywhere is a Warn" true
    (List.exists
       (fun f ->
         f.Lint.severity = Lint.Warn
         && Test_vetting.contains ~affix:"ghost_macro" f.Lint.message)
       fs)

let test_self_meet_join () =
  let fs = Lint.lint_policy (dirty_policy ()) in
  Alcotest.(check bool) "a MEET a fires" true
    (Lint.has_rule Lint.Self_meet_join fs);
  let fs =
    Lint.lint_policy
      (policy
         "LET a = { PERM read_statistics }\n\
          LET b = { PERM read_payload }\n\
          ASSERT a MEET b <= a")
  in
  Alcotest.(check bool) "a MEET b silent" false
    (Lint.has_rule Lint.Self_meet_join fs)

let test_overlapping_exclusive () =
  let fs = Lint.lint_policy (dirty_policy ()) in
  Alcotest.(check bool) "overlapping sides fire" true
    (Lint.has_rule Lint.Overlapping_exclusive fs);
  let fs =
    Lint.lint_policy
      (policy
         "LET a = { PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK \
          255.0.0.0 }\n\
          LET b = { PERM read_statistics }\n\
          ASSERT EITHER a OR b")
  in
  Alcotest.(check bool) "token-disjoint sides silent" false
    (Lint.has_rule Lint.Overlapping_exclusive fs)

(* The Diff engine upgrades over-privilege and overlapping-exclusive
   claims to confirmed witness calls, and the --deny gate counts
   witness-bearing findings once per rule so the upgrade can never
   flip an existing gate. *)
let test_witnesses_and_gate_count () =
  let m, trace = Pgen.over_privileged ~n:64 () in
  let fs = Lint.lint_manifest ~trace m in
  let op = List.filter (fun f -> f.Lint.rule = Lint.Over_privilege) fs in
  Alcotest.(check bool) "some over-privilege finding carries a witness" true
    (List.exists (fun f -> f.Lint.witnesses <> []) op);
  List.iter
    (fun f ->
      List.iter
        (fun (w : Diff.witness) ->
          Alcotest.(check bool) "witness call admitted by the audited grant"
            true
            (Filter_eval.eval Filter_eval.pure_env
               (Perm.filter_of m w.Diff.token)
               (Attrs.of_call w.Diff.call)))
        f.Lint.witnesses)
    op;
  let fs = Lint.lint_policy (dirty_policy ()) in
  Alcotest.(check bool) "overlapping-exclusive carries a confirmed overlap"
    true
    (List.exists
       (fun f -> f.Lint.rule = Lint.Overlapping_exclusive && f.Lint.witnesses <> [])
       fs);
  (* gate_count: witness-bearing findings collapse to one per rule;
     bare findings keep counting individually. *)
  let mk rule witnesses =
    { Lint.rule;
      severity = Lint.Warn;
      location = "here";
      message = "msg";
      suggestion = None;
      witnesses }
  in
  let w =
    match op with
    | f :: _ when f.Lint.witnesses <> [] -> f.Lint.witnesses
    | _ -> Alcotest.fail "no witness to build the gate_count fixture from"
  in
  let findings =
    [ mk Lint.Over_privilege w;
      mk Lint.Over_privilege w;
      mk Lint.Over_privilege w;
      mk Lint.Dead_binding [] ]
  in
  Alcotest.(check int) "plain count sees every finding" 4
    (Lint.count Lint.Warn findings);
  Alcotest.(check int) "gate_count collapses witnessed findings per rule" 2
    (Lint.gate_count Lint.Warn findings)

(* Toggles, budget, counters, renderers ---------------------------------------- *)

let test_rule_toggle () =
  let m = manifest (read_example "dirty.manifest") in
  let fs = Lint.lint_manifest ~rules:[ Lint.Unsatisfiable_filter ] m in
  Alcotest.(check bool) "selected rule runs" true
    (Lint.has_rule Lint.Unsatisfiable_filter fs);
  Alcotest.(check bool) "others off" true
    (List.for_all (fun f -> f.Lint.rule = Lint.Unsatisfiable_filter) fs)

let test_budget_degrades_to_info () =
  let m = manifest (read_example "dirty.manifest") in
  let limits = { Budget.default_limits with Budget.max_steps = 1 } in
  let fs = Lint.lint_manifest ~limits m in
  Alcotest.(check bool) "some unverified findings" true (fs <> []);
  List.iter
    (fun f ->
      Alcotest.(check string)
        "severity is info" "info"
        (Lint.severity_label f.Lint.severity);
      Alcotest.(check bool) "message says unverified" true
        (Test_vetting.contains ~affix:"unverified" f.Lint.message))
    fs

let test_counters_reach_telemetry () =
  Lint.reset_counters ();
  let m = manifest (read_example "dirty.manifest") in
  ignore (Lint.lint_manifest m);
  let stats = Lint.stats () in
  let count name =
    match List.assoc_opt name stats with Some n -> n | None -> 0
  in
  Alcotest.(check bool) "error counter bumped" true
    (count "lint-error:unsatisfiable-filter" >= 1);
  Alcotest.(check bool) "warn counter bumped" true
    (count "lint-warn:vacuous-filter" >= 1);
  (* The counters are ordinary registry counters, so they flow into
     Metrics.counter_report, Telemetry.snapshot and the Prometheus
     export without further wiring. *)
  let counters = Metrics.counter_report () in
  Alcotest.(check bool) "registered as a counter" true
    (List.mem_assoc "lint-error:unsatisfiable-filter" counters);
  let snap = Telemetry.snapshot () in
  Alcotest.(check bool) "prometheus export carries lint" true
    (Test_vetting.contains ~affix:"unsatisfiable_filter"
       (Telemetry.to_prometheus snap)
    || Test_vetting.contains ~affix:"unsatisfiable-filter"
         (Telemetry.to_prometheus snap))

let test_sarif_roundtrip () =
  let m = manifest (read_example "dirty.manifest") in
  let fs = Lint.lint_manifest m in
  let sarif = Lint.to_sarif ~uri:"dirty.manifest" fs in
  match Json.of_string sarif with
  | Error e -> Alcotest.failf "sarif does not re-parse: %s" e
  | Ok json -> (
    match Json.member "runs" json with
    | Some (Json.Arr [ run ]) -> (
      match Json.member "results" run with
      | Some (Json.Arr results) ->
        Alcotest.(check int) "one result per finding" (List.length fs)
          (List.length results);
        let levels =
          List.filter_map
            (fun r ->
              match Json.member "level" r with
              | Some (Json.Str l) -> Some l
              | _ -> None)
            results
        in
        Alcotest.(check bool) "error level present" true
          (List.mem "error" levels);
        List.iter
          (fun l ->
            if not (List.mem l [ "error"; "warning"; "note" ]) then
              Alcotest.failf "non-SARIF level %s" l)
          levels
      | _ -> Alcotest.fail "no results array")
    | _ -> Alcotest.fail "expected one run")

(* Admission integration ------------------------------------------------------- *)

(* A market admission lints once, in the transaction's lint stage:
   vetting does not lint the raw manifest as well, so each rule the
   dirty manifest fires is counted exactly once. *)
let test_admission_lints_once () =
  let t =
    match Epoch.create ~policy:"" () with
    | Ok t -> t
    | Error e -> Alcotest.failf "deployment rejected: %s" e
  in
  Lint.reset_counters ();
  (match Epoch.apply t (Market.install "app" (read_example "dirty.manifest")) with
  | Market.Committed _ -> ()
  | Market.Rolled_back { stage; reason; _ } ->
    Alcotest.failf "install rolled back at %s (%s)" stage reason);
  Epoch.close t;
  Alcotest.(check (list (pair string int)))
    "one count per finding"
    [ ("lint-error:unsatisfiable-filter", 1);
      ("lint-warn:redundant-refinement", 1);
      ("lint-warn:shadowed-clause", 1);
      ("lint-warn:vacuous-filter", 1) ]
    (Lint.stats ())

let test_vet_and_reconcile_counts_stubs_live () =
  (* The policy's stub macro is referenced by the app manifest, so the
     aggregated pipeline must not report it dead. *)
  let policy_src =
    "LET guard = { IP_DST 10.0.0.0 MASK 255.0.0.0 }\n\
     LET a = APP app\n\
     ASSERT a <= { PERM insert_flow }"
  in
  let app_src = "PERM insert_flow LIMITING guard" in
  match Vetting.vet_and_reconcile ~apps:[ ("app", app_src) ] policy_src with
  | Vetting.Admitted { Vetting.lint; _ }
  | Vetting.Degraded ({ Vetting.lint; _ }, _) ->
    Alcotest.(check bool) "stub used by the app manifest is live" false
      (List.exists
         (fun f -> Test_vetting.contains ~affix:"guard" f.Lint.message)
         lint)
  | Vetting.Rejected r ->
    Alcotest.failf "rejected: %s" (Fmt.str "%a" Vetting.pp_rejection r)

(* Clause-rule oracle ---------------------------------------------------------- *)

(* The per-clause enumeration the three clause-level rules used to
   report: one finding per offending normal-form clause, paired with
   the clause count of the form the rule scans.  Lint must report the
   first of these per permission, suffixed with the count when more
   than one clause offends. *)
module Per_clause = struct
  let ellipsize s =
    if String.length s <= 120 then s else String.sub s 0 117 ^ "..."

  let singleton_str s = ellipsize (Fmt.to_to_string Filter.pp_singleton s)
  let filter_str f = ellipsize (Fmt.to_to_string Filter.pp f)

  let clause_str conn (c : Nf.clause) =
    ellipsize
      (String.concat conn (List.map (Fmt.to_to_string Nf.pp_literal) c))

  let finding ?suggestion rule severity location message =
    { Lint.rule; severity; location; message; suggestion; witnesses = [] }

  let clause_loc ~many loc i =
    if many then Printf.sprintf "%s, clause %d" loc (i + 1) else loc

  let conj_conflict (c : Nf.clause) =
    let rec go = function
      | [] -> None
      | l :: rest -> (
        match
          List.find_opt
            (fun l' ->
              Nf.complementary l l'
              || (l.Nf.positive && l'.Nf.positive
                 && Inclusion.singleton_disjoint l.Nf.atom l'.Nf.atom))
            rest
        with
        | Some l' -> Some (l, l')
        | None -> go rest)
    in
    go c

  let unsatisfiable loc (p : Perm.t) =
    let clauses = Nf.dnf p.Perm.filter in
    let many = List.length clauses > 1 in
    let lit_str (l : Nf.literal) =
      (if l.Nf.positive then "" else "NOT ") ^ singleton_str l.Nf.atom
    in
    ( List.length clauses,
      List.concat
        (List.mapi
           (fun i c ->
             match conj_conflict c with
             | None -> []
             | Some (a, b) ->
               [ finding Lint.Unsatisfiable_filter Lint.Error
                   (clause_loc ~many loc i)
                   (Printf.sprintf
                      "conjunction requires both %s and %s, which cannot \
                       hold together on the same dimension; only calls \
                       lacking the dimension (vacuous pass) could ever \
                       satisfy this clause"
                      (lit_str a) (lit_str b))
                   ~suggestion:
                     "remove one of the conflicting singletons or turn the \
                      AND into an OR" ])
           clauses) )

  let vacuous loc (p : Perm.t) =
    if Filter.size p.Perm.filter <= 1 then (0, [])
    else
      let clauses = Nf.cnf p.Perm.filter in
      if clauses = [] || List.for_all Nf.has_complementary clauses then
        ( List.length clauses,
          [ finding Lint.Vacuous_filter Lint.Warn loc
              (Printf.sprintf
                 "filter %s is always true after normalisation: the \
                  refinement does not restrict the token at all"
                 (filter_str p.Perm.filter))
              ~suggestion:
                "drop the LIMITING clause (an unrestricted grant is what it \
                 already is) or tighten the filter" ] )
      else
        let many = List.length clauses > 1 in
        ( List.length clauses,
          List.concat
            (List.mapi
               (fun i c ->
                 if Nf.has_complementary c then
                   [ finding Lint.Vacuous_filter Lint.Warn
                       (clause_loc ~many loc i)
                       (Printf.sprintf
                          "clause (%s) contains complementary literals and \
                           is always true; it contributes nothing to the \
                           conjunction"
                          (clause_str " OR " c))
                       ~suggestion:"delete the tautological clause" ]
                 else [])
               clauses) )

  let shadowed loc (p : Perm.t) =
    let arr = Array.of_list (Nf.dnf p.Perm.filter) in
    let n = Array.length arr in
    if n < 2 then (n, [])
    else if n > 128 then
      ( n,
        [ finding Lint.Shadowed_clause Lint.Info loc
            (Printf.sprintf
               "unverified: %d DNF clauses exceed the shadow-analysis cap \
                (128); rule skipped for this permission"
               n) ] )
    else
      let out = ref [] in
      for j = 1 to n - 1 do
        let rec first_covering i =
          if i >= j then None
          else if Inclusion.conj_clause_includes arr.(i) arr.(j) then Some i
          else first_covering (i + 1)
        in
        match first_covering 0 with
        | None -> ()
        | Some i ->
          out :=
            finding Lint.Shadowed_clause Lint.Warn
              (Printf.sprintf "%s, clause %d" loc (j + 1))
              (Printf.sprintf
                 "clause (%s) is already covered by clause %d (%s); it can \
                  never change the decision"
                 (clause_str " AND " arr.(j)) (i + 1)
                 (clause_str " AND " arr.(i)))
              ~suggestion:"delete the shadowed clause"
            :: !out
      done;
      (n, List.rev !out)

  (* What lint must report for [p] under [rule]. *)
  let expected rule (p : Perm.t) =
    let loc = "PERM " ^ Token.to_string p.Perm.token in
    let enumerate, form =
      match rule with
      | Lint.Unsatisfiable_filter -> (unsatisfiable, "DNF")
      | Lint.Vacuous_filter -> (vacuous, "CNF")
      | _ -> (shadowed, "DNF")
    in
    match enumerate loc p with
    | exception Nf.Too_large ->
      [ finding rule Lint.Info loc
          "unverified: normal form too large under the lint budget; \
           permission skipped" ]
    | _, [] -> []
    | _, [ f ] -> [ f ]
    | n, (f :: _ as fs) ->
      [ { f with
          Lint.message =
            Printf.sprintf "%s (%d of %d %s clauses)" f.Lint.message
              (List.length fs) n form } ]
end

let clause_rules =
  [ Lint.Unsatisfiable_filter; Lint.Vacuous_filter; Lint.Shadowed_clause ]

(* No step, clause or deadline limit: the oracle runs unbudgeted, so
   only the normal-form caps both sides share may cut a scan short. *)
let unbounded =
  { Budget.default_limits with
    Budget.max_steps = max_int; max_clauses = max_int; deadline = None }

(* Perm_gen manifests of the perfbench pool's shapes, hostile ASTs and
   the lint-dirty corpus. *)
let clause_oracle_manifest =
  let open QCheck.Gen in
  let perm_gen =
    map3
      (fun seed complexity focus ->
        ( Printf.sprintf "Perm_gen %s seed %d"
            (Pgen.complexity_to_string complexity) seed,
          Pgen.generate ~seed ~complexity ~focus () ))
      small_nat
      (oneofl [ Pgen.Small; Pgen.Medium ])
      (oneofl [ `Insert; `Stats ])
  in
  let hostile =
    map2
      (fun seed size ->
        ( Printf.sprintf "hostile AST seed %d size %d" seed size,
          Hostile.manifest_of_filter
            (Hostile.random_hostile_ast (Prng.of_int seed) ~size) ))
      small_nat (int_range 1 80)
  in
  let dirty =
    map
      (fun seed ->
        ( Printf.sprintf "lint-dirty seed %d" seed,
          Test_util.manifest_exn (Hostile.lint_dirty_manifest_src ~seed) ))
      small_nat
  in
  QCheck.make ~print:fst (oneof [ perm_gen; hostile; dirty ])

let clause_rules_once_per_permission (_, m) =
  List.for_all
    (fun rule ->
      let got = Lint.lint_manifest ~rules:[ rule ] ~limits:unbounded m in
      let want = List.concat_map (Per_clause.expected rule) m in
      got = want
      || QCheck.Test.fail_reportf "%s:@.lint:@.%a@.oracle:@.%a"
           (Lint.rule_id rule) Lint.pp_report got Lint.pp_report want)
    clause_rules

(* Properties ------------------------------------------------------------------ *)

let qsuite =
  [ QCheck.Test.make ~count:200
      ~name:"Infer.of_trace is lint-clean against its own trace"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 20) Test_filters.call_arb)
      (fun trace ->
        let m = Infer.of_trace trace in
        not (Lint.has_rule Lint.Over_privilege (Lint.lint_manifest ~trace m)));
    QCheck.Test.make ~count:200 ~name:"lint never raises on hostile ASTs"
      QCheck.(pair small_nat (int_range 1 200))
      (fun (seed, size) ->
        let rng = Prng.of_int seed in
        let f = Hostile.random_hostile_ast rng ~size in
        let m = Hostile.manifest_of_filter f in
        ignore (Lint.lint_manifest m);
        true);
    QCheck.Test.make ~count:50
      ~name:"lint-dirty generators always cover their rules"
      QCheck.small_nat
      (fun seed ->
        let m =
          Test_util.manifest_exn (Hostile.lint_dirty_manifest_src ~seed)
        in
        let p =
          match
            Policy_parser.of_string (Hostile.lint_dirty_policy_src ~seed)
          with
          | Ok p -> p
          | Error e -> QCheck.Test.fail_reportf "policy parse: %s" e
        in
        let mf = Lint.lint_manifest m and pf = Lint.lint_policy p in
        List.for_all
          (fun r -> Lint.has_rule r mf)
          [ Lint.Unsatisfiable_filter; Lint.Vacuous_filter;
            Lint.Shadowed_clause; Lint.Redundant_refinement ]
        && List.for_all
             (fun r -> Lint.has_rule r pf)
             [ Lint.Dead_binding; Lint.Self_meet_join;
               Lint.Overlapping_exclusive ]);
    QCheck.Test.make ~count:100
      ~name:"clause rules report once per permission (per-clause oracle)"
      clause_oracle_manifest clause_rules_once_per_permission ]

let suite =
  [ Alcotest.test_case "rule ids and severities" `Quick test_rule_ids;
    Alcotest.test_case "unsatisfiable filter" `Quick test_unsatisfiable;
    Alcotest.test_case "vacuous filter" `Quick test_vacuous;
    Alcotest.test_case "shadowed clause" `Quick test_shadowed;
    Alcotest.test_case "redundant refinement" `Quick test_redundant;
    Alcotest.test_case "over-privilege audit" `Quick test_over_privilege;
    Alcotest.test_case "dead bindings" `Quick test_dead_binding;
    Alcotest.test_case "self MEET/JOIN" `Quick test_self_meet_join;
    Alcotest.test_case "overlapping EITHER" `Quick test_overlapping_exclusive;
    Alcotest.test_case "witness-bearing findings and gate_count" `Quick
      test_witnesses_and_gate_count;
    Alcotest.test_case "rule toggles" `Quick test_rule_toggle;
    Alcotest.test_case "budget degrades to Info" `Quick
      test_budget_degrades_to_info;
    Alcotest.test_case "counters reach telemetry" `Quick
      test_counters_reach_telemetry;
    Alcotest.test_case "SARIF round-trip" `Quick test_sarif_roundtrip;
    Alcotest.test_case "one market admission lints once" `Quick
      test_admission_lints_once;
    Alcotest.test_case "pipeline sees app stubs as live" `Quick
      test_vet_and_reconcile_counts_stubs_live ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
  @ [ Alcotest.test_case "unsatisfiable filter counts its clauses" `Quick
        test_unsatisfiable_counts_clauses ]
