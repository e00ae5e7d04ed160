(* Tests for the admission-vetting pipeline (docs/VETTING.md): budget
   accounting, hostile-input containment, macro-expansion fixed points,
   per-statement policy-error isolation, and the positioned parse
   errors the pipeline reports. *)

open Sdnshield
module Hostile = Shield_workload.Hostile_gen
module Prng = Shield_workload.Prng

let filter = Test_util.filter_exn

let clean_manifest_src =
  "PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0\n\
   PERM read_statistics"

let label v = Vetting.verdict_label v

(* Substring check (avoids an astring dependency). *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let rejection_of = function
  | Vetting.Rejected r -> r
  | v -> Alcotest.failf "expected rejection, got %s" (label v)

(* Verdict classification ------------------------------------------------------ *)

let test_clean_admitted () =
  match Vetting.vet_manifest clean_manifest_src with
  | Vetting.Admitted m ->
    Alcotest.(check int) "two permissions" 2 (List.length m);
    Alcotest.(check int) "clean manifest has no lint findings" 0
      (List.length (Lint.lint_manifest m))
  | v -> Alcotest.failf "expected admitted, got %s" (label v)

let test_depth_bomb_rejected () =
  let r =
    rejection_of (Vetting.vet_manifest (Hostile.depth_bomb_src ~depth:100_000))
  in
  Alcotest.(check string) "stage" "parse" r.Vetting.stage;
  let r =
    rejection_of (Vetting.vet_manifest (Hostile.paren_bomb_src ~depth:100_000))
  in
  Alcotest.(check string) "paren stage" "parse" r.Vetting.stage

let test_ast_depth_bomb_rejected () =
  let r =
    rejection_of
      (Vetting.vet_manifest_ast
         (Hostile.manifest_of_filter (Hostile.ast_depth_bomb ~depth:100_000)))
  in
  Alcotest.(check string) "stage" "structure" r.Vetting.stage;
  Alcotest.(check bool) "depth spent recorded" true
    (r.Vetting.spent.Budget.depth_hwm > 2_000)

let test_garbage_rejected () =
  for seed = 1 to 10 do
    let r =
      rejection_of (Vetting.vet_manifest (Hostile.garbage ~seed ~len:2048))
    in
    Alcotest.(check string) "stage" "parse" r.Vetting.stage
  done

let test_cross_bomb_degraded () =
  match
    Vetting.vet_manifest_ast
      (Hostile.manifest_of_filter (Hostile.cross_bomb ~atoms:512))
  with
  | Vetting.Degraded (_, notes) ->
    Alcotest.(check bool) "mentions fail-closed fallback" true
      (List.exists
         (fun n ->
           contains ~affix:"fail-closed" n
           || contains ~affix:"blow-up" n)
         notes)
  | v -> Alcotest.failf "expected degraded, got %s" (label v)

let test_budget_exhaustion_rejected () =
  let limits = { Budget.default_limits with Budget.max_steps = 8 } in
  let r = rejection_of (Vetting.vet_manifest ~limits clean_manifest_src) in
  Alcotest.(check bool) "steps spent at the cap" true
    (r.Vetting.spent.Budget.steps > 8);
  Alcotest.(check bool) "reason names the budget" true
    (contains ~affix:"step budget" r.Vetting.reason)

(* The one exception barrier: every class an admission analysis can
   raise comes back as a fail-closed reason, never as a raise. *)
let test_budget_barrier_absorbs_every_class () =
  let limits = { Budget.default_limits with Budget.max_steps = 4 } in
  let absorbed what raise_it =
    Budget.with_scope (Budget.create ~limits ()) (fun () ->
        Budget.set_stage "probe";
        match Budget.absorb raise_it with
        | Ok () -> Alcotest.failf "%s: absorbed as a success" what
        | Error f -> f
        | exception exn ->
          Alcotest.failf "%s escaped the barrier: %s" what
            (Printexc.to_string exn))
  in
  let reason_of what raise_it = (absorbed what raise_it).Budget.reason in
  let exhausted =
    absorbed "exhaustion" (fun () ->
        Budget.set_stage "normalize";
        for _ = 1 to 10 do Budget.step () done)
  in
  Alcotest.(check string) "exhaustion keeps its stage" "normalize"
    exhausted.Budget.stage;
  Alcotest.(check bool) "exhaustion keeps its spent budget" true
    (exhausted.Budget.spent.Budget.steps > 4);
  Alcotest.(check string) "exhaustion"
    "budget exhausted: step budget exceeded (4)" exhausted.Budget.reason;
  Alcotest.(check string) "normal-form blow-up" "normal form too large"
    (reason_of "Nf.Too_large" (fun () -> raise Nf.Too_large));
  Alcotest.(check string) "stack overflow"
    "stack overflow (unbudgeted recursion)"
    (reason_of "Stack_overflow" (fun () -> raise Stack_overflow));
  Alcotest.(check string) "out of memory" "out of memory (unbudgeted allocation)"
    (reason_of "Out_of_memory" (fun () -> raise Out_of_memory));
  Alcotest.(check string) "injected fault" "injected fault at swap-verify"
    (reason_of "Injected"
       (fun () -> raise (Shield_controller.Faults.Injected "swap-verify")));
  Alcotest.(check string) "a refusal keeps its message" "not installed: a"
    (reason_of "Failure" (fun () -> failwith "not installed: a"));
  let other = absorbed "Not_found" (fun () -> raise Not_found) in
  Alcotest.(check string) "anything else" "internal error: Not_found"
    other.Budget.reason;
  Alcotest.(check string) "the failure names the scope's stage" "probe"
    other.Budget.stage;
  match Budget.absorb (fun () -> raise Exit) with
  | Error f ->
    Alcotest.(check string) "no scope, no stage" "?" f.Budget.stage
  | Ok () -> Alcotest.fail "Exit absorbed as a success"

let test_never_raises_without_scope () =
  (* Production code paths must stay untouched when no budget scope is
     installed: a plain parse of a (small) bomb fails with Error, not
     an exception, and conversion guards still work. *)
  (match Perm_parser.manifest_of_string (Hostile.depth_bomb_src ~depth:5_000) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth bomb parsed");
  match Nf.dnf (Hostile.cross_bomb ~atoms:256) with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Nf.Too_large -> ()

(* Macro expansion (fixed point, cycles, bombs) -------------------------------- *)

let test_macro_chain_expands () =
  (* LET chains A -> B -> C must resolve fully, not report B as an
     unresolved stub. *)
  let policy =
    "LET A = { B }\n\
     LET B = { C }\n\
     LET C = { IP_DST 10.1.0.0 MASK 255.255.0.0 }"
  in
  match
    Reconcile.run_strings ~app_name:"app"
      ~manifest_src:"PERM insert_flow LIMITING A" ~policy_src:policy
  with
  | Error e -> Alcotest.fail e
  | Ok (final, report) ->
    Alcotest.(check (list (pair string (list string))))
      "no unresolved stubs" [] report.Reconcile.unresolved_macros;
    Alcotest.(check bool) "fully concrete" false
      (List.exists
         (fun (p : Perm.t) -> Filter.has_macros p.Perm.filter)
         final)

let test_macro_cycle_fail_closed () =
  let lookup = function
    | "a" -> Some (filter "b")
    | "b" -> Some (filter "a")
    | _ -> None
  in
  let e = Filter.expand_macros lookup (filter "a") in
  Alcotest.(check bool) "cycle left as stub" true (Filter.has_macros e)

let test_macro_bomb_degrades () =
  let manifest_src, policy_src = Hostile.macro_chain_bomb ~links:48 in
  match Vetting.vet_and_reconcile ~apps:[ ("bomb", manifest_src) ] policy_src with
  | Vetting.Degraded ({ Vetting.report; _ }, notes) ->
    Alcotest.(check bool) "notes the node cap" true
      (List.exists (contains ~affix:"node cap") notes);
    Alcotest.(check bool) "stubs reported unresolved" true
      (report.Reconcile.unresolved_macros <> [])
  | v -> Alcotest.failf "expected degraded, got %s" (label v)

(* Policy errors are violations, not exceptions (satellite 3) ------------------ *)

let find_policy_errors (report : Reconcile.report) =
  List.filter
    (fun (v : Reconcile.violation) ->
      v.Reconcile.action = Reconcile.Policy_error)
    report.Reconcile.violations

let test_unbound_variable_is_violation () =
  let policy =
    "ASSERT ghost <= { PERM insert_flow }\n\
     LET a = APP app\n\
     ASSERT a <= { PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK \
     255.255.0.0 }"
  in
  match
    Reconcile.run_strings ~app_name:"app"
      ~manifest_src:"PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0"
      ~policy_src:policy
  with
  | Error e -> Alcotest.fail e
  | Ok (_, report) ->
    (match find_policy_errors report with
    | [ v ] ->
      Alcotest.(check bool) "names the variable" true
        (contains ~affix:"unbound variable ghost"
           v.Reconcile.message)
    | vs -> Alcotest.failf "expected 1 policy error, got %d" (List.length vs));
    (* The bad statement must not abort the rest: the boundary assert
       after it still repaired the manifest. *)
    Alcotest.(check bool) "later statement still repaired" true
      (List.exists
         (fun (v : Reconcile.violation) ->
           v.Reconcile.action = Reconcile.Truncated_to_boundary)
         report.Reconcile.violations)

let test_macro_as_perm_set_is_violation () =
  let policy =
    "LET f = { IP_DST 10.0.0.0 MASK 255.0.0.0 }\n\
     LET a = APP app\n\
     ASSERT f <= a"
  in
  match
    Reconcile.run_strings ~app_name:"app" ~manifest_src:"PERM read_statistics"
      ~policy_src:policy
  with
  | Error e -> Alcotest.fail e
  | Ok (_, report) -> (
    match find_policy_errors report with
    | [ v ] ->
      Alcotest.(check bool) "names the confusion" true
        (contains ~affix:"filter macro, not a permission set"
           v.Reconcile.message)
    | vs -> Alcotest.failf "expected 1 policy error, got %d" (List.length vs))

let test_cyclic_binding_is_violation () =
  let policy =
    "LET x = y\nLET y = x\nASSERT x <= { PERM insert_flow }"
  in
  match
    Reconcile.run_strings ~app_name:"app" ~manifest_src:"PERM read_statistics"
      ~policy_src:policy
  with
  | Error e -> Alcotest.fail e
  | Ok (_, report) ->
    Alcotest.(check bool) "cycle reported" true
      (List.exists
         (fun (v : Reconcile.violation) ->
           contains ~affix:"cyclic binding" v.Reconcile.message)
         (find_policy_errors report))

let test_vet_policy_flags_unbound () =
  match Vetting.vet_policy "ASSERT ghost <= { PERM insert_flow }" with
  | Vetting.Degraded (_, notes) ->
    Alcotest.(check bool) "note names ghost" true
      (List.exists (contains ~affix:"ghost") notes)
  | v -> Alcotest.failf "expected degraded, got %s" (label v)

(* Positioned parse errors (satellite 4) --------------------------------------- *)

let test_parse_errors_carry_lines () =
  (match Perm_parser.manifest_of_string "PERM read_statistics\nPERM LIMITING" with
  | Ok _ -> Alcotest.fail "parsed"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "manifest error names line 2: %S" e)
      true
      (contains ~affix:"line 2" e));
  (match Perm_parser.filter_of_string "OWN_FLOWS AND\nAND" with
  | Ok _ -> Alcotest.fail "parsed"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "filter error names line 2: %S" e)
      true
      (contains ~affix:"line 2" e));
  match Policy_parser.of_string "LET a = APP app\nASSERT <= b" with
  | Ok _ -> Alcotest.fail "parsed"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "policy error names line 2: %S" e)
      true
      (contains ~affix:"line 2" e)

(* Normal-form caps ------------------------------------------------------------ *)

let test_width_cap () =
  let bomb = Hostile.width_bomb ~atoms:2_000 in
  (match Nf.dnf bomb with
  | _ -> Alcotest.fail "expected Too_large on width"
  | exception Nf.Too_large -> ());
  match Nf.dnf (Hostile.width_bomb ~atoms:1_000) with
  | [ clause ] -> Alcotest.(check int) "single wide clause" 1_000 (List.length clause)
  | clauses -> Alcotest.failf "expected 1 clause, got %d" (List.length clauses)

let test_cross_allocation_capped () =
  Nf.clear_memo ();
  let b = Budget.create () in
  (Budget.with_scope b (fun () ->
       match Nf.dnf (Hostile.cross_bomb ~atoms:512) with
       | _ -> Alcotest.fail "expected Too_large"
       | exception Nf.Too_large -> ()));
  Alcotest.(check bool) "allocation stopped at the cap" true
    ((Budget.spent b).Budget.clauses <= 4096)

(* Metrics --------------------------------------------------------------------- *)

let test_stats_count_verdicts () =
  Vetting.reset_stats ();
  ignore (Vetting.vet_manifest clean_manifest_src);
  ignore (Vetting.vet_manifest "PERM");
  ignore (Vetting.vet_manifest "PERM");
  let s = Vetting.stats () in
  Alcotest.(check int) "admitted" 1 s.Vetting.admitted;
  Alcotest.(check int) "rejected" 2 s.Vetting.rejected;
  Alcotest.(check (list (pair string int)))
    "by stage" [ ("parse", 2) ] s.Vetting.rejected_by_stage

(* Never-raises properties (qcheck) -------------------------------------------- *)

let qsuite =
  [ QCheck.Test.make ~count:500 ~name:"vet_manifest never raises on bytes"
      QCheck.(string_of_size Gen.(0 -- 512))
      (fun s ->
        match Vetting.vet_manifest s with
        | Vetting.Admitted _ | Vetting.Degraded _ | Vetting.Rejected _ -> true);
    QCheck.Test.make ~count:300
      ~name:"vet_manifest_ast never raises on hostile ASTs"
      QCheck.(pair small_int (int_bound 600))
      (fun (seed, size) ->
        let ast =
          Hostile.random_hostile_ast (Prng.of_int seed) ~size:(1 + size)
        in
        match Vetting.vet_manifest_ast (Hostile.manifest_of_filter ast) with
        | Vetting.Admitted _ | Vetting.Degraded _ | Vetting.Rejected _ -> true);
    QCheck.Test.make ~count:200 ~name:"vet_policy never raises on bytes"
      QCheck.(string_of_size Gen.(0 -- 512))
      (fun s ->
        match Vetting.vet_policy s with
        | Vetting.Admitted _ | Vetting.Degraded _ | Vetting.Rejected _ -> true) ]

let suite =
  [ Alcotest.test_case "clean manifest admitted" `Quick test_clean_admitted;
    Alcotest.test_case "depth bombs rejected at parse" `Quick
      test_depth_bomb_rejected;
    Alcotest.test_case "AST depth bomb rejected at structure" `Quick
      test_ast_depth_bomb_rejected;
    Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
    Alcotest.test_case "cross bomb degrades" `Quick test_cross_bomb_degraded;
    Alcotest.test_case "budget exhaustion rejects" `Quick
      test_budget_exhaustion_rejected;
    Alcotest.test_case "budget barrier absorbs every class" `Quick
      test_budget_barrier_absorbs_every_class;
    Alcotest.test_case "unscoped paths unaffected" `Quick
      test_never_raises_without_scope;
    Alcotest.test_case "macro chains expand to fixed point" `Quick
      test_macro_chain_expands;
    Alcotest.test_case "macro cycles fail closed" `Quick
      test_macro_cycle_fail_closed;
    Alcotest.test_case "macro bomb degrades" `Quick test_macro_bomb_degrades;
    Alcotest.test_case "unbound variable is a violation" `Quick
      test_unbound_variable_is_violation;
    Alcotest.test_case "macro-as-perm-set is a violation" `Quick
      test_macro_as_perm_set_is_violation;
    Alcotest.test_case "cyclic binding is a violation" `Quick
      test_cyclic_binding_is_violation;
    Alcotest.test_case "vet_policy flags unbound vars" `Quick
      test_vet_policy_flags_unbound;
    Alcotest.test_case "parse errors carry source lines" `Quick
      test_parse_errors_carry_lines;
    Alcotest.test_case "clause width capped" `Quick test_width_cap;
    Alcotest.test_case "cross allocation capped" `Quick
      test_cross_allocation_capped;
    Alcotest.test_case "verdict counters" `Quick test_stats_count_verdicts ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qsuite
