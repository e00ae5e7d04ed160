(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§IX), plus the ablations called out in
   DESIGN.md.

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- fig5     # one experiment

   Experiments: table1 effectiveness reconciliation fig5 fig6 fig7 fig8
                reconcile-perf automaton-lab automaton-smoke
                faults faults-smoke vetting-lab
                vet-smoke lint-lab lint-smoke verify-lab verify-smoke
                diff-lab diff-smoke trace-lab obs-smoke health-smoke
                market-lab market-smoke
                ablation-compile ablation-isolation ablation-inclusion *)

let experiments : (string * (unit -> unit)) list =
  [ ("table1", Table1.run);
    ("effectiveness", Effectiveness.run_attacks);
    ("reconciliation", Effectiveness.run_reconciliation);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("reconcile-perf", Reconcile_perf.run);
    ("automaton-lab", Automaton_lab.run);
    ("automaton-smoke", Automaton_lab.smoke);
    ("faults", Fault_lab.run);
    ("faults-smoke", Fault_lab.smoke);
    ("vetting-lab", Vetting_lab.run);
    ("vet-smoke", Vetting_lab.smoke);
    ("lint-lab", Lint_lab.run);
    ("lint-smoke", Lint_lab.smoke);
    ("verify-lab", Verify_lab.run);
    ("verify-smoke", Verify_lab.smoke);
    ("diff-lab", Diff_lab.run);
    ("diff-smoke", Diff_lab.smoke);
    ("trace-lab", Trace_lab.run);
    ("obs-smoke", Trace_lab.smoke);
    ("health-smoke", Health_lab.smoke);
    ("market-lab", Market_lab.run);
    ("market-smoke", Market_lab.smoke);
    ("ablation-compile", Ablations.run_compile);
    ("ablation-isolation", Ablations.run_isolation);
    ("ablation-inclusion", Ablations.run_inclusion) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] | [ "all" ] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Fmt.epr "unknown experiment %S; available: %s@." name
            (String.concat ", " (List.map fst experiments));
          exit 2)
      names
