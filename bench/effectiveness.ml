(* §IX-B1 effectiveness experiments, both run by [Shield_apps.Threats].

   1. The four proof-of-concept malicious apps run on the original
      (unprotected) controller and on the SDNShield-enabled controller
      with the §VII scenario permissions.  Paper: "original Floodlight
      is vulnerable to all the attacks, while SDNShield-enabled
      Floodlight is immune to all of them."

   2. Reconciliation effectiveness: an over-privileged manifest is
      checked against one attack-pattern policy template per class.
      Paper: "the over-privilege problem can be effectively prevented
      ... the only exception is apps that essentially require access
      to the resources that enable certain attacks."  A threat counts
      as removed when shield-verify refutes the raw manifest and
      certifies the reconciled one. *)

open Shield_apps

let run_attacks () =
  Bench_util.hr "Effectiveness: PoC malicious apps (baseline vs SDNShield)";
  let rows =
    List.map
      (fun cls ->
        [ Threats.class_name cls;
          Threats.outcome_name (Threats.run cls Threats.No_defense).outcome;
          Threats.outcome_name (Threats.run cls Threats.Sdnshield_scenario).outcome ])
      Threats.classes
  in
  Bench_util.table [ "attack"; "original controller"; "SDNShield" ] rows;
  Fmt.pr "@.paper: baseline vulnerable to all four; SDNShield immune to all.@."

let run_reconciliation () =
  Bench_util.hr
    "Effectiveness: reconciliation of over-privileged manifests";
  let rows =
    List.map
      (fun (t : Threats.template) ->
        let r = Threats.reconcile_template t in
        [ t.label;
          string_of_int (List.length r.report.violations);
          Printf.sprintf "%d -> %d"
            (List.length Threats.greedy_manifest)
            (List.length r.reconciled);
          (if Threats.threat_removed r then "yes" else "NO") ])
      Threats.templates
  in
  Bench_util.table
    [ "policy template"; "violations"; "tokens before -> after"; "threat removed?" ]
    rows;
  Fmt.pr
    "@.paper: over-privilege is cut back by the policies; apps that\n\
     inherently need attack-enabling resources (e.g. forwarding apps\n\
     inserting rules) remain the acknowledged limitation of access control.@."
