(* Table I — attack protection coverage of existing SDN security
   approaches vs SDNShield.

   Paper claim: traffic isolation protects none of the four classes
   when attacker and victim apps share a slice; network state analysis
   detects (only) the rule-manipulation classes; SDNShield, with proper
   permissions, protects all four.  The cells come from
   [Shield_apps.Threats.table]; test/test_attacks.ml asserts them. *)

open Shield_apps

let run () =
  Bench_util.hr "Table I: attack protection coverage";
  Bench_util.table
    ("attack class" :: List.map Threats.defense_name Threats.defenses)
    (List.map
       (fun (cls, outcomes) ->
         Threats.class_name cls :: List.map Threats.outcome_name outcomes)
       (Threats.table ()));
  Fmt.pr
    "@.paper: slicing covers none of the four (same-slice attacker);@.";
  Fmt.pr "       state analysis flags only classes 3-4; SDNShield covers all.@."
