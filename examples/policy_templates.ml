(* Security-policy templates, one per attack class of the threat model
   (§II) — the paper suggests distributing exactly such templates "so
   as to lower the hurdle to have basic protection" (§III).

   The example applies each template of [Threats.templates] to a
   deliberately over-privileged manifest, prints what reconciliation
   does to it, and how shield-verify judges the manifest before and
   after the repair.

   Run with: dune exec examples/policy_templates.exe *)

open Shield_apps
open Sdnshield

let () =
  let greedy = Threats.greedy_manifest in
  Fmt.pr "=== Over-privileged manifest ===@.%a@.@." Perm.pp greedy;
  List.iter
    (fun (t : Threats.template) ->
      let r = Threats.reconcile_template t in
      Fmt.pr "==================================================@.";
      Fmt.pr "Template: %s@.%s@.@." t.label t.intent;
      Fmt.pr "--- Policy ---@.%s@.@." t.policy_src;
      List.iter
        (fun v -> Fmt.pr "violation: %s@." v.Reconcile.message)
        r.report.violations;
      Fmt.pr "@.--- Reconciled manifest ---@.%a@.@." Perm.pp r.reconciled;
      Fmt.pr "tokens kept: %d of %d@." (List.length r.reconciled)
        (List.length greedy);
      Fmt.pr "verify: raw %s, reconciled %s, repair %s@.@."
        (Verify.verdict_label r.raw)
        (Verify.verdict_label r.certificate)
        (Verify.minimality_label r.certificate))
    Threats.templates
