(** Admission vetting for untrusted manifests and policies
    (docs/VETTING.md).

    App manifests and (in delegated deployments) policy fragments
    arrive from outside the trust boundary (§III threat model), so they
    must be vetted before the reconciliation engine or the runtime
    touches them.  Vetting runs the normal pipeline — lex, parse,
    structural checks, macro expansion, normal-form probing,
    reconciliation — under a {!Budget} scope and classifies the
    outcome:

    - [Admitted]: every stage completed exactly, within budget.
    - [Degraded]: the input was admitted, but at least one stage took a
      conservative, fail-closed fallback (normal-form blow-up answered
      pessimistically, macro chain left unexpanded, policy statement
      skipped as a {!Reconcile.action.Policy_error}).  The notes say
      which.
    - [Rejected]: the input exhausted its budget or failed to parse.
      The pipeline never hangs, never exhausts the heap, and never
      lets an exception escape — hostile inputs cost a bounded amount
      of work and yield a structured report.

    Verdicts are counted per stage in the
    {!Shield_controller.Metrics} counter registry (names
    [vet-admitted], [vet-degraded], [vet-rejected],
    [vet-rejected:<stage>]) so operators can see admission pressure
    next to memo and queue metrics. *)

type rejection = Budget.failure = {
  stage : string;
      (** Pipeline stage that cut the input off: ["parse"],
          ["structure"], ["expand"], ["normalize"] or ["reconcile"]. *)
  reason : string;
  spent : Budget.spent;  (** Resources consumed up to the cut-off. *)
}

type 'a verdict =
  | Admitted of 'a
  | Degraded of 'a * string list
      (** Usable result, but conservative fallbacks were taken; the
          notes (oldest first) say which. *)
  | Rejected of rejection

val vet_manifest :
  ?limits:Budget.limits -> string -> Perm.manifest verdict
(** Vet manifest source text: lex + parse (grammar nesting capped),
    structural caps (expression depth and size), and a normal-form
    probe of every filter.  Unexpanded developer stubs are normal at
    this stage (the policy binds them) and do not degrade the
    verdict.  Never raises. *)

val vet_manifest_ast :
  ?limits:Budget.limits -> Perm.manifest -> Perm.manifest verdict
(** Vet an already-built AST (apps handed over a typed API rather than
    source text): the same pipeline minus the parse stage.  Safe on
    adversarially deep expressions — structural checks are iterative.
    Never raises. *)

val vet_policy : ?limits:Budget.limits -> string -> Policy.t verdict
(** Vet policy source text: parse, structural caps on every embedded
    filter and permission block, and a static reference check —
    variables used in assertions but bound by no [LET] degrade the
    verdict (reconciliation will report them as
    {!Reconcile.action.Policy_error}).  Never raises. *)

type reconciled = {
  report : Reconcile.report;
  lint : Lint.finding list;
      (** Advisory shield-lint findings (docs/LINTING.md): the policy
          findings, with the app manifests' stub macros counted as
          live bindings, then each app's manifest findings (locations
          prefixed ["app <name>"]).  Lint runs under its own nested
          budget scope, so findings never change the verdict: an
          analysis that exhausts its budget degrades to [Info]
          "unverified" findings, not to a [Degraded]/[Rejected]
          verdict. *)
  certificate : Verify.certificate;
      (** shield-verify certificate over the reconciled manifests
          (docs/VERIFY.md).  Advisory like lint: a [Refuted] or
          [Unverified] certificate rides along for the administrator
          (and the CLI's [verify --deny]) without flipping the
          verdict.  Verification runs under its own nested scope with
          this admission's limits, so it can never reject the
          input. *)
}

val vet_and_reconcile :
  ?limits:Budget.limits ->
  apps:(string * string) list ->
  string ->
  reconciled verdict
(** [vet_and_reconcile ~apps policy_src] — the full offline pipeline
    behind the CLI's [vet --policy] and [verify]: vet each app's
    manifest source and the policy source, run {!Reconcile.run} under
    the same budget, then lint and certify the result.
    [Degraded] when any stage fell back conservatively or any policy
    statement was skipped as a [Policy_error]; violations that the
    engine repaired are part of the admitted report, not a
    degradation.  Never raises. *)

(** {1 Metrics} *)

type stats = {
  admitted : int;
  degraded : int;
  rejected : int;
  rejected_by_stage : (string * int) list;  (** Sorted by stage name. *)
}

val stats : unit -> stats
(** Process-wide verdict counts since start (or {!reset_stats}), read
    from the {!Shield_controller.Metrics} counters [vet-admitted],
    [vet-degraded], [vet-rejected] and [vet-rejected:<stage>]. *)

val reset_stats : unit -> unit

val pp_rejection : Format.formatter -> rejection -> unit
val pp_stats : Format.formatter -> stats -> unit

val verdict_label : 'a verdict -> string
(** ["admitted"], ["degraded"] or ["rejected"] — for logs and CLIs. *)
