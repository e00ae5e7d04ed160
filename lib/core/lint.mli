(** Shield-lint — semantic static analysis of manifests and policies
    (docs/LINTING.md).

    The reconciliation engine (§V) only reacts to violations it can
    prove; it says nothing about manifests that are wasteful, vacuous
    or internally contradictory, and administrators find out at
    enforcement time.  This pass turns the existing building blocks —
    CNF/DNF normal forms ({!Nf}), sound inclusion ({!Inclusion}),
    least-privilege inference ({!Infer}) — into pre-deployment
    diagnostics: structured findings with a rule id, a severity, a
    location and a suggested fix.

    Lint is {e advisory}: it never rejects an input and never raises.
    Every entry point installs its own {!Budget} scope and follows the
    same fail-degraded discipline as admission vetting — a rule whose
    analysis blows past the budget (normal-form [Too_large], step/
    clause/deadline exhaustion) reports an [Info] "unverified" finding
    for that rule instead of crashing or hanging, and the remaining
    rules still run.

    Findings (so, for a clause-level rule, permissions) are counted per
    rule and severity in the {!Shield_controller.Metrics} counter
    registry (names [lint-error:<rule>], [lint-warn:<rule>],
    [lint-info:<rule>]), so lint pressure shows up in
    [Telemetry.snapshot], the Prometheus export and [Runtime.pp_report]
    next to admission verdicts. *)

(** {1 Rule catalogue} *)

type rule =
  | Unsatisfiable_filter
      (** A conjunctive (DNF) clause of a permission filter demands two
          range-disjoint singletons on the same dimension
          ({!Inclusion.singleton_disjoint}) or complementary literals:
          no call that actually carries the dimension can satisfy it. *)
  | Vacuous_filter
      (** A non-trivial filter (or one of its CNF clauses) is implied
          by [true] — e.g. [x OR NOT x] after normalisation — so the
          refinement does not restrict anything. *)
  | Shadowed_clause
      (** A DNF clause of a filter is included by an earlier clause of
          the same expression: dead syntax that cannot change the
          decision. *)
  | Redundant_refinement
      (** A token's filter only inspects dimensions that calls under
          that token never carry; under the vacuous-pass convention
          (§IV-B) every call passes, so the grant is effectively
          unrestricted while looking restricted. *)
  | Over_privilege
      (** The manifest strictly exceeds the least-privilege manifest
          {!Infer.of_trace} synthesises from a supplied behaviour
          trace: tokens never used, or filters strictly wider than the
          observed envelope.  Only runs when a trace is supplied. *)
  | Dead_binding
      (** A policy [LET] binding (permission set, app reference or
          stub macro) that no later statement — and, if supplied, no
          app manifest — ever references. *)
  | Self_meet_join
      (** [x MEET x] / [x JOIN x]: a lattice operation whose operands
          are the same expression is a no-op. *)
  | Overlapping_exclusive
      (** The two sides of [ASSERT EITHER p OR q] share allowed
          behaviour; reconciliation would silently truncate the
          overlap from whichever app possesses the second side. *)

val all_rules : rule list
(** Catalogue order — the order findings are produced in. *)

val rule_id : rule -> string
(** Stable kebab-case id, e.g. ["unsatisfiable-filter"]. *)

val rule_of_id : string -> rule option
val rule_doc : rule -> string
(** One-line description (SARIF rule metadata, [--help]). *)

(** {1 Findings} *)

type severity = Error | Warn | Info

val severity_label : severity -> string
(** ["error"], ["warn"], ["info"]. *)

val severity_of_label : string -> severity option

type finding = {
  rule : rule;
  severity : severity;
  location : string;
      (** Human-readable anchor, e.g. ["PERM insert_flow, clause 3"]
          or ["statement 2 (LET x = ...)"]. *)
  message : string;
  suggestion : string option;
  witnesses : Diff.witness list;
      (** Concrete calls confirming the claim, where the {!Diff}
          engine could synthesize them — a call admitted by the grant
          but outside the least-privilege envelope
          ([Over_privilege]), or admitted by both [EITHER] sides
          ([Overlapping_exclusive]).  Deduplicated and capped
          ({!Diff.dedup}); empty when the rule's claim is purely
          lattice-derived or witness synthesis degraded under the
          budget. *)
}

val count : severity -> finding list -> int

val gate_count : severity -> finding list -> int
(** Like {!count}, but witness-bearing findings collapse to one per
    rule — the number a CI [--deny] gate should key on, so upgrading
    a rule's findings with witness calls can never flip an existing
    gate. *)

val max_severity : finding list -> severity option
val has_rule : rule -> finding list -> bool

(** {1 Analysis passes}

    Both passes never raise and are deterministic.  [limits] bounds
    the whole pass (default {!Budget.default_limits}); the scope is
    installed internally, so callers inside another budget scope (the
    vetting pipeline) are not charged for lint work. *)

val lint_manifest :
  ?rules:rule list ->
  ?limits:Budget.limits ->
  ?label:string ->
  ?trace:Shield_controller.Api.call list ->
  Perm.manifest ->
  finding list
(** Run the manifest rules.  [label] prefixes every location (used by
    {!Vetting.vet_and_reconcile} to name the app).  [trace] enables the
    over-privilege audit against {!Infer.of_trace}[ trace].

    The clause-level rules ([Unsatisfiable_filter], [Vacuous_filter],
    [Shadowed_clause]) report at most once per permission: the first
    offending normal-form clause's finding, whose message ends with
    [" (<k> of <n> DNF clauses)"] ([CNF] for [Vacuous_filter]) when
    [k > 1] of the [n] clauses offend. *)

val lint_policy :
  ?rules:rule list ->
  ?limits:Budget.limits ->
  ?manifest_macros:string list ->
  Policy.t ->
  finding list
(** Run the policy rules.  [manifest_macros] lists the developer stubs
    appearing in the app manifests this policy will bind: a filter-
    macro [LET] in that list is live even if the policy itself never
    references it.  Without it, unreferenced filter macros report at
    [Info] (the manifests are unseen) instead of [Warn]. *)

(** {1 Counters} *)

val stats : unit -> (string * int) list
(** Per-rule/severity finding counts since start (or
    {!reset_counters}), sorted by name: the
    [lint-<severity>:<rule>] {!Shield_controller.Metrics} counters. *)

val reset_counters : unit -> unit

(** {1 Rendering} *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> finding list -> unit

val to_sarif : ?uri:string -> finding list -> string
(** SARIF-shaped JSON (one run, driver ["shield-lint"], rule metadata
    for every catalogue rule, one result per finding with the location
    as a logical location).  Round-trips through
    {!Shield_controller.Telemetry.Json.of_string}. *)
