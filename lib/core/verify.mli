(** shield-verify — post-reconciliation certification (docs/VERIFY.md).

    Reconciliation {e repairs} manifests; nothing in the repair path
    proves the result actually satisfies the policy.  This pass
    re-derives every [ASSERT] obligation over the filter lattice
    (reusing {!Diff}'s sound-inclusion + witness-synthesis engine under
    the ambient {!Budget} fail-degraded discipline) and classifies
    each:

    - {b holds} — provable by Algorithm 1's sound inclusion (or, for
      mutual exclusions, by a provably empty overlap).  Because the
      lattice procedure is deliberately incomplete, only its {e
      positive} answers are trusted; a negative answer alone never
      refutes.
    - {b refuted} — a {e concrete counterexample call} was synthesized
      and semantically confirmed by {!Filter_eval}: the call is
      admitted by the manifest side yet escapes the bound (or, for
      exclusions, one call per exclusive set is admitted).  Every
      witness is additionally replayed through the deployed {!Engine}
      — a standing differential test of its automaton against the
      interpreter.
    - {b unknown} — neither provable nor witnessed (incompleteness,
      budget exhaustion, [Nf.Too_large] degradation, policy evaluation
      error).  Unknown never certifies: the overall verdict degrades
      to [Unverified], exactly as Vetting fails closed.

    Negated obligations are evaluated in three-valued (Kleene) logic:
    the lattice's conservative [false] must not flip into a false
    [Certified] under [NOT], so only semantically confirmed
    refutations and sound positive proofs propagate through negation;
    everything else stays unknown.

    Orthogonally to the verdict, the certificate carries a
    {b minimality} dimension over the reconciliation repairs (the
    least-repair check; docs/VERIFY.md "Minimality"): each truncation
    is compared against the least repair the lattice admits —
    MEET(original, boundary) for boundary violations, original minus
    the second exclusive set for exclusions — via {!Diff.diff}.
    [Minimal] means every gap is provably empty; [Slack] carries
    confirmed calls the repair stripped although the policy would have
    allowed them; everything else fails closed to
    [Unknown_minimality].

    The pass never raises: internal errors, stack overflow and budget
    exhaustion all surface as [Unverified] (and
    [Unknown_minimality]). *)

open Shield_controller

(** One semantically confirmed counterexample call. *)
type witness = {
  token : Token.t;
  call : Api.call;
  admitted_by : Perm.manifest;
      (** Manifest whose filter {!Filter_eval} confirmed admits
          [call] (under {!Filter_eval.pure_env}); for slack witnesses,
          the least repair. *)
  escapes : Perm.manifest option;
      (** The bound the call provably escapes ([None] for
          mutual-exclusion witnesses, which are admitted by both
          sides instead); for slack witnesses, the over-truncated
          repaired manifest. *)
  explanation : string;  (** Deciding clauses, via {!Filter_eval.explain}. *)
}

type counterexample = {
  stmt : Policy.stmt;
  app : string option;  (** Offending app, when the obligation names one. *)
  witnesses : witness list;  (** Nonempty; two for exclusivity (one per set). *)
  detail : string;
}

type status =
  | Holds
  | Refuted_by of counterexample list  (** Nonempty. *)
  | Unknown of string

type obligation = {
  index : int;  (** Statement position in the policy. *)
  stmt : Policy.stmt;
  status : status;
}

(** Least-repair certification over the reconciliation's truncation
    repairs, folded across all of them (three-valued; [Slack]
    dominates, then [Unknown_minimality], then [Minimal]). *)
type minimality =
  | Minimal
      (** Every truncation's gap against its least repair is provably
          empty ({!Diff.diff} = [Empty]); vacuously so when no repair
          was performed. *)
  | Slack of witness list
      (** Confirmed calls ({!Diff.dedup}-bounded) allowed by the least
          repair but denied by the actual repaired manifest — repair
          stripped behaviour the policy would have kept. *)
  | Unknown_minimality of string
      (** Fail-closed: some gap was neither provably empty nor
          witnessed (incompleteness, budget exhaustion, policy
          evaluation error). *)

(** Results of the semantic cross-checks run over the synthesized
    calls (see docs/VERIFY.md). *)
type crosscheck = {
  replayed : int;
      (** Witness-side replays performed through {!Engine}
          (counterexample and slack witnesses alike). *)
  checkers_agree : bool;
      (** {!Engine} matched the {!Filter_eval} expectation on every
          replay.  A manifest {!Engine.create} rejects replays nothing
          and leaves a note instead. *)
  infer_consistent : bool;
      (** {!Infer.of_trace} over calls admitted by each app's manifest
          produced a least-privilege manifest that re-admits every one
          of those calls (the inference guarantee, checked live). *)
  infer_traced : int;  (** Calls fed to the inference cross-check. *)
  crosscheck_notes : string list;
}

type verdict =
  | Certified
  | Refuted of counterexample list  (** Nonempty, in policy order. *)
  | Unverified of string

type certificate = {
  verdict : verdict;
  minimality : minimality;
      (** Advisory least-repair dimension; does not gate the verdict
          (promote it in CI with [verify --deny --minimal]). *)
  obligations : obligation list;  (** One per [ASSERT] statement. *)
  crosscheck : crosscheck;
  spent : Budget.spent;
  notes : string list;  (** Budget degradation notes (oldest first). *)
}

val verify :
  ?limits:Budget.limits ->
  ?repairs:Reconcile.violation list ->
  apps:(string * Perm.manifest) list ->
  Policy.t ->
  certificate
(** Certify that [apps]' manifests satisfy every [ASSERT] /
    [ASSERT EITHER] obligation of the policy.  [repairs] (default
    none) are the reconciliation violations whose truncations the
    minimality dimension audits.  Installs its own nested {!Budget}
    scope (default {!Budget.default_limits}), so a caller already
    inside a scope — {!Vetting} — degrades to [Unverified] without
    burning its own admission budget.  Never raises. *)

val verify_report : ?limits:Budget.limits -> Policy.t -> Reconcile.report -> certificate
(** {!verify} over a reconciliation report's repaired manifests and
    recorded repairs — the "did repair actually work, and did it take
    no more than needed?" entry point.  Unresolved stub macros are
    noted (their atoms deny-closed under evaluation). *)

val certified : certificate -> bool

val verdict_label : certificate -> string
(** ["certified"], ["refuted"] or ["unverified"]. *)

val minimality_label : certificate -> string
(** ["minimal"], ["slack"] or ["unknown"]. *)

val json_of_certificate : certificate -> Telemetry.Json.t
(** Machine-readable rendering for the CLI's [--json] and CI. *)

val pp_witness : Format.formatter -> witness -> unit
val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_minimality : Format.formatter -> minimality -> unit
val pp_certificate : Format.formatter -> certificate -> unit

(** {1 Metrics} — process-wide per-verdict counts, kept in the
    {!Shield_controller.Metrics} counters [verify-certified] /
    [verify-refuted] / [verify-unverified] and [verify-minimal] /
    [verify-slack] / [verify-unknown-minimality], so they ride into the
    {!Telemetry} snapshot. *)

type stats = {
  certified_n : int;
  refuted_n : int;
  unverified_n : int;
  minimal_n : int;
  slack_n : int;
  unknown_minimality_n : int;
}

val stats : unit -> stats
val reset_stats : unit -> unit
