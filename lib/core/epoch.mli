(** Epoch-based live update of a running deployment (docs/CHURN.md).

    An SDN app market admits, upgrades and revokes apps while the
    controller mediates traffic.  This module makes that churn
    crash-safe and non-disruptive: every admitted app's {e reconciled
    manifest + compiled engine (decision automaton) + packaged
    checker} is one immutable {!record} published by a single
    atomic store into the app's slot.  Readers resolve the slot once
    per mediated call (via the {!Shield_controller.Api.checker}
    [snapshot] hook), so an in-flight call finishes entirely on the
    epoch it started on and a call issued after a swap sees entirely
    the new one — never a torn mix of old manifest and new automaton.

    Lifecycle requests run as staged transactions
    (vet → reconcile → lint → verify → compile → publish).  Any stage
    failure — budget exhaustion, a refuted certificate, an injected
    fault ({!Shield_controller.Faults} sites [Swap_verify],
    [Swap_compile], [Swap_publish]) — rolls the deployment back to the
    pre-transaction epoch: fail-{e safe} for existing traffic (the old
    records keep serving), fail-{e closed} for the new app (admission
    denied, surfaced through the market's audit notification).

    Re-reconciliation is {e delta} where the policy's dependency
    structure allows it: only statements whose free variables reach
    the changed app re-run, against the published fixed point of the
    other apps.  Inconclusive dependency analysis, or a delta run that
    would repair an app other than the changed one, falls back to
    whole-policy reconciliation from the original (pre-repair)
    manifests — see docs/CHURN.md for the exact soundness contract. *)

open Shield_net
open Shield_controller

(** One app's published state: everything a mediated call needs,
    assembled once at commit time and immutable thereafter. *)
type record = {
  epoch : int;  (** Global epoch at which this record was published. *)
  app : string;
  manifest : Perm.manifest;  (** Reconciled, macro-free. *)
  engine : Engine.t;
      (** Compiled checker: the manifest's {!Automaton} decision DAG
          and its ownership wiring. *)
  checker : Api.checker;  (** [Engine.checker engine], epoch-pinned. *)
}

(** An app's slot.  [Absent] is fail-closed: the slot's checker denies
    every call, carrying the reason (never installed / revoked). *)
type slot = Active of record | Absent of { epoch : int; reason : string }

type t

val create :
  ?limits:Budget.limits ->
  ?topo:Topology.t ->
  policy:string ->
  unit ->
  (t, string) result
(** Build a deployment around a policy (vetted once, by
    {!Vetting.vet_policy}; [Error] when it is rejected).  [limits]
    budget every transaction stage; [topo] is passed to each admitted
    app's {!Engine.create}.  The verify stage rolls a transaction back
    on a [Refuted] certificate; an [Unverified] one (the budget ran
    out) commits.

    Registers the [market:epoch] and [market:apps] gauges and the
    [market:reconcile:delta] and [market:reconcile:full] {!Metrics}
    counters; {!close} unregisters them. *)

val apply : t -> Market.request -> Market.outcome
(** Run one lifecycle transaction to completion.  Serialized by an
    internal mutex ({!Market.submit} is the intended caller; direct
    calls are safe too).  Each stage runs under {!Budget.absorb}.  Never raises: every stage
    failure becomes [Rolled_back] with the stage name and the still-
    current epoch.  Install of a present app and upgrade/revoke of an
    absent one roll back at stage ["vet"]. *)

val market :
  ?sandbox:Sandbox.t ->
  ?trace:Trace.t ->
  ?health:Health.t ->
  ?flight:Forensics.Flight.t ->
  t ->
  Market.t
(** [Market.create ~exec:(apply t)] — the market wired to this
    deployment.  The optional observability hooks are passed through
    to {!Market.create}: [trace] records a transaction span (with the
    vet…publish stage children this executor times) per lifecycle
    request, [health] sees rollbacks and stage latencies, [flight]
    captures an incident bundle per rollback. *)

val checker : t -> string -> Api.checker
(** The app's {e live} checker, valid across swaps for the lifetime of
    the deployment: hand this to {!Runtime.create}.  Every entry point
    resolves the app's slot exactly once (one atomic load) and runs
    entirely on that record; its [snapshot] field exposes the same
    resolution so the runtime can pin a whole mediated call to one
    epoch.  While the app is absent or revoked the resolved checker
    denies everything. *)

val epoch : t -> int
(** Current global epoch (0 before the first commit). *)

val slot_of : t -> string -> slot
val current : t -> string -> record option
(** [current t app] is the app's record, [None] when absent. *)

val apps : t -> (string * int) list
(** Live apps with the epoch each was last published at. *)

val ownership : t -> Ownership.t
(** The deployment-wide ownership store shared by all engines. *)

val reconcile_counts : t -> int * int
(** (delta runs, full runs) — full includes delta fallbacks. *)

val close : t -> unit
(** Unregister the deployment's gauges and counters.  The slots and
    engines are plain values; dropping the last reference collects
    them. *)

val consistent : t -> bool
(** Structural epoch invariants, cheap enough to gate on after every
    transaction: each published record's epoch is positive and at most
    the global epoch, its manifest is macro-free, its key matches its
    [app] field, and exactly the live apps are tracked as installed.
    A rollback bug (torn publish, counter drift) trips this. *)

val pp_slot : Format.formatter -> slot -> unit
