(** The app-market update ledger (docs/CHURN.md).

    An SDN app market installs, upgrades and revokes apps {e while
    traffic flows}.  This module is the controller-side half of the
    live-update subsystem: lifecycle requests, each executed as one
    staged transaction by a pluggable executor, with a transaction
    ledger, commit/rollback counters and sandbox audit notifications.

    The executor is supplied by the deployment layer
    ({!Sdnshield.Epoch.market} wires the full
    vet → reconcile → lint → verify → compile → publish pipeline); the
    market itself is generic, mirroring how {!Runtime} accepts any
    {!Api.checker}.  {!submit} runs the transaction in the calling
    thread under the market's mutex, so transactions are serialized —
    the epoch stores the executor publishes into need no
    cross-transaction locking, and a rollback can only ever race with
    readers, never with another writer. *)

type kind = Install | Upgrade | Revoke

val kind_to_string : kind -> string

type request = {
  kind : kind;
  app : string;
  manifest_src : string;  (** Manifest source text; ignored for [Revoke]. *)
}

val install : string -> string -> request
(** [install app manifest_src]. *)

val upgrade : string -> string -> request
val revoke : string -> request

(** The result of one lifecycle transaction. *)
type outcome =
  | Committed of {
      epoch : int;  (** Global epoch after the commit. *)
      delta : bool;
          (** The reconcile stage re-evaluated only the statements
              touching the changed app (docs/CHURN.md) rather than the
              whole policy. *)
      republished : string list;
          (** Other apps whose manifests the policy repaired as a side
              effect (e.g. exclusivity truncation) and whose epochs
              were therefore republished in the same commit. *)
      stages : (string * float) list;
          (** Stage names and durations (seconds), in execution order. *)
    }
  | Rolled_back of {
      stage : string;  (** Stage that failed. *)
      reason : string;
      epoch : int;
          (** Global epoch still current after the rollback — the
              pre-transaction epoch ([-1] when the executor itself
              crashed before reporting one). *)
      stages : (string * float) list;
          (** Stage names and durations (seconds) in execution order,
              {e including} the failed stage and any publish undo
              (["rollback-undo"]) — where the transaction's time went
              before it died. *)
    }

val committed : outcome -> bool

val stages_of : outcome -> (string * float) list
(** The stage timing list of either outcome. *)

type txn = {
  id : int;  (** 1-based submission order. *)
  request : request;
  outcome : outcome;
}

type stats = {
  submitted : int;
  commits : int;
  rollbacks : int;
}

type t

val create :
  ?sandbox:Sandbox.t ->
  ?trace:Trace.t ->
  ?health:Health.t ->
  ?flight:Forensics.Flight.t ->
  exec:(request -> outcome) ->
  unit ->
  t
(** [create ~exec ()] — a market over [exec], which runs one
    lifecycle transaction to completion and must be fail-safe: stage
    failures are reported as [Rolled_back], not raised (a raise is
    still contained — {!submit} converts it to a [Rolled_back] with
    stage ["apply"] and the market keeps serving).  [sandbox], when
    given, receives an audit entry per transaction: ["market-commit"]
    (allowed) or ["market-rollback"] (denied), the notification channel
    {!Forensics.fault_log} surfaces.

    Observability hooks (docs/OBSERVABILITY.md), all optional and all
    off by default: [trace] records one {!Trace.txn_span} per
    transaction (stage children included) and feeds the
    [lat:stage:<name>] histograms; [health] receives a rollback signal
    per rolled-back transaction plus every stage duration; [flight]
    gets a {!Forensics.Flight.boundary} after each commit and a
    {!Forensics.Flight.capture} (with the transaction span) on each
    rollback.

    Registers the [market:committed] / [market:rolled-back] {!Metrics}
    counters; {!shutdown} unregisters them. *)

val submit : t -> request -> outcome
(** Run the transaction in the calling thread and return its outcome.
    Submissions from several threads wait for each other: one
    transaction runs at a time, and ids follow the order in which
    they took the market's mutex.  After {!shutdown}: [Rolled_back]
    with stage ["queue"] (still given an id and a ledger entry). *)

val history : t -> txn list
(** Completed transactions, oldest first. *)

val stats : t -> stats

val shutdown : t -> unit
(** Wait for the transaction in flight, refuse every later {!submit},
    unregister the counters.  Idempotent. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_txn : Format.formatter -> txn -> unit
