(** The controller runtime, in the paper's architectures.

    - [Monolithic]: the baseline — handlers run inline, API calls are
      direct function calls (through the checker hook).
    - [Isolated]: SDNShield's Kernel Service Deputy architecture
      (§VI-A) — handlers run inline too, but hold no privilege: every
      API call travels over a request channel to a pool of privileged
      Kernel Service Deputies (KSDs), and the caller blocks until its
      reply lands.  Each deputy runs on its own domain (the paper's
      "multiple instances of KSDs can run in parallel").  Privilege is
      per app name at the deputy boundary, never per thread, so apps
      have no threads of their own.  A deputy popping the request
      channel and a caller awaiting its reply spin for up to
      {!Channel.spin_ns} before they park, so a prompt handoff skips
      the OS wake (docs/RUNTIME.md §6).

    In both modes {!feed}, {!feed_burst}, {!feed_sync}, {!drain} and
    {!process_pending} run the handlers on the calling thread and
    return once the event and its cascades are handled; call them from
    one thread at a time.  A handler that never returns stalls
    dispatch (docs/RUNTIME.md's failure model).

    Reference-monitor duties at the dispatch boundary: event delivery
    is gated by [Receive_event] checks, packet-in payloads are stripped
    unless [Read_payload_access] passes, every denial lands in the
    sandbox audit log, and load-time access control (§VIII-B) can warn
    about or reject apps whose declared usage exceeds their grants. *)

type mode =
  | Monolithic
  | Isolated of { ksd_threads : int }
      (** [ksd_threads] deputies (at least one), each on its own
          domain. *)

(** Fault-tolerance knobs (docs/RUNTIME.md).  The defaults reproduce
    the original semantics — an unbounded request queue, no deadline —
    plus deputy supervision. *)
type config = {
  call_deadline : float option;
      (** Seconds a mediated call waits for a KSD reply before giving up
          with [Api.Failed "deadline"]; [None] (default) waits
          forever. *)
  restart_budget : int;
      (** Times the supervisor restarts a crashed deputy before
          retiring it (default 8). *)
  req_capacity : int option;
      (** KSD request channel bound; always blocking on full, so a
          flooding app parks its own call loop. *)
  trace : Trace.t option;
      (** Span store for end-to-end call tracing
          (docs/OBSERVABILITY.md).  [None] (default) records nothing;
          with a store, every sampled call records a {!Trace.span} —
          queue wait, check and kernel-execution durations, decision
          and its explanation — and feeds the [lat:*] histograms in
          {!Metrics}.  A sampled-out call takes no timestamp. *)
  health : Health.t option;
      (** Sliding-window health monitor (docs/OBSERVABILITY.md).
          [None] (default) records nothing; with a monitor, denials,
          mediation faults, deadline expiries and request-queue depth
          feed its window and {!telemetry} carries its verdict. *)
}

val default_config : config

(** How often the safety nets fired; see {!fault_report}. *)
type fault_report = {
  failures : int;
      (** Exceptions the deputy barrier converted to [Api.Failed]. *)
  restarts : int;  (** Supervisor restarts of crashed deputies. *)
  deadlines : int;  (** Calls abandoned at the deadline. *)
  rejections : int;
      (** Event deliveries and calls refused after {!shutdown}: work
          that arrived after (or raced) it. *)
}

type t

type load_check = Skip_load_check | Warn_at_load | Reject_at_load

val load_violations : App.t -> Api.checker -> string list
(** Capabilities and event subscriptions whose backing tokens the
    checker does not grant at all. *)

val create :
  ?load_check:load_check -> ?config:config -> mode:mode -> Kernel.t ->
  (App.t * Api.checker) list -> t
(** Build a runtime hosting the apps, run load-time access control
    (default: skip), bind every surviving app's checker
    ({!Api.checker.bind}) to [kernel]'s data plane and the cookie the
    kernel stamps on the app's rules (its position among the survivors,
    from 1), start the supervised KSD pool per [mode] with the
    fault-tolerance knobs in [config] (default {!default_config}), and
    run every surviving app's [init] through its mediated context.
    A flow-mod, and a transaction, is checked and executed in one hold
    of the kernel lock; every other call is checked lock-free.  For
    [Isolated] it returns only once every deputy has started, and it
    registers the request queue's depth gauge in {!Metrics}
    (["queue:ksd-reqs"]), unregistered again at {!shutdown}.

    @raise Failure when a deputy's domain cannot be spawned (OCaml
    5.1 hosts at most 128 domains); the deputies already spawned are
    stopped and joined first. *)

val shutdown : t -> unit
(** Stop the KSD pool (a no-op for [Monolithic]).  Requests already
    queued are still served; afterwards an [Isolated] runtime refuses
    every delivery and call, counting each in the [rejections] of
    {!fault_report}. *)

val feed : t -> Events.t -> unit
(** Dispatch the event to its subscribers, then every event it
    cascades into, and return once all are handled. *)

val feed_burst : t -> Events.t list -> unit
(** Inject a burst of events.  Delivery order, auditing, and
    suppression match [List.iter (feed t)], but each subscriber's
    pre-delivery permission checks ([Receive_event],
    [Read_payload_access]) are decided up front with one
    {!Api.checker.check_batch} call per subscriber when the checker
    offers one — the batched hot path for packet-in storms.
    Subscribers without a batch entry point are vetted per event,
    unchanged. *)

val feed_sync : t -> Events.t -> unit
(** {!feed}, under the name latency-mode drivers use. *)

val drain : t -> unit
(** {!process_pending}, under the name throughput-mode drivers use
    after a run of {!feed}s. *)

val process_pending : t -> unit
(** Dispatch the events the kernel queued as side effects of API calls
    made outside dispatch, cascading until quiescent. *)

val stats : t -> int * int * int * int
(** (calls, denials, events delivered, events suppressed). *)

val fault_report : t -> fault_report
(** Snapshot of the fault-tolerance counters: barrier conversions,
    deputy restarts, deadline expiries, closed-channel refusals. *)

val pp_fault_report : Format.formatter -> fault_report -> unit

val telemetry : t -> Telemetry.snapshot
(** The runtime's slice of the unified telemetry snapshot: its
    reference-monitor and fault counters, the process-wide
    histogram/cache/gauge registries, and the configured trace store's
    accounting.  Render with {!Telemetry.to_json} /
    {!Telemetry.to_prometheus} / {!Telemetry.pp}. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable observability report — {!Telemetry.pp} of
    {!telemetry}. *)

val sandbox : t -> Sandbox.t
val kernel : t -> Kernel.t

val rejected : t -> (string * string) list
(** Apps refused at load time by [Reject_at_load], with the reason. *)

val instance_ctx : t -> string -> App.ctx
(** The mediated context of a hosted app, for external drivers.
    @raise Invalid_argument on unknown names. *)
