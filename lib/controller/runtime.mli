(** The controller runtime, in the paper's architectures.

    - [Monolithic]: the baseline — handlers run inline, API calls are
      direct function calls (through the checker hook).
    - [Isolated]: SDNShield's thread-container architecture (§VI-A) —
      each app in its own unprivileged thread with a private event
      queue; every API call travels over a request channel to a pool of
      privileged Kernel Service Deputies (KSDs).  Each deputy runs on
      its own domain (the paper's "multiple instances of KSDs can run
      in parallel"); app threads are systhreads of the creating domain.
      A deputy popping the request channel and an app thread awaiting
      its reply spin for up to {!Channel.spin_ns} before they park, so
      a prompt handoff skips the OS wake (docs/RUNTIME.md §6).

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
    the original semantics — unbounded queues, no deadline — plus
    deputy supervision. *)
type config = {
  call_deadline : float option;
      (** Seconds an app thread waits for a KSD reply before giving up
          with [Api.Failed "deadline"]; [None] (default) waits
          forever. *)
  restart_budget : int;
      (** Times the supervisor restarts a crashed deputy before
          retiring it (default 8). *)
  ev_capacity : int option;
      (** Per-app event queue bound ([None] = unbounded); a full queue
          parks the dispatcher (backpressure). *)
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
      (** Event deliveries and calls refused against a closed channel:
          work that arrived after (or raced) {!shutdown}. *)
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
    (default: skip), start the supervised KSD pool and app threads per
    [mode] with the fault-tolerance knobs in [config] (default
    {!default_config}), and run every surviving app's [init] through
    its mediated context.  Isolated runtimes register per-queue depth
    gauges in {!Metrics} (["queue:ksd-reqs"], ["queue:ev:<app>"]),
    unregistered again at {!shutdown}.

    @raise Failure when a deputy's domain cannot be spawned (OCaml
    5.1 hosts at most 128 domains); the deputies already spawned are
    stopped and joined first. *)

val shutdown : t -> unit
(** Stop app threads and the KSD pool (idempotent for [Monolithic]).
    Closing the event queues wakes pushers blocked on a full bounded
    queue; the request channel closes only after the app threads are
    joined, so no in-flight call loses its deputy. *)

val feed : t -> Events.t -> unit
(** Fire-and-forget event injection (throughput mode); cascaded events
    are dispatched opportunistically. *)

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
(** Inject an event and block until every subscribed app has finished
    handling it, including cascaded events (latency mode). *)

val drain : t -> unit
(** Wait until all asynchronously dispatched work has completed. *)

val process_pending : t -> unit
(** Dispatch events the kernel queued as side effects of API calls. *)

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
