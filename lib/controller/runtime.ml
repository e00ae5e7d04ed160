(* The controller runtime, in the paper's two architectures:

   - [Monolithic]: the baseline.  App handlers run inline in the
     dispatching thread and API calls execute as direct function calls
     (through the checker hook, identity for the unprotected baseline).

   - [Isolated]: SDNShield's thread-container architecture (§VI-A).
     Each app runs in its own unprivileged thread with a private event
     queue; every API call travels over a request channel to a pool of
     privileged Kernel Service Deputies (KSDs) which consult the
     permission checker and execute the call on the app's behalf.  Each
     deputy runs on its own domain, so checking and kernel execution
     overlap with app-thread processing ("multiple instances of KSDs can
     run in parallel"); app threads stay systhreads of the creating
     domain, since apps can outnumber cores.  The two cross-domain waits
     of a call, a deputy popping the request channel and an app thread
     reading its reply, spin briefly before they park (docs/RUNTIME.md
     §6).

   Reference-monitor duties at the dispatch boundary:
   - event delivery is gated by a [Receive_event] permission check;
   - packet-in payloads are stripped unless [Read_payload_access] passes;
   - all denials are recorded in the sandbox audit log. *)

open Shield_openflow

type mode = Monolithic | Isolated of { ksd_threads : int }

(* Failure model (docs/RUNTIME.md): every request gets a reply, no lock
   survives an exception, and a fault in one app's call path never
   wedges another app.  [config] sets the three knobs: deputy restart
   budget, per-call deadline, and queue bounds/overflow policy. *)

type config = {
  call_deadline : float option;
      (** Seconds an app thread waits for a KSD reply before giving up
          with [Api.Failed "deadline"].  [None] (default) waits
          forever — sound because the deputy exception barrier always
          fills the reply ivar; a deadline adds defence against deputy
          death between popping a request and serving it. *)
  restart_budget : int;
      (** Times the supervisor restarts a crashed deputy before
          retiring it.  The exception barrier makes deputy crashes
          exceptional (a raise inside a checker or the kernel becomes
          an [Api.Failed] reply), so the budget only meets faults that
          escape the per-request barrier. *)
  ev_capacity : int option;
      (** Per-app event queue bound ([None] = unbounded). *)
  ev_policy : Channel.policy;
      (** Overflow policy for full event queues: [Block] applies
          backpressure to the dispatcher, [Reject] drops the delivery
          (counted, latch still released). *)
  req_capacity : int option;
      (** KSD request channel bound.  Always [Block]: an API call has
          exactly-once semantics, so a full request queue parks the
          calling app thread (saturating its own call loop) rather
          than dropping the call. *)
  trace : Trace.t option;
      (** Span store for end-to-end call tracing.  [None] (default)
          records nothing; with a store, every sampled call records a
          {!Trace.span} and feeds the [lat:*] histograms in
          {!Metrics}. *)
  health : Health.t option;
      (** Sliding-window health monitor.  [None] (default) records
          nothing; with a monitor, denials, mediation faults, deadline
          expiries and request-queue depth feed its window and
          [telemetry] carries its verdict. *)
}

let default_config =
  { call_deadline = None; restart_budget = 8; ev_capacity = None;
    ev_policy = Channel.Block; req_capacity = None; trace = None;
    health = None }

(* The reference monitor's counters and how often the safety nets
   fired; lock-free, since deputies on other domains bump them. *)
type counters = {
  calls : int Atomic.t;
  denials : int Atomic.t;
  events_delivered : int Atomic.t;
  events_suppressed : int Atomic.t;
  ksd_failures : int Atomic.t;
      (** Exceptions the deputy barrier converted to [Api.Failed]. *)
  ksd_restarts : int Atomic.t;  (** Supervisor restarts of dead deputies. *)
  deadline_expiries : int Atomic.t;  (** Calls abandoned at the deadline. *)
  backpressure_rejections : int Atomic.t;
      (** Deliveries dropped by a full [Reject] queue, plus calls
          refused against a closed/rejecting request channel. *)
}

type fault_report = {
  failures : int;
  restarts : int;
  deadlines : int;
  rejections : int;
}

type instance = {
  app : App.t;
  checker : Api.checker;
  cookie : int;
  ev_chan : ev_item Channel.t;
  mutable thread : Thread.t option;
  mutable ctx : App.ctx option;
  lat_app : Metrics.Histogram.t option;
      (** [lat:app:<name>], resolved once when the runtime traces. *)
}

and ev_item = Deliver of Events.t * Channel.Latch.t option

(* The trace sampler's verdict on one call, taken where the call is
   issued: unsampled, sampled and served inline (no deputy, no queue
   wait), or sampled and enqueued for a deputy at the given
   {!Metrics.now}.  Only a sampled call takes timestamps. *)
type span_ctx = Unsampled | Inline | Queued of float

type request =
  | Call of instance * Api.call * Api.result Channel.Ivar.t * span_ctx
  | Txn of
      instance
      * Api.call list
      * (Api.result list, int * string) result Channel.Ivar.t
      * span_ctx

(* A tracing runtime's span store and its [lat:*] histograms, resolved
   once so a sampled call does no registry lookup. *)
type lat = {
  store : Trace.t;
  queue : Metrics.Histogram.t;
  check : Metrics.Histogram.t;
  exec : Metrics.Histogram.t;
  total : Metrics.Histogram.t;
}

type t = {
  kernel : Kernel.t;
  kmutex : Mutex.t;
  mode : mode;
  config : config;
  mutable instances : instance list;
  reqs : request Channel.t;
  mutable deputies : unit Domain.t list;  (** The KSD pool. *)
  inflight_mutex : Mutex.t;
  inflight_zero : Condition.t;
  mutable inflight : int;
  counters : counters;
  lat : lat option;  (** [Some] iff [config.trace] is. *)
  mutable rejected : (string * string) list;
      (** Apps refused at load time, with the reason. *)
}

let sandbox t = t.kernel.Kernel.sandbox
let kernel t = t.kernel
let rejected t = t.rejected

let stats t =
  let c = t.counters in
  ( Atomic.get c.calls, Atomic.get c.denials, Atomic.get c.events_delivered,
    Atomic.get c.events_suppressed )

let fault_report t =
  let c = t.counters in
  { failures = Atomic.get c.ksd_failures;
    restarts = Atomic.get c.ksd_restarts;
    deadlines = Atomic.get c.deadline_expiries;
    rejections = Atomic.get c.backpressure_rejections }

(* In-flight accounting (for [drain]) ------------------------------------- *)

let inflight_incr t =
  Mutex.lock t.inflight_mutex;
  t.inflight <- t.inflight + 1;
  Mutex.unlock t.inflight_mutex

let inflight_decr t =
  Mutex.lock t.inflight_mutex;
  t.inflight <- t.inflight - 1;
  if t.inflight = 0 then Condition.broadcast t.inflight_zero;
  Mutex.unlock t.inflight_mutex

let wait_inflight_zero t =
  Mutex.lock t.inflight_mutex;
  while t.inflight > 0 do
    Condition.wait t.inflight_zero t.inflight_mutex
  done;
  Mutex.unlock t.inflight_mutex

(* Permission-checked execution ------------------------------------------- *)

let audit_denial t inst call why =
  Atomic.incr t.counters.denials;
  (match t.config.health with
  | Some h -> Health.denial h
  | None -> ());
  Sandbox.record_audit (sandbox t) ~app:inst.app.App.name
    ~action:(Fmt.to_to_string Api.pp_call call)
    ~allowed:false ~detail:why

(* "No lock survives an exception": both kernel-lock scopes release via
   [Fun.protect], so a raising [Kernel.exec] cannot wedge every
   subsequent call, [process_pending] and [drain] behind a held
   [kmutex]. *)

let locked_exec t inst call =
  Mutex.lock t.kmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.kmutex)
    (fun () ->
      Kernel.exec t.kernel ~app:inst.app.App.name ~cookie:inst.cookie call)

(* Epoch pinning (docs/CHURN.md): a checker that publishes [snapshot]
   is resolved once per mediated call, and all phases of that call —
   check, rewrite, combine, vet_result — go through the resolved
   (immutable) checker.  A hot-swap landing mid-call therefore cannot
   mix two manifests within one decision; checkers without [snapshot]
   are used directly, and this is one branch on the hot path. *)
let resolve (c : Api.checker) : Api.checker =
  match c.Api.snapshot with Some f -> f () | None -> c

let sampled = function Unsampled -> false | Inline | Queued _ -> true

(* A sampled call's clock; an unsampled call reads 0. and takes no
   timestamp. *)
let stamp sc = if sampled sc then Metrics.now () else 0.

let decision_class = function
  | Api.Denied _ -> Trace.Denied
  | Api.Failed _ -> Trace.Failed
  | _ -> Trace.Allowed

(* Record a sampled call's span and feed the [lat:*] histograms.  [t0],
   [t1] and [t2] are the stamps at check start, check end and exec
   end; a queued call's wait runs from its enqueue to [t0]. *)
let record_span t inst sc ~deputy ~call ~t0 ~t1 ~t2 decision explain =
  match (t.lat, inst.lat_app) with
  | Some l, Some app_hist ->
    let start, queue_wait =
      match sc with
      | Queued enq -> (enq, t0 -. enq)
      | Unsampled | Inline -> (t0, 0.)
    in
    let check_dur = t1 -. t0 and exec_dur = t2 -. t1 in
    let total = queue_wait +. check_dur +. exec_dur in
    Metrics.Histogram.record l.queue queue_wait;
    Metrics.Histogram.record l.check check_dur;
    Metrics.Histogram.record l.exec exec_dur;
    Metrics.Histogram.record l.total total;
    Metrics.Histogram.record app_hist total;
    Trace.record l.store
      { Trace.seq = 0; app = inst.app.App.name; call; deputy; start;
        queue_wait; check_dur; exec_dur; total; decision; explain }
  | _ -> ()

(* A group records one span, its whole duration as the check. *)
let record_group t inst sc ~deputy ~t0 calls decision explain =
  let t1 = Metrics.now () in
  record_span t inst sc ~deputy
    ~call:(Printf.sprintf "txn(%d calls)" (List.length calls))
    ~t0 ~t1 ~t2:t1 decision explain

let raised exn = Some ("exception: " ^ Printexc.to_string exn)

(* The mediated call, inline or on a deputy.  A sampled call asks the
   checker to explain its decision and records one span; a raise past
   the check still records its span before the deputy barrier shapes
   the reply. *)
let checked_exec t inst ~deputy sc call : Api.result =
  Atomic.incr t.counters.calls;
  let ck = resolve inst.checker in
  let t0 = stamp sc in
  let decision, info =
    match (sc, ck.Api.explain) with
    | (Inline | Queued _), Some explain -> explain call
    | _ -> (ck.Api.check call, Api.no_check_info)
  in
  let t1 = stamp sc in
  match
    match decision with
    | Api.Deny why ->
      audit_denial t inst call why;
      Api.Denied why
    | Api.Allow ->
      let results = List.map (locked_exec t inst) (ck.Api.rewrite call) in
      ck.Api.vet_result call (ck.Api.combine call results)
  with
  | result ->
    if sampled sc then
      record_span t inst sc ~deputy ~call:(Api.call_kind call) ~t0 ~t1
        ~t2:(match decision with Api.Allow -> Metrics.now () | Api.Deny _ -> t1)
        (decision_class result) info.Api.explain;
    result
  | exception exn ->
    if sampled sc then
      record_span t inst sc ~deputy ~call:(Api.call_kind call) ~t0 ~t1
        ~t2:(Metrics.now ()) Trace.Failed (raised exn);
    raise exn

(* An atomic call group: checked as a whole, then executed under one
   kernel lock so no other app observes a partial transaction. *)
let checked_txn t inst ~deputy sc calls =
  ignore (Atomic.fetch_and_add t.counters.calls (List.length calls));
  let ck = resolve inst.checker in
  let t0 = stamp sc in
  match
    match ck.Api.check_transaction calls with
    | Ok () ->
      Mutex.lock t.kmutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.kmutex)
        (fun () ->
          Ok
            (List.map
               (fun call ->
                 let rs =
                   List.map
                     (fun c ->
                       Kernel.exec t.kernel ~app:inst.app.App.name
                         ~cookie:inst.cookie c)
                     (ck.Api.rewrite call)
                 in
                 ck.Api.vet_result call (ck.Api.combine call rs))
               calls))
    | Error (i, why) ->
      audit_denial t inst (List.nth calls i) why;
      Error (i, why)
  with
  | r ->
    (if sampled sc then
       match r with
       | Ok _ -> record_group t inst sc ~deputy ~t0 calls Trace.Allowed None
       | Error (i, why) ->
         record_group t inst sc ~deputy ~t0 calls Trace.Denied
           (Some (Printf.sprintf "call %d of group: %s" i why)));
    r
  | exception exn ->
    if sampled sc then
      record_group t inst sc ~deputy ~t0 calls Trace.Failed (raised exn);
    raise exn

(* Contexts ---------------------------------------------------------------- *)

(* Wait for a KSD reply.  Without a configured deadline this blocks
   until the deputy barrier fills the ivar; with one, an app thread can
   never hang on a request a dying deputy dropped — it surfaces
   [on_deadline] (an [Api.Failed "deadline"]-shaped reply) instead.
   The deputy runs on another domain, so the wait spins first. *)
let await_reply t ivar ~on_deadline =
  match t.config.call_deadline with
  | None -> Channel.Ivar.read ivar
  | Some d -> (
    match Channel.Ivar.read_timeout ivar d with
    | Some r -> r
    | None ->
      Atomic.incr t.counters.deadline_expiries;
      (match t.config.health with
      | Some h -> Health.deadline h
      | None -> ());
      on_deadline)

(* Hand a request to the deputies and wait for its reply; [refused]
   shapes the reply to a request the channel turned away. *)
let submit t req ivar ~on_deadline ~refused =
  match Channel.push t.reqs req with
  | () ->
    (match t.config.health with
    | Some h -> Health.queue_depth h (Channel.length t.reqs)
    | None -> ());
    await_reply t ivar ~on_deadline
  | exception Channel.Closed -> refused "runtime shut down"
  | exception Channel.Full ->
    Atomic.incr t.counters.backpressure_rejections;
    refused "backpressure: request queue full"

(* The trace sampler runs where the call is issued, before any
   timestamp, so a sampled-out call pays one atomic increment. *)
let sample t ~inline =
  match t.config.trace with
  | Some tr when Trace.sampled tr ->
    if inline then Inline else Queued (Metrics.now ())
  | Some _ | None -> Unsampled

let make_ctx t inst : App.ctx =
  let app_name = inst.app.App.name in
  match t.mode with
  | Monolithic ->
    { App.app_name;
      call =
        (fun call ->
          checked_exec t inst ~deputy:(-1) (sample t ~inline:true) call);
      transaction =
        (fun calls ->
          checked_txn t inst ~deputy:(-1) (sample t ~inline:true) calls) }
  | Isolated _ ->
    { App.app_name;
      call =
        (fun call ->
          let ivar = Channel.Ivar.create () in
          submit t
            (Call (inst, call, ivar, sample t ~inline:false))
            ivar ~on_deadline:(Api.Failed "deadline")
            ~refused:(fun why -> Api.Failed why));
      transaction =
        (fun calls ->
          let ivar = Channel.Ivar.create () in
          submit t
            (Txn (inst, calls, ivar, sample t ~inline:false))
            ivar ~on_deadline:(Error (-1, "deadline"))
            ~refused:(fun why -> Error (-1, why))) }

let ctx_of inst =
  match inst.ctx with
  | Some c -> c
  | None -> invalid_arg "runtime: instance not started"

(* Event dispatch ---------------------------------------------------------- *)

(** Apply the reference-monitor checks that precede event delivery.
    Returns [None] when delivery is suppressed, or the (possibly
    payload-stripped) event to deliver.  [?pre] supplies decisions a
    batched checker already made for this (instance, event) — the
    [Receive_event] verdict and the [Read_payload_access] verdict —
    so burst injection ({!feed_burst}) skips the per-event checker
    round-trips while keeping the audit/suppression behaviour here. *)
let vet_event ?pre t inst ev : Events.t option =
  let kind = Events.kind ev in
  (* These checks run in the *dispatcher's* thread, outside the deputy
     barrier, so a raising checker is converted to a denial here:
     fail-closed (the event is suppressed, audited), and the dispatch
     loop stays alive.  One [resolve] covers both delivery checks, so
     the Receive_event and Read_payload_access verdicts come from the
     same epoch; a raising resolution fail-closes the delivery. *)
  let ck = try resolve inst.checker with _ -> Api.deny_all in
  let checked call =
    try ck.Api.check call
    with exn -> Api.Deny ("checker fault: " ^ Printexc.to_string exn)
  in
  let receive_verdict =
    match pre with
    | Some (d, _) -> d
    | None -> checked (Api.Receive_event kind)
  in
  match receive_verdict with
  | Api.Deny why ->
    Atomic.incr t.counters.events_suppressed;
    audit_denial t inst (Api.Receive_event kind) why;
    None
  | Api.Allow -> (
    match ev with
    | Events.Packet_in pi -> (
      let payload_verdict =
        match pre with
        | Some (_, d) -> d
        | None -> checked Api.Read_payload_access
      in
      match payload_verdict with
      | Api.Allow -> Some ev
      | Api.Deny _ ->
        (* pkt_in_event without read_payload: deliver headers only. *)
        Some
          (Events.Packet_in
             { pi with packet = { pi.packet with Packet.payload = "" } }))
    | _ -> Some ev)

let handle_in_instance t inst ev =
  Atomic.incr t.counters.events_delivered;
  try inst.app.App.handle (ctx_of inst) ev
  with exn ->
    (* A crashing app must not take the runtime down: the isolation
       property.  Record it as an error-class audit entry. *)
    Sandbox.record_audit (sandbox t) ~app:inst.app.App.name
      ~action:"handler-exception" ~allowed:true
      ~detail:(Printexc.to_string exn)

let dispatch_one ?pre t inst ev latch =
  match vet_event ?pre t inst ev with
  | None -> (match latch with Some l -> Channel.Latch.count_down l | None -> ())
  | Some ev -> (
    match t.mode with
    | Monolithic ->
      handle_in_instance t inst ev;
      (match latch with Some l -> Channel.Latch.count_down l | None -> ())
    | Isolated _ -> (
      (* The increment precedes the push, so a failed push must undo it
         or [drain] waits forever on a delivery that never happened.
         [Closed] is the shutdown race (events injected after [close]);
         [Full] is a bounded [Reject]-policy queue shedding load. *)
      inflight_incr t;
      match Channel.push inst.ev_chan (Deliver (ev, latch)) with
      | () -> ()
      | exception (Channel.Closed | Channel.Full as e) ->
        (match e with
        | Channel.Full -> Atomic.incr t.counters.backpressure_rejections
        | _ -> ());
        inflight_decr t;
        (match latch with Some l -> Channel.Latch.count_down l | None -> ())))

let subscribers t ev =
  let kind = Events.kind ev in
  List.filter (fun inst -> App.subscribes inst.app kind) t.instances

(** Tell every checker about state changes it must track (e.g. flow
    expirations feeding ownership stores). *)
let notify_observers t ev =
  match ev with
  | Events.Flow_removed { dpid; match_; cookie } ->
    List.iter
      (fun inst ->
        try inst.checker.Api.observe (Api.Flow_expired { dpid; match_; cookie })
        with exn ->
          (* An observer fault must not kill the dispatcher; the skipped
             notification is recorded so stale-budget anomalies can be
             traced back to it. *)
          Sandbox.record_audit (sandbox t) ~app:inst.app.App.name
            ~action:"observer-exception" ~allowed:true
            ~detail:(Printexc.to_string exn))
      t.instances
  | _ -> ()

(** Dispatch all events the kernel queued as side effects of API calls,
    cascading until quiescent. *)
let rec process_pending t =
  Mutex.lock t.kmutex;
  let evs = Kernel.take_pending t.kernel in
  Mutex.unlock t.kmutex;
  match evs with
  | [] -> ()
  | evs ->
    List.iter
      (fun ev ->
        notify_observers t ev;
        List.iter (fun inst -> dispatch_one t inst ev None) (subscribers t ev))
      evs;
    (* In monolithic mode handlers ran inline and may have queued more. *)
    if t.mode = Monolithic then process_pending t

(** Fire-and-forget event injection (throughput mode). *)
let feed t ev =
  notify_observers t ev;
  List.iter (fun inst -> dispatch_one t inst ev None) (subscribers t ev);
  process_pending t

(** Burst injection: like [List.iter (feed t)] — same delivery order,
    same audit and suppression behaviour — but the pre-delivery
    permission checks ([Receive_event] per event, [Read_payload_access]
    for packet-ins) of every subscriber with a batched checker are
    decided in one [check_batch] call per subscriber up front, which is
    where packet-in storms spend their checking budget.  Subscribers
    without a batch entry point (or whose batch call raises) fall back
    to the per-event path unchanged.  Sound because the event-delivery
    checks are stateless — their verdicts don't depend on interleaved
    approvals — and a raising batched checker degrades to the
    fail-closed per-event handling in [vet_event]. *)
let feed_burst t (evs : Events.t list) =
  match evs with
  | [] -> ()
  | [ ev ] -> feed t ev
  | evs ->
    let evs = Array.of_list evs in
    let n = Array.length evs in
    (* One boxed call per event kind, so a batched checker's
       adjacent-repeat coalescing sees physically equal calls. *)
    let recv_calls =
      let by_kind = Hashtbl.create 8 in
      Array.map
        (fun ev ->
          let k = Events.kind ev in
          match Hashtbl.find_opt by_kind k with
          | Some call -> call
          | None ->
            let call = Api.Receive_event k in
            Hashtbl.add by_kind k call;
            call)
        evs
    in
    let pre_for inst =
      (* Resolve once per (subscriber, burst): all pre-decisions of the
         burst come from one epoch; a raising resolution falls back to
         the per-event path, which fail-closes each event. *)
      match
        try (resolve inst.checker).Api.check_batch with _ -> None
      with
      | None -> None
      | Some batch -> (
        let idxs = ref [] in
        for i = n - 1 downto 0 do
          if App.subscribes inst.app (Events.kind evs.(i)) then
            idxs := i :: !idxs
        done;
        match Array.of_list !idxs with
        | [||] -> None
        | idxs -> (
          (* First half: Receive_event per subscribed event; second
             half: the (constant) payload-access call, coalesced by the
             batch into essentially one evaluation. *)
          let m = Array.length idxs in
          let calls = Array.make (2 * m) Api.Read_payload_access in
          Array.iteri (fun j i -> calls.(j) <- recv_calls.(i)) idxs;
          match batch calls with
          | exception _ ->
            (* Fall back to the per-event path, which fail-closes each
               event individually and keeps the audit trail. *)
            None
          | ds when Array.length ds <> 2 * m ->
            None (* malformed checker: per-event path decides *)
          | ds ->
            let map = Array.make n None in
            Array.iteri (fun j i -> map.(i) <- Some (ds.(j), ds.(m + j))) idxs;
            Some map))
    in
    let pres = List.map (fun inst -> (inst, pre_for inst)) t.instances in
    Array.iteri
      (fun i ev ->
        notify_observers t ev;
        List.iter
          (fun (inst, map) ->
            if App.subscribes inst.app (Events.kind ev) then
              let pre = match map with None -> None | Some m -> m.(i) in
              dispatch_one ?pre t inst ev None)
          pres;
        process_pending t)
      evs

(** Inject [ev] and block until every subscribed app has finished
    handling it, including cascaded events (latency mode). *)
let rec feed_sync t ev =
  notify_observers t ev;
  let subs = subscribers t ev in
  (match subs with
  | [] -> ()
  | _ ->
    let latch = Channel.Latch.create (List.length subs) in
    List.iter (fun inst -> dispatch_one t inst ev (Some latch)) subs;
    Channel.Latch.wait latch);
  process_pending_sync t

and process_pending_sync t =
  Mutex.lock t.kmutex;
  let evs = Kernel.take_pending t.kernel in
  Mutex.unlock t.kmutex;
  List.iter (feed_sync t) evs

(** Wait until all asynchronously dispatched work has completed,
    including cascades. *)
let rec drain t =
  wait_inflight_zero t;
  Mutex.lock t.kmutex;
  let quiescent = t.kernel.Kernel.pending = [] in
  Mutex.unlock t.kmutex;
  if not quiescent then begin
    process_pending t;
    drain t
  end

(* Threads ----------------------------------------------------------------- *)

(* The event queue's producer is the dispatcher, a thread of this
   domain, so this wait never spins. *)
let app_thread t inst () =
  let rec loop () =
    match Channel.pop inst.ev_chan with
    | None -> ()
    | Some (Deliver (ev, latch)) ->
      handle_in_instance t inst ev;
      (match latch with Some l -> Channel.Latch.count_down l | None -> ());
      inflight_decr t;
      loop ()
  in
  loop ()

(* Kernel Service Deputies, supervised.

   Two layers of protection (docs/RUNTIME.md):

   - the per-request *exception barrier*: any raise while serving a
     request — inside the checker, the kernel, a rewrite/vet hook —
     becomes an [Api.Failed] reply, the reply ivar is ALWAYS filled,
     and the fault lands in the audit log ("ksd-exception") for
     forensics.  A misbehaving call fails itself, never the deputy.

   - the *supervisor*: a fault that escapes the barrier (it fires
     between popping a request and entering the barrier — the window
     the [Deputy] fault-injection site targets) would previously kill
     the deputy silently.  Now the crash is audited ("deputy-crash")
     and the deputy restarts, up to [config.restart_budget] times, then
     retires with a final audit entry.  A request lost in that window
     is exactly what [config.call_deadline] exists for. *)

let ksd_failure t inst exn =
  Atomic.incr t.counters.ksd_failures;
  (match t.config.health with
  | Some h -> Health.fault h
  | None -> ());
  Sandbox.record_audit (sandbox t) ~app:inst.app.App.name
    ~action:"ksd-exception" ~allowed:true ~detail:(Printexc.to_string exn)

let serve_request t ~deputy = function
  | Call (inst, call, ivar, sc) ->
    Channel.Ivar.fill ivar
      (try checked_exec t inst ~deputy sc call
       with exn ->
         ksd_failure t inst exn;
         Api.Failed (Printexc.to_string exn))
  | Txn (inst, calls, ivar, sc) ->
    Channel.Ivar.fill ivar
      (try checked_txn t inst ~deputy sc calls
       with exn ->
         ksd_failure t inst exn;
         Error (-1, Printexc.to_string exn))

let ksd_thread t deputy () =
  let rec loop () =
    match Channel.pop ~spin:true t.reqs with
    | None -> ()
    | Some req ->
      Faults.point Faults.Deputy;
      serve_request t ~deputy req;
      loop ()
  in
  let rec supervise budget =
    match loop () with
    | () -> () (* request channel closed: clean shutdown *)
    | exception exn ->
      Sandbox.record_audit (sandbox t) ~app:"<ksd>" ~action:"deputy-crash"
        ~allowed:true ~detail:(Printexc.to_string exn);
      if budget > 0 then begin
        Atomic.incr t.counters.ksd_restarts;
        supervise (budget - 1)
      end
      else
        Sandbox.record_audit (sandbox t) ~app:"<ksd>" ~action:"deputy-retired"
          ~allowed:true ~detail:"restart budget exhausted"
  in
  supervise t.config.restart_budget

(* Lifecycle --------------------------------------------------------------- *)

type load_check = Skip_load_check | Warn_at_load | Reject_at_load

(** Load-time access control (§VIII-B): tokens backing the app's
    declared capabilities and event subscriptions must be granted at
    all, or the app is flagged (or refused) before it ever runs —
    "no runtime permission checking is needed in case the app does not
    have the required permission tokens at all". *)
let load_violations (app : App.t) (checker : Api.checker) : string list =
  let checker = resolve checker in
  let missing_caps =
    List.filter_map
      (fun cap ->
        if checker.Api.granted cap then None
        else Some ("capability " ^ Api.capability_to_string cap))
      app.App.uses
  in
  let missing_events =
    List.filter_map
      (fun kind ->
        match kind with
        | Api.E_app _ -> None (* inter-app channels need no token *)
        | _ -> (
          match checker.Api.check (Api.Receive_event kind) with
          | Api.Deny _ ->
            Some ("event subscription " ^ Api.event_kind_to_string kind)
          | Api.Allow -> None))
      app.App.subscriptions
  in
  missing_caps @ missing_events

(** Gauge names this runtime registered, for unregistration at
    shutdown.  Names are stable per app name, and registration
    replaces, so sequential runtimes (the benchmark pattern) do not
    grow the registry. *)
let gauge_names t =
  "queue:ksd-reqs"
  :: List.map (fun inst -> "queue:ev:" ^ inst.app.App.name) t.instances

let register_queue_gauges t =
  Metrics.register_gauge "queue:ksd-reqs" (fun () ->
      { Metrics.depth = Channel.length t.reqs;
        hwm = Channel.high_water t.reqs });
  List.iter
    (fun inst ->
      Metrics.register_gauge ("queue:ev:" ^ inst.app.App.name) (fun () ->
          { Metrics.depth = Channel.length inst.ev_chan;
            hwm = Channel.high_water inst.ev_chan }))
    t.instances

(** [create ~mode kernel apps] builds a runtime over [kernel] hosting
    [apps], each paired with its permission checker, then runs every
    app's [init] through its own context.  [load_check] selects the
    load-time access-control behaviour (default: skip); [config] the
    fault-tolerance knobs (default: unbounded queues, no deadline,
    restart budget 8 — the seed semantics, plus supervision). *)
let create ?(load_check = Skip_load_check) ?(config = default_config) ~mode
    kernel (apps : (App.t * Api.checker) list) : t =
  let t =
    { kernel; kmutex = Mutex.create (); mode; config; instances = [];
      reqs = Channel.create ?capacity:config.req_capacity ();
      deputies = [];
      inflight_mutex = Mutex.create ();
      inflight_zero = Condition.create (); inflight = 0;
      counters =
        { calls = Atomic.make 0; denials = Atomic.make 0;
          events_delivered = Atomic.make 0; events_suppressed = Atomic.make 0;
          ksd_failures = Atomic.make 0; ksd_restarts = Atomic.make 0;
          deadline_expiries = Atomic.make 0;
          backpressure_rejections = Atomic.make 0 };
      lat =
        Option.map
          (fun store ->
            { store; queue = Metrics.hist "lat:queue";
              check = Metrics.hist "lat:check"; exec = Metrics.hist "lat:exec";
              total = Metrics.hist "lat:total" })
          config.trace;
      rejected = [] }
  in
  let apps =
    match load_check with
    | Skip_load_check -> apps
    | Warn_at_load | Reject_at_load ->
      List.filter
        (fun ((app : App.t), checker) ->
          match load_violations app checker with
          | [] -> true
          | violations ->
            let reason = String.concat ", " violations in
            Sandbox.record_audit kernel.Kernel.sandbox ~app:app.App.name
              ~action:"load-time-check" ~allowed:(load_check = Warn_at_load)
              ~detail:reason;
            if load_check = Reject_at_load then begin
              t.rejected <- (app.App.name, reason) :: t.rejected;
              false
            end
            else true)
        apps
  in
  let instances =
    List.mapi
      (fun i (app, checker) ->
        { app; checker; cookie = i + 1;
          ev_chan =
            Channel.create ?capacity:config.ev_capacity
              ~policy:config.ev_policy ();
          thread = None; ctx = None;
          lat_app =
            Option.map
              (fun _ -> Metrics.hist ("lat:app:" ^ app.App.name))
              config.trace })
      apps
  in
  t.instances <- instances;
  List.iter (fun inst -> inst.ctx <- Some (make_ctx t inst)) instances;
  (match mode with
  | Monolithic -> ()
  | Isolated { ksd_threads = n } ->
    (* OCaml caps live domains (128 in 5.1).  A spawn that fails stops
       the deputies already running before the failure propagates. *)
    for i = 0 to max 1 n - 1 do
      match Domain.spawn (ksd_thread t i) with
      | d -> t.deputies <- d :: t.deputies
      | exception exn ->
        Channel.close t.reqs;
        List.iter Domain.join t.deputies;
        raise exn
    done;
    List.iter
      (fun inst -> inst.thread <- Some (Thread.create (app_thread t inst) ()))
      instances;
    register_queue_gauges t);
  (* App initialisation goes through the same mediated contexts. *)
  List.iter (fun inst -> inst.app.App.init (ctx_of inst)) instances;
  process_pending t;
  t

let shutdown t =
  (match t.mode with
  | Monolithic -> ()
  | Isolated _ ->
    (* Event queues first (closing wakes pushers blocked on a full
       queue as well as the app threads); the request channel only once
       the app threads — the request producers — are joined, so no
       in-flight call loses its deputy. *)
    List.iter (fun inst -> Channel.close inst.ev_chan) t.instances;
    List.iter
      (fun inst -> match inst.thread with Some th -> Thread.join th | None -> ())
      t.instances;
    Channel.close t.reqs;
    List.iter Domain.join t.deputies;
    List.iter Metrics.unregister_gauge (gauge_names t))

let pp_fault_report ppf r =
  Fmt.pf ppf
    "faults: ksd-failures=%d ksd-restarts=%d deadlines=%d \
     backpressure-rejections=%d@."
    r.failures r.restarts r.deadlines r.rejections

(** The runtime's slice of the unified telemetry snapshot
    (docs/OBSERVABILITY.md): reference-monitor and fault counters from
    this runtime, histograms/caches/gauges from the process-wide
    {!Metrics} registries, span accounting from the configured trace
    store (if any). *)
let telemetry t : Telemetry.snapshot =
  let calls, denials, delivered, suppressed = stats t in
  let fr = fault_report t in
  Telemetry.snapshot
    ~counters:
      [ ("calls", calls); ("denials", denials);
        ("events_delivered", delivered); ("events_suppressed", suppressed);
        ("kernel_executions", Kernel.exec_count t.kernel);
        ("ksd_failures", fr.failures); ("ksd_restarts", fr.restarts);
        ("deadline_expiries", fr.deadlines);
        ("backpressure_rejections", fr.rejections) ]
    ?trace:t.config.trace ?health:t.config.health ()

let pp_report ppf t = Telemetry.pp ppf (telemetry t)

let instance_ctx t name =
  match List.find_opt (fun i -> i.app.App.name = name) t.instances with
  | Some inst -> ctx_of inst
  | None -> invalid_arg (Printf.sprintf "runtime: no app %S" name)
