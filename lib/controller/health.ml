(* Streaming health: a constant-memory sliding-window monitor.

   The process-start counters in [Telemetry] answer "how much, ever";
   an operator paging on a live deployment needs "how much, *lately*".
   This module aggregates the runtime's bad-news signals — permission
   denials, mediation faults, lifecycle rollbacks, deadline expiries,
   queue high-water, worst stage latency — over a sliding window made
   of a fixed ring of time buckets, and judges the totals against
   declarative thresholds to produce an Ok / Degraded / Unhealthy
   verdict with named causes.

   Memory is constant (one ring of plain-int buckets, no per-event
   allocation) and recording is a mutex + a handful of field writes,
   so the monitor can ride every mediated call.  The clock is
   injectable so window-slide behaviour (Degraded flipping back to
   Healthy once an incident ages out) is deterministically testable;
   production monitors default to {!Metrics.now}. *)

type status = Healthy | Degraded | Unhealthy

let status_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Unhealthy -> "unhealthy"

(** Prometheus-facing encoding: 0 = healthy, 1 = degraded,
    2 = unhealthy (bigger is worse, so alerts can be `> 0`). *)
let status_severity = function Healthy -> 0 | Degraded -> 1 | Unhealthy -> 2

(* Signals are keyed by name so rules stay declarative data.  Counters
   sum across the window; water marks ("queue-hwm", "stage-max-s")
   take the window max. *)
type rule = {
  signal : string;
  degraded : float;  (** Windowed value >= this: at least Degraded. *)
  unhealthy : float;  (** Windowed value >= this: Unhealthy. *)
}

(** Conservative thresholds, sized for the bundled demos and labs:
    injected faults degrade immediately, background rollbacks (an app
    market refusing invalid submissions is the system working) only
    degrade in bulk, and a stage that takes more than a second is
    news regardless of volume. *)
let rules =
  [ { signal = "faults"; degraded = 1.; unhealthy = 25. };
    { signal = "rollbacks"; degraded = 20.; unhealthy = 200. };
    { signal = "denials"; degraded = 500.; unhealthy = 5000. };
    { signal = "deadline-expiries"; degraded = 1.; unhealthy = 100. };
    { signal = "queue-hwm"; degraded = 256.; unhealthy = 2048. };
    { signal = "stage-max-s"; degraded = 1.; unhealthy = 10. } ]

type cause = {
  cause_signal : string;
  observed : float;
  threshold : float;  (** The threshold crossed (the higher one wins). *)
  level : status;
}

type verdict = {
  status : status;
  causes : cause list;  (** Every crossed rule, worst first. *)
  window : float;  (** Window length covered, seconds. *)
  totals : (string * float) list;  (** Windowed value per signal. *)
}

type bucket = {
  mutable stamp : int;  (** Absolute bucket index held; -1 = empty. *)
  mutable denials : int;
  mutable faults : int;
  mutable rollbacks : int;
  mutable deadlines : int;
  mutable queue_hwm : int;
  mutable stage_max : float;
}

type t = {
  clock : unit -> float;
  origin : float;
  buckets : bucket array;
  mutex : Mutex.t;
}

(** The window length, seconds, covered by [slots] ring buckets of
    [span] seconds each. *)
let window = 60.

let slots = 12
let span = window /. float_of_int slots

(** [create ()] — a monitor covering the last {!window} seconds,
    judged against {!rules} by {!verdict}.  [clock] (default
    {!Metrics.now}) exists for deterministic tests and demos. *)
let create ?clock () =
  let clock = match clock with Some f -> f | None -> Metrics.now in
  { clock;
    origin = clock ();
    buckets =
      Array.init slots (fun _ ->
          { stamp = -1; denials = 0; faults = 0; rollbacks = 0;
            deadlines = 0; queue_hwm = 0; stage_max = 0. });
    mutex = Mutex.create () }

(* The bucket for "now", recycled lazily: a slot whose stamp is not
   the current absolute index is stale by at least a full window and
   is reset in place.  Caller holds the lock. *)
let current_abs t =
  let dt = t.clock () -. t.origin in
  if dt <= 0. then 0 else int_of_float (dt /. span)

let slot t =
  let a = current_abs t in
  let b = t.buckets.(a mod Array.length t.buckets) in
  if b.stamp <> a then begin
    b.stamp <- a;
    b.denials <- 0;
    b.faults <- 0;
    b.rollbacks <- 0;
    b.deadlines <- 0;
    b.queue_hwm <- 0;
    b.stage_max <- 0.
  end;
  b

let with_slot t f =
  Mutex.lock t.mutex;
  f (slot t);
  Mutex.unlock t.mutex

let denial t = with_slot t (fun b -> b.denials <- b.denials + 1)
let fault t = with_slot t (fun b -> b.faults <- b.faults + 1)
let rollback t = with_slot t (fun b -> b.rollbacks <- b.rollbacks + 1)
let deadline t = with_slot t (fun b -> b.deadlines <- b.deadlines + 1)

let queue_depth t d =
  with_slot t (fun b -> if d > b.queue_hwm then b.queue_hwm <- d)

(** Record one stage (or call) duration in seconds; the window keeps
    the max. *)
let stage_latency t s =
  with_slot t (fun b -> if s > b.stage_max then b.stage_max <- s)

(** Windowed value per signal.  Counters sum over the live buckets;
    water marks take the max. *)
let totals t =
  Mutex.lock t.mutex;
  let a = current_abs t in
  let n = Array.length t.buckets in
  let denials = ref 0 and faults = ref 0 and rollbacks = ref 0 in
  let deadlines = ref 0 and queue_hwm = ref 0 in
  let stage_max = ref 0. in
  Array.iter
    (fun b ->
      if b.stamp > a - n && b.stamp >= 0 then begin
        denials := !denials + b.denials;
        faults := !faults + b.faults;
        rollbacks := !rollbacks + b.rollbacks;
        deadlines := !deadlines + b.deadlines;
        if b.queue_hwm > !queue_hwm then queue_hwm := b.queue_hwm;
        if b.stage_max > !stage_max then stage_max := b.stage_max
      end)
    t.buckets;
  Mutex.unlock t.mutex;
  [ ("denials", float_of_int !denials);
    ("faults", float_of_int !faults);
    ("rollbacks", float_of_int !rollbacks);
    ("deadline-expiries", float_of_int !deadlines);
    ("queue-hwm", float_of_int !queue_hwm);
    ("stage-max-s", !stage_max) ]

let verdict t : verdict =
  let totals = totals t in
  let causes =
    List.filter_map
      (fun r ->
        let v = List.assoc r.signal totals in
        if v >= r.unhealthy then
          Some
            { cause_signal = r.signal; observed = v; threshold = r.unhealthy;
              level = Unhealthy }
        else if v >= r.degraded then
          Some
            { cause_signal = r.signal; observed = v; threshold = r.degraded;
              level = Degraded }
        else None)
      rules
  in
  let causes =
    List.stable_sort
      (fun a b -> compare (status_severity b.level) (status_severity a.level))
      causes
  in
  let status =
    List.fold_left
      (fun acc c ->
        if status_severity c.level > status_severity acc then c.level else acc)
      Healthy causes
  in
  { status; causes; window; totals }

let pp_cause ppf c =
  Fmt.pf ppf "%s: %s %g >= %g" (status_to_string c.level) c.cause_signal
    c.observed c.threshold

let pp_verdict ppf (v : verdict) =
  Fmt.pf ppf "@[<v>health: %s (window %gs)" (status_to_string v.status)
    v.window;
  List.iter (fun c -> Fmt.pf ppf "@,  cause %a" pp_cause c) v.causes;
  List.iter (fun (k, x) -> Fmt.pf ppf "@,  %-18s %g" k x) v.totals;
  Fmt.pf ppf "@]"
