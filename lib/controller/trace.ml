(* End-to-end call tracing: a bounded ring buffer of per-call spans.

   The enforcement story (§VI) and the forensics claim (§VII) both
   need to answer, per mediated API call, *why* it was allowed or
   denied and *where* its latency went.  A span ties the stages of one
   call together: queue wait between the app thread and the deputy
   pool, permission-check duration, kernel execution, and the decision
   itself with its explanation.

   The store is deliberately dumb and bounded: a fixed-capacity ring
   under a mutex, overwriting oldest-first, with deterministic 1-in-N
   sampling derived from a configured ratio.  Recording is a handful
   of field writes — cheap enough to leave on in production at a
   sampled rate (docs/OBSERVABILITY.md quantifies the overhead), and
   memory is capacity-bounded no matter how long the process runs. *)

type decision_class = Allowed | Denied | Failed

let decision_class_to_string = function
  | Allowed -> "allowed"
  | Denied -> "denied"
  | Failed -> "failed"

type span = {
  seq : int;  (** Monotone per-store sequence number of recorded spans. *)
  app : string;
  call : string;  (** Call-kind label ({!Api.call_kind}), e.g. ["install_flow"]. *)
  deputy : int;  (** Serving deputy index; [-1] = inline (monolithic). *)
  start : float;
      (** {!Metrics.now} at the beginning of the call (enqueue time for
          queued calls) — lets exporters place spans on a timeline. *)
  queue_wait : float;  (** Seconds between enqueue and deputy pop. *)
  check_dur : float;  (** Permission-check duration, seconds. *)
  exec_dur : float;  (** Kernel-execution (+ vetting) duration, seconds. *)
  total : float;  (** Queue wait + check + exec, seconds. *)
  decision : decision_class;
  explain : string option;
      (** Token/clause responsible for the decision, when the checker
          can explain itself (always populated for engine denials). *)
}

(* Lifecycle transaction spans (docs/CHURN.md): one parent span per
   Market request, with child stage spans for each pipeline stage the
   transaction entered (vet, reconcile, lint, verify, compile,
   publish, and the publish undo on a torn rollback). *)

type stage_span = {
  stage : string;
  offset : float;  (** Seconds from the transaction start. *)
  dur : float;  (** Stage duration, seconds. *)
}

type txn_verdict =
  | Txn_committed of { delta : bool; republished : string list }
  | Txn_rolled_back of { stage : string; reason : string }

type txn_span = {
  tseq : int;  (** Monotone per-store sequence number of recorded txns. *)
  id : int;  (** The market's transaction id (ledger key). *)
  kind : string;  (** ["install"] / ["upgrade"] / ["revoke"]. *)
  txn_app : string;
  verdict : txn_verdict;
  epoch_before : int;  (** Global epoch when the transaction started. *)
  epoch_after : int;  (** Epoch after: [epoch_before + 1] on commit, unchanged on rollback. *)
  txn_start : float;  (** {!Metrics.now} when the executor started. *)
  txn_total : float;  (** Whole-transaction duration, seconds. *)
  stages : stage_span list;  (** Execution order. *)
}

let txn_committed (t : txn_span) =
  match t.verdict with Txn_committed _ -> true | Txn_rolled_back _ -> false

(* One bounded ring serves both span kinds: a fixed array overwriting
   oldest-first, and a count of every record ever written.  Callers
   hold the store's lock. *)
type 'a ring = { slots : 'a option array; mutable written : int }

let ring capacity = { slots = Array.make capacity None; written = 0 }
let capacity r = Array.length r.slots
let stored r = Stdlib.min r.written (capacity r)

let push r x =
  r.slots.(r.written mod capacity r) <- Some x;
  r.written <- r.written + 1

let contents r =
  let first = r.written - stored r in
  List.init (stored r) (fun i ->
      match r.slots.((first + i) mod capacity r) with
      | Some x -> x
      | None -> assert false (* slots below [written] are filled *))

let reset r =
  Array.fill r.slots 0 (capacity r) None;
  r.written <- 0

type t = {
  calls : span ring;
  seen : int Atomic.t;  (** Calls offered, including sampled-out ones. *)
  stride : int;  (** Record every [stride]-th offered call. *)
  txns : txn_span ring;
      (** Lifecycle transactions, unsampled: churn is orders of
          magnitude rarer than mediated calls, so every transaction is
          kept (bounded by the ring). *)
  mutex : Mutex.t;
}

type stats = {
  capacity : int;
  seen : int;
  recorded : int;
  sampled_out : int;
  dropped : int;  (** Recorded spans overwritten by the ring. *)
  stored : int;  (** Spans currently readable. *)
  sampling : float;  (** Effective ratio: [1 / stride]. *)
  txn_capacity : int;
  txn_recorded : int;  (** Transaction spans written, ever. *)
  txn_dropped : int;  (** Transaction spans overwritten by the ring. *)
  txn_stored : int;  (** Transaction spans currently readable. *)
}

let default_capacity = 4096
let default_txn_capacity = 1024

(** [create ()] — a span store.  [capacity] bounds memory (default
    4096 spans); [sampling] in (0, 1] is the fraction of calls to
    record (default 1.0 = every call), realised as a deterministic
    1-in-[round (1/sampling)] stride so the recorded subset is
    reproducible.  [txn_capacity] (default 1024) bounds the separate
    lifecycle-transaction ring, which is never sampled. *)
let create ?(capacity = default_capacity) ?(sampling = 1.0)
    ?(txn_capacity = default_txn_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be > 0";
  if not (sampling > 0. && sampling <= 1.) then
    invalid_arg "Trace.create: sampling must be in (0, 1]";
  if txn_capacity <= 0 then
    invalid_arg "Trace.create: txn_capacity must be > 0";
  { calls = ring capacity;
    seen = Atomic.make 0;
    stride = Stdlib.max 1 (int_of_float (Float.round (1. /. sampling)));
    txns = ring txn_capacity;
    mutex = Mutex.create () }

(** Offer one call: bumps the seen counter and says whether this call
    should be recorded.  Call it once per mediated call, *before*
    taking any timestamps, so sampled-out calls skip the measurement
    cost entirely.  Lock-free — this runs on every call even when
    almost all of them are sampled out. *)
let sampled (t : t) = Atomic.fetch_and_add t.seen 1 mod t.stride = 0

(** Record a span (the [seq] field of the argument is ignored and
    reassigned under the store's lock). *)
let record t (s : span) =
  Mutex.lock t.mutex;
  push t.calls { s with seq = t.calls.written };
  Mutex.unlock t.mutex

(** Record a lifecycle-transaction span (the [tseq] field of the
    argument is ignored and reassigned under the store's lock).
    Transactions are never sampled out. *)
let record_txn t (s : txn_span) =
  Mutex.lock t.mutex;
  push t.txns { s with tseq = t.txns.written };
  Mutex.unlock t.mutex

(** The retained spans, oldest first. *)
let spans t = Mutex.protect t.mutex (fun () -> contents t.calls)

(** The retained transaction spans, oldest first. *)
let txn_spans t = Mutex.protect t.mutex (fun () -> contents t.txns)

let stats t : stats =
  Mutex.protect t.mutex (fun () ->
      let seen = Atomic.get t.seen in
      { capacity = capacity t.calls;
        seen;
        recorded = t.calls.written;
        sampled_out = seen - ((seen + t.stride - 1) / t.stride);
        dropped = t.calls.written - stored t.calls;
        stored = stored t.calls;
        sampling = 1. /. float_of_int t.stride;
        txn_capacity = capacity t.txns;
        txn_recorded = t.txns.written;
        txn_dropped = t.txns.written - stored t.txns;
        txn_stored = stored t.txns })

let clear t =
  Mutex.protect t.mutex (fun () ->
      reset t.calls;
      Atomic.set t.seen 0;
      reset t.txns)

let pp_span ppf s =
  Fmt.pf ppf
    "@[<h>#%d %s %s [%s] deputy=%d wait=%.1fus check=%.1fus exec=%.1fus \
     total=%.1fus%a@]"
    s.seq s.app s.call
    (decision_class_to_string s.decision)
    s.deputy (s.queue_wait *. 1e6) (s.check_dur *. 1e6) (s.exec_dur *. 1e6)
    (s.total *. 1e6)
    Fmt.(option (any " — " ++ string))
    s.explain

let pp_txn_span ppf (s : txn_span) =
  let verdict ppf = function
    | Txn_committed { delta; republished } ->
      Fmt.pf ppf "committed (%s, %d republished)"
        (if delta then "delta" else "full")
        (List.length republished)
    | Txn_rolled_back { stage; reason } ->
      Fmt.pf ppf "rolled back at %s: %s" stage reason
  in
  Fmt.pf ppf "@[<h>txn#%d %s %s epoch %d->%d total=%.1fus %a [%a]@]" s.id
    s.kind s.txn_app s.epoch_before s.epoch_after (s.txn_total *. 1e6)
    verdict s.verdict
    Fmt.(
      list ~sep:(any " ")
        (fun ppf (st : stage_span) ->
          Fmt.pf ppf "%s=%.1fus" st.stage (st.dur *. 1e6)))
    s.stages

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "trace: capacity=%d stored=%d recorded=%d dropped=%d seen=%d \
     sampled-out=%d sampling=%.3f txns: capacity=%d stored=%d recorded=%d \
     dropped=%d"
    s.capacity s.stored s.recorded s.dropped s.seen s.sampled_out s.sampling
    s.txn_capacity s.txn_stored s.txn_recorded s.txn_dropped
