(* Blocking channel, optionally bounded, with a lock-free hand-off to a
   spinning popper.

   This is the request queue of the isolation architecture (§VI-A of
   the paper): callers push API requests, and the Kernel Service
   Deputies, each on its own domain, pop and serve them.

   A channel created without [capacity] behaves as before: pushes never
   block.  With a capacity, a full channel parks the pusher until a
   consumer makes room (backpressure — a flooding producer saturates
   its own queue instead of the heap).  The high-water mark is tracked
   so runtimes can report worst-case queue depths.

   Spin-then-park (docs/RUNTIME.md §6).  [pop], [Ivar.read] and
   [Ivar.read_timeout] wait for a counterpart on another domain: the
   waiter first spins on an [Atomic] for at most [spin_ns], and only
   then parks.  A Mutex+Condition wake costs 15–20 µs on a 2-vCPU VM
   and an atomic handoff between two running domains about 0.3 µs; a
   request/reply ping-pong whose queue and reply cell each take a mutex
   costs 1.7 µs, and 0.8 µs without them.  So the common case takes no
   lock:
   - a popper that finds the queue empty publishes the [offer] slot,
     and a push that finds the queue empty and the channel open hands
     it the item by one compare-and-set.  Every other push goes
     through the locked queue, and a popper that is not handed an item
     takes it from there;
   - an [Ivar] is one [Atomic], filled by compare-and-set.  A reader
     that outlasts its spin parks on one process-wide mutex and
     condition, and [fill] takes them only while a reader is parked.
   Each turn of the spin yields the CPU, so a waiter whose counterpart
   the scheduler has put on the same core lets it run instead of
   holding the core for the whole bound.

   A push and a pop allocate the same words whichever way they go, and
   no wait allocates: the exact allocation pin of test/test_trace.ml
   compares runs that differ only in timing. *)

(* The spin bound, wall-clock; docs/RUNTIME.md §6 has the sweep that
   chose it. *)
let spin_ns = 10_000

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* [sched_yield]: returns at once when nothing else is runnable on this
   core, and otherwise runs what is (channel_stubs.c). *)
external yield_cpu : unit -> unit = "shield_channel_yield" [@@noalloc]

(* Spin while [hint] still holds [idle], for at most [spin_ns],
   yielding the CPU on every turn.  Without the yield, a waiter that
   shares a core with its counterpart burns the whole bound while the
   counterpart waits for that core, then parks, and the counterpart's
   own wait does the same: every hand-off then costs two bounds and two
   wakes (docs/RUNTIME.md §6, "Sharing a core").  Allocation-free: the
   clock and the yield are noalloc externals. *)
let spin_while hint idle =
  let deadline = clock_ns () + spin_ns in
  while Atomic.get hint == idle && clock_ns () < deadline do
    Domain.cpu_relax ();
    yield_cpu ()
  done

(* The spinning popper's slot: [Waiting] while it spins on an empty
   queue, [Item v] once a pusher has handed it [v], [Idle] otherwise.
   The queue holds the same [Item] boxes, so a push allocates two words
   whether it hands off or queues. *)
type 'a offer = Idle | Waiting | Item of 'a

type 'a t = {
  mutable ring : 'a offer array;
      (** The queue: [depth] items from [head], in a power-of-two ring
          that doubles when full. *)
  mutable head : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  capacity : int option;  (** [None] = unbounded. *)
  mutable high_water : int;
  closed : bool Atomic.t;  (** Set under [mutex]; the hand-off reads it. *)
  depth : int Atomic.t;  (** Queue length, written under [mutex]. *)
  offer : 'a offer Atomic.t;
      (** One popper moves it from [Idle] to [Waiting] and takes it back
          by an exchange; a push hands off by moving it from [Waiting]
          to [Item], and a locked push moves it back to [Idle] to send
          the spinner to the queue. *)
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Channel.create: capacity must be > 0"
  | _ -> ());
  { ring = Array.make 16 Idle; head = 0; mutex = Mutex.create ();
    nonempty = Condition.create (); nonfull = Condition.create ();
    capacity; high_water = 0; closed = Atomic.make false;
    depth = Atomic.make 0; offer = Atomic.make Idle }

exception Closed

let grow t =
  let n = Array.length t.ring in
  let ring = Array.make (2 * n) Idle in
  for i = 0 to n - 1 do
    ring.(i) <- t.ring.((t.head + i) land (n - 1))
  done;
  t.ring <- ring;
  t.head <- 0

(* Queue [item], [mutex] held.  Like [pop_locked], a top-level loop
   rather than a closure, so the locked path allocates only what the
   hand-off does. *)
let rec push_locked t item =
  let n = Atomic.get t.depth in
  if Atomic.get t.closed then begin
    Mutex.unlock t.mutex;
    raise Closed
  end
  else if (match t.capacity with Some c -> n >= c | None -> false) then begin
    Condition.wait t.nonfull t.mutex;
    push_locked t item
  end
  else begin
    if n = Array.length t.ring then grow t;
    t.ring.((t.head + n) land (Array.length t.ring - 1)) <- item;
    Atomic.set t.depth (n + 1);
    if n + 1 > t.high_water then t.high_water <- n + 1;
    (* A spinner registered before this push watches only its slot:
       send it to the queue, where it takes the first item under this
       mutex before it could park.  Items beyond that one signal. *)
    let sent = Atomic.compare_and_set t.offer Waiting Idle in
    if n + 1 > (if sent then 1 else 0) then Condition.signal t.nonempty;
    Mutex.unlock t.mutex
  end

(** Push [v]; raises [Closed] after [close].  On a full bounded channel
    the pusher waits (and still raises [Closed] if the channel closes
    while waiting).  Only onto an empty queue may it hand off: an item
    handed past queued ones would overtake them. *)
let push t v =
  let item = Item v in
  if
    not
      (Atomic.get t.depth = 0
      && (not (Atomic.get t.closed))
      && Atomic.compare_and_set t.offer Waiting item)
  then begin
    Mutex.lock t.mutex;
    push_locked t item
  end

(* The popper's wait, [mutex] held.  It allocates nothing before an
   item arrives, so a deputy that has filled its last reply allocates
   nothing more until its next request: a [Gc.minor] bracket around a
   run of calls counts each call's words exactly once. *)
let rec pop_locked t =
  let n = Atomic.get t.depth in
  if n > 0 then begin
    let item = t.ring.(t.head) in
    t.ring.(t.head) <- Idle;
    t.head <- (t.head + 1) land (Array.length t.ring - 1);
    Atomic.set t.depth (n - 1);
    Condition.signal t.nonfull;
    Mutex.unlock t.mutex;
    match item with Item v -> Some v | Idle | Waiting -> assert false
  end
  else if Atomic.get t.closed then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    Condition.wait t.nonempty t.mutex;
    pop_locked t
  end

(** Block until an element is available; [None] once the channel is
    closed and drained.  A popper that finds the queue empty spins for
    up to [spin_ns] on the offer slot, unless another popper already
    does. *)
let pop t =
  if Atomic.get t.depth = 0 && Atomic.compare_and_set t.offer Idle Waiting
  then begin
    (* A push that queued before the slot read [Waiting] could not send
       this popper to the queue: look once more before spinning. *)
    if Atomic.get t.depth = 0 then spin_while t.offer Waiting;
    match Atomic.exchange t.offer Idle with
    | Item v -> Some v
    | Idle | Waiting ->
      Mutex.lock t.mutex;
      pop_locked t
  end
  else begin
    Mutex.lock t.mutex;
    pop_locked t
  end

let length t = Atomic.get t.depth

(** Worst queue depth observed since creation. *)
let high_water t =
  Mutex.lock t.mutex;
  let n = t.high_water in
  Mutex.unlock t.mutex;
  n

let capacity t = t.capacity

(** Close the channel: pending elements remain poppable, further pushes
    raise, blocked poppers *and* blocked pushers are woken. *)
let close t =
  Mutex.lock t.mutex;
  Atomic.set t.closed true;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.nonfull;
  Mutex.unlock t.mutex

(* Single-assignment synchronization cell (reply slot for API calls):
   one [Atomic], filled by compare-and-set and read without a lock. *)
module Ivar = struct
  type 'a t = 'a option Atomic.t

  (* Where every reader that outlasts its spin parks: one mutex and
     condition for the process, and the number of readers parked on
     them, so a [fill] with none parked takes no lock. *)
  let park = Mutex.create ()
  let unparked = Condition.create ()
  let parked = Atomic.make 0

  let create () = Atomic.make None

  (* The park is shared, so [fill] wakes every parked reader, and each
     rechecks its own ivar.  A reader counts itself in [parked] before
     its last look at the value, and [fill] looks at [parked] after it
     sets the value, so one of the two sees the other. *)
  let fill t v =
    if not (Atomic.compare_and_set t None (Some v)) then
      invalid_arg "Ivar.fill: already filled";
    if Atomic.get parked > 0 then begin
      Mutex.lock park;
      Condition.broadcast unparked;
      Mutex.unlock park
    end

  (* [park] held, this reader counted in [parked]. *)
  let rec wait_parked t =
    match Atomic.get t with
    | Some v ->
      Atomic.decr parked;
      Mutex.unlock park;
      v
    | None ->
      Condition.wait unparked park;
      wait_parked t

  let read t =
    spin_while t None;
    match Atomic.get t with
    | Some v -> v
    | None ->
      Mutex.lock park;
      Atomic.incr parked;
      wait_parked t

  (* Poll [t] until [deadline] (ns on [clock_ns]), sleeping [delay_ns]
     between looks, doubling to 5 ms. *)
  let rec poll t deadline delay_ns =
    match Atomic.get t with
    | Some _ as r -> r
    | None ->
      let remaining = deadline - clock_ns () in
      if remaining <= 0 then None
      else begin
        Thread.delay (Float.of_int (min delay_ns remaining) *. 1e-9);
        poll t deadline (min (2 * delay_ns) 5_000_000)
      end

  (** [read_timeout t d] — the value, or [None] if none arrives within
      [d] seconds of the monotonic clock.  Only for a value filled from
      another domain: the reader always spins first.  Stdlib conditions
      have no timed wait, so the slow path polls with exponential
      backoff (50µs doubling to 5ms): an abandoned ivar costs a handful
      of wakeups before the deadline verdict.  The deadline is a floor —
      a value arriving just after expiry may still be returned, never
      the reverse. *)
  let read_timeout t d =
    let deadline = clock_ns () + Float.to_int (Float.min (d *. 1e9) 1e18) in
    spin_while t None;
    poll t deadline 50_000
end
