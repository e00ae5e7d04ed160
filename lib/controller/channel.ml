(* Blocking channel built on Mutex + Condition, optionally bounded.

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
   waiter first spins on an [Atomic] hint for at most [spin_ns], and
   only then parks on the condition as before.  A Mutex+Condition wake
   costs 15–20 µs on a 2-vCPU VM, an atomic handoff between two running
   domains about 0.2 µs, so a waiter still running when its item lands
   skips the wake.  Each turn of the spin yields the CPU, so a waiter
   whose counterpart the scheduler has put on the same core lets it
   run instead of holding the core for the whole bound.  The hint is
   only read outside the mutex; every state change is still made under
   it, so a stale hint costs one park, never a lost or duplicated
   item. *)

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

type 'a t = {
  queue : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  capacity : int option;  (** [None] = unbounded. *)
  mutable high_water : int;
  mutable closed : bool;
  depth : int Atomic.t;  (** Queue length, written under [mutex]. *)
  spinner : bool Atomic.t;
      (** A popper is spinning.  Taken by compare-and-set, so at most
          one popper spins; cleared only under [mutex]. *)
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Channel.create: capacity must be > 0"
  | _ -> ());
  { queue = Queue.create (); mutex = Mutex.create ();
    nonempty = Condition.create (); nonfull = Condition.create ();
    capacity; high_water = 0; closed = false; depth = Atomic.make 0;
    spinner = Atomic.make false }

exception Closed

let is_full t =
  match t.capacity with
  | Some c -> Queue.length t.queue >= c
  | None -> false

(** Push [v]; raises [Closed] after [close].  On a full bounded channel
    the pusher waits (and still raises [Closed] if the channel closes
    while waiting). *)
let push t v =
  Mutex.lock t.mutex;
  let rec wait () =
    if t.closed then begin
      Mutex.unlock t.mutex;
      raise Closed
    end
    else if is_full t then begin
      Condition.wait t.nonfull t.mutex;
      wait ()
    end
    else begin
      Queue.push v t.queue;
      let n = Queue.length t.queue in
      Atomic.set t.depth n;
      if n > t.high_water then t.high_water <- n;
      (* A spinner takes the first queued item itself: it clears its
         flag and looks at the queue under this mutex before it could
         park.  Items beyond what it can take still signal. *)
      if n > (if Atomic.get t.spinner then 1 else 0) then
        Condition.signal t.nonempty;
      Mutex.unlock t.mutex
    end
  in
  wait ()

(* The popper's wait, [mutex] held.  It allocates nothing before an
   item arrives, so a deputy that has filled its last reply allocates
   nothing more until its next request: a [Gc.minor] bracket around a
   run of calls counts each call's words exactly once. *)
let rec pop_locked t =
  if not (Queue.is_empty t.queue) then begin
    let v = Queue.pop t.queue in
    Atomic.set t.depth (Queue.length t.queue);
    Condition.signal t.nonfull;
    Mutex.unlock t.mutex;
    Some v
  end
  else if t.closed then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    Condition.wait t.nonempty t.mutex;
    pop_locked t
  end

(** Block until an element is available; [None] once the channel is
    closed and drained.  The popper first spins for up to [spin_ns],
    unless another popper is already spinning. *)
let pop t =
  if Atomic.compare_and_set t.spinner false true then begin
    spin_while t.depth 0;
    Mutex.lock t.mutex;
    Atomic.set t.spinner false
  end
  else Mutex.lock t.mutex;
  pop_locked t

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
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.nonfull;
  Mutex.unlock t.mutex

(* Single-assignment synchronization cell (reply slot for API calls).
   [value] is written once, under [mutex]; a spinning reader watches it
   without the lock and then reads it under the lock. *)
module Ivar = struct
  type 'a t = {
    value : 'a option Atomic.t;
    mutex : Mutex.t;
    filled : Condition.t;
  }

  let create () =
    { value = Atomic.make None; mutex = Mutex.create ();
      filled = Condition.create () }

  let fill t v =
    Mutex.lock t.mutex;
    (match Atomic.get t.value with
    | Some _ ->
      Mutex.unlock t.mutex;
      invalid_arg "Ivar.fill: already filled"
    | None ->
      Atomic.set t.value (Some v);
      Condition.broadcast t.filled;
      Mutex.unlock t.mutex)

  let read t =
    spin_while t.value None;
    Mutex.lock t.mutex;
    let rec wait () =
      match Atomic.get t.value with
      | Some v ->
        Mutex.unlock t.mutex;
        v
      | None ->
        Condition.wait t.filled t.mutex;
        wait ()
    in
    wait ()

  (** [read_timeout t d] — the value, or [None] if none arrives within
      [d] seconds.  Only for a value filled from another domain: the
      reader always spins first.  Stdlib conditions have no timed wait,
      so the slow path polls with exponential backoff (50µs doubling to
      5ms): an abandoned ivar costs a handful of wakeups before the
      deadline verdict.  The deadline is a floor — a value arriving just
      after expiry may still be returned, never the reverse. *)
  let read_timeout t d =
    let deadline = Unix.gettimeofday () +. d in
    spin_while t.value None;
    let rec wait delay =
      Mutex.lock t.mutex;
      match Atomic.get t.value with
      | Some v ->
        Mutex.unlock t.mutex;
        Some v
      | None ->
        Mutex.unlock t.mutex;
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then None
        else begin
          Thread.delay (Float.min delay remaining);
          wait (Float.min (delay *. 2.) 5e-3)
        end
    in
    wait 5e-5
end
