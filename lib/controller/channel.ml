(* Blocking channel built on Mutex + Condition, optionally bounded.

   This is the inter-thread communication utility of the isolation
   architecture (§VIII-B of the paper): app threads and Kernel Service
   Deputy threads exchange events and API requests through these
   queues.

   A channel created without [capacity] behaves as before: pushes never
   block.  With a capacity, a full channel applies its overflow
   [policy]: [Block] parks the pusher until a consumer makes room
   (backpressure — a flooding producer saturates its own queue instead
   of the heap), [Reject] raises [Full] so the caller can turn the
   overflow into an application-level error.  The high-water mark is
   tracked so runtimes can report worst-case queue depths. *)

type policy =
  | Block  (** Full channel: park the pusher until space frees up. *)
  | Reject  (** Full channel: raise {!Full} immediately. *)

type 'a t = {
  queue : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  capacity : int option;  (** [None] = unbounded. *)
  policy : policy;
  mutable high_water : int;
  mutable closed : bool;
}

let create ?capacity ?(policy = Block) () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Channel.create: capacity must be > 0"
  | _ -> ());
  { queue = Queue.create (); mutex = Mutex.create ();
    nonempty = Condition.create (); nonfull = Condition.create ();
    capacity; policy; high_water = 0; closed = false }

exception Closed
exception Full

let is_full t =
  match t.capacity with
  | Some c -> Queue.length t.queue >= c
  | None -> false

(** Push [v]; raises [Closed] after [close].  On a full bounded channel
    the overflow policy applies: [Block] waits (and still raises
    [Closed] if the channel closes while waiting), [Reject] raises
    [Full]. *)
let push t v =
  Mutex.lock t.mutex;
  let rec wait () =
    if t.closed then begin
      Mutex.unlock t.mutex;
      raise Closed
    end
    else if is_full t then
      match t.policy with
      | Reject ->
        Mutex.unlock t.mutex;
        raise Full
      | Block ->
        Condition.wait t.nonfull t.mutex;
        wait ()
    else begin
      Queue.push v t.queue;
      let n = Queue.length t.queue in
      if n > t.high_water then t.high_water <- n;
      Condition.signal t.nonempty;
      Mutex.unlock t.mutex
    end
  in
  wait ()

(** Block until an element is available; [None] once the channel is
    closed and drained. *)
let pop t =
  Mutex.lock t.mutex;
  let rec wait () =
    if not (Queue.is_empty t.queue) then begin
      let v = Queue.pop t.queue in
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
      wait ()
    end
  in
  wait ()

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

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

(* Single-assignment synchronization cell (reply slot for API calls). *)
module Ivar = struct
  type 'a t = {
    mutable value : 'a option;
    mutex : Mutex.t;
    filled : Condition.t;
  }

  let create () =
    { value = None; mutex = Mutex.create (); filled = Condition.create () }

  let fill t v =
    Mutex.lock t.mutex;
    (match t.value with
    | Some _ ->
      Mutex.unlock t.mutex;
      invalid_arg "Ivar.fill: already filled"
    | None ->
      t.value <- Some v;
      Condition.broadcast t.filled;
      Mutex.unlock t.mutex)

  let read t =
    Mutex.lock t.mutex;
    let rec wait () =
      match t.value with
      | Some v ->
        Mutex.unlock t.mutex;
        v
      | None ->
        Condition.wait t.filled t.mutex;
        wait ()
    in
    wait ()

  (** [read_timeout t d] — the value, or [None] if none arrives within
      [d] seconds.  Stdlib conditions have no timed wait, so the slow
      path polls with exponential backoff (50µs doubling to 5ms): a
      promptly filled ivar is picked up within microseconds, and an
      abandoned one costs a handful of wakeups before the deadline
      verdict.  The deadline is a floor — a value arriving just after
      expiry may still be returned, never the reverse. *)
  let read_timeout t d =
    let deadline = Unix.gettimeofday () +. d in
    let rec wait delay =
      Mutex.lock t.mutex;
      match t.value with
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

(* Countdown latch: event-dispatch completion barrier. *)
module Latch = struct
  type t = {
    mutable remaining : int;
    mutex : Mutex.t;
    zero : Condition.t;
  }

  let create n = { remaining = n; mutex = Mutex.create (); zero = Condition.create () }

  let count_down t =
    Mutex.lock t.mutex;
    t.remaining <- t.remaining - 1;
    if t.remaining <= 0 then Condition.broadcast t.zero;
    Mutex.unlock t.mutex

  let wait t =
    Mutex.lock t.mutex;
    while t.remaining > 0 do
      Condition.wait t.zero t.mutex
    done;
    Mutex.unlock t.mutex
end
