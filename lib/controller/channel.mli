(** Blocking channel, optionally bounded, with a lock-free hand-off to
    a spinning popper.

    The request queue of the isolation architecture (§VI-A of the
    paper): callers push API requests, and the Kernel Service Deputies,
    each on its own domain, pop and serve them, filling each call's
    {!Ivar}.

    Without [capacity] a channel is unbounded and pushes never block.
    With one, a full channel parks the pusher until a consumer makes
    room (backpressure — a flooding producer saturates its own queue
    instead of the heap).  The failure model built on these primitives
    is documented in docs/RUNTIME.md.

    Spin-then-park: {!pop}, {!Ivar.read} and {!Ivar.read_timeout} are
    meant for a counterpart on another domain.  Such a waiter spins on
    one atomic for at most {!spin_ns} before it parks, so an item that
    lands while the waiter still runs skips the OS wake, and the common
    case takes no lock: a push onto an empty, open queue hands its item
    to the spinning popper by one compare-and-set, and {!Ivar.fill} is
    one compare-and-set.  Other pushes queue under the channel's mutex;
    a reader that outlasts its spin parks on a mutex and condition that
    every ivar shares.  The spin yields the CPU on every turn, so a
    counterpart the scheduler has put on the waiter's core still runs.
    A waiter on its counterpart's own domain holds that domain's lock
    while it spins, so it stalls the thread it waits for by up to the
    spin bound (docs/RUNTIME.md §6). *)

val spin_ns : int
(** The spin bound, in nanoseconds of wall-clock time (10 µs). *)

type 'a t

exception Closed

val create : ?capacity:int -> unit -> 'a t
(** [capacity] bounds the queue ([None] = unbounded; must be > 0). *)

val push : 'a t -> 'a -> unit
(** Enqueue, parking while the channel is full; raises [Closed] after
    {!close} (including while parked on a full channel). *)

val pop : 'a t -> 'a option
(** Block until an element is available; [None] once the channel is
    closed and drained.  A popper that finds the queue empty spins
    first, unless another popper of this channel already spins: at most
    one spins at a time, and {!push} hands that spinner its item, or,
    when it must queue, sends the spinner to the queue instead of
    signalling. *)

val length : 'a t -> int
(** Current queue depth.  An item handed to a spinning popper never
    counts. *)

val high_water : 'a t -> int
(** Worst queue depth observed since creation; hand-offs never count. *)

val capacity : 'a t -> int option

val close : 'a t -> unit
(** Pending elements remain poppable, further pushes raise, blocked
    poppers and blocked pushers are woken. *)

(** Single-assignment synchronization cell (reply slot for API calls). *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** One compare-and-set; it takes the shared park's mutex only while
      some reader is parked.
      @raise Invalid_argument when already filled. *)

  val read : 'a t -> 'a
  (** Block until filled.  Meant for a value filled from another
      domain: the reader spins before it parks, so a reader on the
      filler's own domain holds up the filler for the spin bound. *)

  val read_timeout : 'a t -> float -> 'a option
  (** [read_timeout t d] — the value, or [None] if none arrives within
      [d] seconds of the monotonic clock.  Only for a value filled from another domain: the
      reader always spins before its first poll, so a reader on the
      filler's own domain would stall it for the spin bound.  The slow
      path polls with exponential backoff (50µs doubling to 5ms), so
      the deadline verdict can lag expiry by at most one backoff step;
      a value arriving just after expiry may still be returned, never
      the reverse. *)
end
