(** Blocking channel built on Mutex + Condition, optionally bounded.

    The inter-thread communication utility of the isolation
    architecture (§VIII-B of the paper): app threads and Kernel Service
    Deputy threads exchange events and API requests through these
    queues.

    Without [capacity] a channel is unbounded and pushes never block.
    With one, a full channel applies its overflow {!policy}: [Block]
    parks the pusher until a consumer makes room (backpressure — a
    flooding producer saturates its own queue instead of the heap),
    [Reject] raises {!Full} so the caller can turn the overflow into an
    application-level error.  The failure model built on these
    primitives is documented in docs/RUNTIME.md.

    Spin-then-park: a waiter whose counterpart runs on another domain
    may pass [~spin:true] to {!pop}, and {!Ivar.read} and
    {!Ivar.read_timeout} always spin.  Such a waiter spins on an
    atomic hint for at most {!spin_ns} before parking on the condition
    as usual, so a reply that lands while the waiter still runs skips
    the OS wake.  Waits
    between threads of one domain must not spin: a spinning systhread
    holds its domain lock and stalls the thread it waits for.  Every
    state change is made under the channel's or ivar's mutex, so a
    missed hint costs one park, never a lost or duplicated item
    (docs/RUNTIME.md §6). *)

val spin_ns : int
(** The spin bound, in nanoseconds of wall-clock time (10 µs). *)

type policy =
  | Block  (** Full channel: park the pusher until space frees up. *)
  | Reject  (** Full channel: raise {!Full} immediately. *)

type 'a t

exception Closed
exception Full

val create : ?capacity:int -> ?policy:policy -> unit -> 'a t
(** [capacity] bounds the queue ([None] = unbounded; must be > 0);
    [policy] (default [Block]) selects the overflow behaviour. *)

val push : 'a t -> 'a -> unit
(** Enqueue; raises [Closed] after {!close} (including while blocked on
    a full channel), [Full] on a full [Reject]-policy channel. *)

val pop : ?spin:bool -> 'a t -> 'a option
(** Block until an element is available; [None] once the channel is
    closed and drained.  With [~spin:true] (default [false]) the popper
    spins first, unless another popper of this channel already spins:
    at most one spins at a time, and {!push} skips its wake-up signal
    when that spinner will take the item. *)

val length : 'a t -> int
(** Current queue depth. *)

val high_water : 'a t -> int
(** Worst queue depth observed since creation. *)

val capacity : 'a t -> int option

val close : 'a t -> unit
(** Pending elements remain poppable, further pushes raise, blocked
    poppers and blocked pushers are woken. *)

(** Single-assignment synchronization cell (reply slot for API calls). *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** @raise Invalid_argument when already filled. *)

  val read : 'a t -> 'a
  (** Block until filled.  Meant for a value filled from another
      domain: the reader spins before it parks, so a reader on the
      filler's own domain holds up the filler for the spin bound. *)

  val read_timeout : 'a t -> float -> 'a option
  (** [read_timeout t d] — the value, or [None] if none arrives within
      [d] seconds.  Only for a value filled from another domain: the
      reader always spins before its first poll, so a reader on the
      filler's own domain would stall it for the spin bound.  The slow
      path polls with exponential backoff (50µs doubling to 5ms), so
      the deadline verdict can lag expiry by at most one backoff step;
      a value arriving just after expiry may still be returned, never
      the reverse. *)
end

(** Countdown latch: event-dispatch completion barrier. *)
module Latch : sig
  type t

  val create : int -> t
  val count_down : t -> unit
  val wait : t -> unit
end
