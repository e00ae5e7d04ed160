(* Probabilistic fault injection for the isolated runtime.

   The paper's isolation claim (§VI) is that a misbehaving app — or a
   bug anywhere on the mediation path — must not take the runtime
   down.  Claims like that are only credible when exercised, so the
   runtime carries compiled-in fault points at the three places a
   failure historically wedged it:

   - [Checker]      raise inside a permission checker (via
                    {!wrap_checker});
   - [Kernel_exec]  raise inside [Kernel.exec], under the kernel lock;
   - [Deputy]       kill a Kernel Service Deputy between popping a
                    request and serving it, so the request is dropped
                    on the floor (the reply ivar is never filled and
                    the caller must be saved by its deadline).

   The live-update pipeline (docs/CHURN.md) adds three swap sites, one
   per stage a hot-swap transaction historically could die in:

   - [Swap_verify]   budget exhaustion (or a crash) mid-verify, while
                     certifying the reconciled result;
   - [Swap_compile]  kill mid-compile, while building the new epoch's
                     engine and its automaton;
   - [Swap_publish]  deputy death at publish time, between preparing
                     the new epoch records and swapping them in.

   A fault at any swap site must leave the deployment on the prior
   epoch (the rollback invariant the market-lab gate proves).

   Every point is guarded by one atomic [armed] flag: disarmed (the
   default, and the state every test/bench must restore), [point] is a
   single atomic load — negligible on the hot path.  The generator is
   a seeded counter hash, so a given configuration replays the same
   fault schedule: failures found by the harness are reproducible.

   This is process-global state (like the Metrics registries): arm it
   around a scenario, disarm in a [Fun.protect] finally.  The harness
   that drives it is `bench/main.exe faults` / `faults-smoke`. *)

type site =
  | Checker
  | Kernel_exec
  | Deputy
  | Swap_verify
  | Swap_compile
  | Swap_publish

let site_name = function
  | Checker -> "checker"
  | Kernel_exec -> "kernel-exec"
  | Deputy -> "deputy-kill"
  | Swap_verify -> "swap-verify"
  | Swap_compile -> "swap-compile"
  | Swap_publish -> "swap-publish"

exception Injected of string
(** The injected failure.  Deliberately not an exception the runtime
    knows about: fault handling must be generic over exceptions, not
    pattern-matched to the harness. *)

type config = {
  checker : float;  (** P(raise) per checker decision. *)
  kernel : float;  (** P(raise) per kernel execution. *)
  deputy : float;  (** P(kill) per request a deputy pops. *)
  swap_verify : float;  (** P(raise) per hot-swap verify stage. *)
  swap_compile : float;  (** P(raise) per hot-swap compile stage. *)
  swap_publish : float;  (** P(raise) per hot-swap publish step. *)
}

let armed = Atomic.make false

let config =
  Atomic.make
    { checker = 0.; kernel = 0.; deputy = 0.; swap_verify = 0.;
      swap_compile = 0.; swap_publish = 0. }

let seed_cell = Atomic.make 0
let sequence = Atomic.make 0

let counters = Array.init 6 (fun _ -> Atomic.make 0)

let counter_of = function
  | Checker -> counters.(0)
  | Kernel_exec -> counters.(1)
  | Deputy -> counters.(2)
  | Swap_verify -> counters.(3)
  | Swap_compile -> counters.(4)
  | Swap_publish -> counters.(5)

(* Counter hash (splitmix-style): uniform enough for Bernoulli draws,
   deterministic under a fixed seed, and safely concurrent — each draw
   consumes one ticket from the atomic sequence. *)
let mix x =
  let x = x * 0x9E3779B1 land max_int in
  let x = x lxor (x lsr 16) in
  let x = x * 0x85EBCA77 land max_int in
  x lxor (x lsr 13)

let next_float () =
  let n = Atomic.fetch_and_add sequence 1 in
  float_of_int (mix (n + Atomic.get seed_cell) land 0xFFFFFF) /. 16777216.

(** Arm the fault points.  Probabilities default to 0 (site inert);
    [seed] makes the schedule reproducible. *)
let configure ?(seed = 1) ?(checker = 0.) ?(kernel = 0.) ?(deputy = 0.)
    ?(swap_verify = 0.) ?(swap_compile = 0.) ?(swap_publish = 0.) () =
  Atomic.set config
    { checker; kernel; deputy; swap_verify; swap_compile; swap_publish };
  Atomic.set seed_cell (mix seed);
  Atomic.set sequence 0;
  Atomic.set armed true

let disarm () = Atomic.set armed false

let reset_counts () = Array.iter (fun c -> Atomic.set c 0) counters

(* An optional trip observer: health monitors and flight recorders
   subscribe to learn that a site fired, without the enforcement path
   knowing either exists.  Process-global like the rest of this
   module; observer exceptions are swallowed — telemetry must never
   change the fault schedule. *)
let observer : (site -> unit) option Atomic.t = Atomic.make None
let set_observer f = Atomic.set observer (Some f)
let clear_observer () = Atomic.set observer None

let injected site = Atomic.get (counter_of site)

let report () =
  List.map
    (fun s -> (site_name s, injected s))
    [ Checker; Kernel_exec; Deputy; Swap_verify; Swap_compile; Swap_publish ]

let pp_report ppf () =
  List.iter (fun (name, n) -> Fmt.pf ppf "faults injected: %-12s %d@." name n)
    (report ())

(** The fault point.  Disarmed: one atomic load.  Armed: a Bernoulli
    draw at the site's probability; on success the injection counter
    bumps and {!Injected} flies. *)
let point site =
  if Atomic.get armed then begin
    let c = Atomic.get config in
    let p =
      match site with
      | Checker -> c.checker
      | Kernel_exec -> c.kernel
      | Deputy -> c.deputy
      | Swap_verify -> c.swap_verify
      | Swap_compile -> c.swap_compile
      | Swap_publish -> c.swap_publish
    in
    if p > 0. && next_float () < p then begin
      Atomic.incr (counter_of site);
      (match Atomic.get observer with
      | Some f -> ( try f site with _ -> ())
      | None -> ());
      raise (Injected (site_name site))
    end
  end

(** Wrap a checker so its decision entry points pass through the
    [Checker] fault site — including the implicit [Receive_event] /
    [Read_payload_access] checks the runtime makes while vetting event
    delivery, which exercises the dispatcher-side barrier. *)
let rec wrap_checker (c : Api.checker) : Api.checker =
  { c with
    Api.check =
      (fun call ->
        point Checker;
        c.Api.check call);
    Api.check_batch =
      (* One fault point per batch: the burst is one decision entry
         into the checker, mirroring how the runtime uses it. *)
      Option.map
        (fun f calls ->
          point Checker;
          f calls)
        c.Api.check_batch;
    Api.check_transaction =
      (fun calls ->
        point Checker;
        c.Api.check_transaction calls);
    Api.explain =
      (* The explained path is a decision entry point too: traced
         runtimes must face the same fault schedule as untraced ones. *)
      Option.map
        (fun f call ->
          point Checker;
          f call)
        c.Api.explain;
    Api.snapshot =
      (* The resolved epoch-pinned checker is wrapped too, so hot-swap
         deployments face the same fault schedule as static ones.  The
         resolution itself stays fault-free: a raise there would look
         like a swap bug, not a checker fault. *)
      Option.map
        (fun f () -> wrap_checker { (f ()) with Api.snapshot = None })
        c.Api.snapshot }
