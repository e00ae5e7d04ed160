(* Fault-injection lab: prove the isolated runtime degrades gracefully
   instead of deadlocking.

   With deputy-kill, checker-raise and kernel-raise faults armed
   (Shield_controller.Faults), drive 10k+ API calls through KSD pools
   of four and of two deputies and check the liveness invariants of
   docs/RUNTIME.md:

   - every handled event's API call receives a reply
     (Done / Denied / Failed — including "deadline"), i.e. no app
     thread ever hangs on a dead deputy;
   - [drain] and [shutdown] terminate;
   - the supervisor kept the deputy pool alive (restarts happened and
     the run still completed).

   `faults` prints the full report; `faults-smoke` is the fast tier-1
   gate (no timing assertions, exits nonzero on any violated
   invariant, and a watchdog turns a hang into a failure instead of a
   stuck CI job). *)

open Shield_openflow
open Shield_net
open Shield_controller

let mode_name = function
  | Runtime.Monolithic -> "monolithic"
  | Runtime.Isolated { ksd_threads } ->
    Printf.sprintf "isolated (%d KSD threads)" ksd_threads

type tally = {
  handled : int Atomic.t;  (** Handler invocations started. *)
  done_ : int Atomic.t;
  denied : int Atomic.t;
  failed : int Atomic.t;
}

let tally_total y =
  Atomic.get y.done_ + Atomic.get y.denied + Atomic.get y.failed

(* One app: on every packet-in, install a small rotating set of flows
   so the call stream exercises the checker, the kernel and the reply
   path.  The reply is tallied the moment [ctx.call] returns — which
   the failure model guarantees it always does. *)
let make_app y i =
  App.make
    ~subscriptions:[ Api.E_packet_in ]
    ~handle:(fun ctx ev ->
      match ev with
      | Events.Packet_in pi ->
        Atomic.incr y.handled;
        let fm =
          Flow_mod.add
            ~match_:
              (Match_fields.make
                 ~tp_dst:(1024 + ((Atomic.get y.handled + i) mod 64))
                 ())
            ~actions:[ Action.Output 1 ] ()
        in
        (match ctx.App.call (Api.Install_flow (pi.Message.dpid, fm)) with
        | Api.Denied _ -> Atomic.incr y.denied
        | Api.Failed _ -> Atomic.incr y.failed
        | _ -> Atomic.incr y.done_)
      | _ -> ())
    (Printf.sprintf "faulty-%d" i)

let pkt_in dpid =
  Events.Packet_in
    { Message.dpid; in_port = 1; packet = Packet.arp ~src:0xA ~dst:0xB ();
      reason = Message.No_match; buffer_id = None }

(** Drive [events] packet-ins through [apps] apps under [mode] with all
    three fault sites armed.  Returns the list of violated invariants
    (empty = pass) and the mode's measurements for BENCH_FAULTS.json. *)
let run_mode ~mode ~apps ~events : string list * Bench_util.Json.t =
  let topo = Topology.linear 4 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let y =
    { handled = Atomic.make 0; done_ = Atomic.make 0; denied = Atomic.make 0;
      failed = Atomic.make 0 }
  in
  let config =
    { Runtime.default_config with
      Runtime.call_deadline = Some 0.1;
      restart_budget = 1_000;
      ev_capacity = Some 256;
      ev_policy = Channel.Block;
      req_capacity = Some 1_024 }
  in
  (* Checker faults also fire on the implicit Receive_event check, so a
     slice of events is suppressed fail-closed; the accounting below is
     per *handled* event, which stays exact. *)
  let pairs =
    List.init apps (fun i -> (make_app y i, Faults.wrap_checker Api.allow_all))
  in
  Faults.reset_counts ();
  Faults.configure ~seed:7 ~checker:0.02 ~kernel:0.02 ~deputy:0.002 ();
  let rt =
    Fun.protect ~finally:Faults.disarm (fun () ->
        let rt = Runtime.create ~config ~mode kernel pairs in
        for i = 1 to events do
          Runtime.feed rt (pkt_in (1 + (i mod 4)))
        done;
        Runtime.drain rt;
        rt)
  in
  (* Faults disarmed: queue gauges and reports reflect the run. *)
  let gauges = Shield_controller.Metrics.gauge_report () in
  let fr = Runtime.fault_report rt in
  Runtime.shutdown rt;
  let calls, denials, delivered, suppressed = Runtime.stats rt in
  Bench_util.subhr (mode_name mode);
  Fmt.pr "events fed: %d x %d apps; delivered=%d suppressed=%d@." events apps
    delivered suppressed;
  Fmt.pr "handled=%d replies: done=%d denied=%d failed=%d (runtime: calls=%d \
          denials=%d)@."
    (Atomic.get y.handled) (Atomic.get y.done_) (Atomic.get y.denied)
    (Atomic.get y.failed) calls denials;
  Runtime.pp_fault_report Fmt.stdout fr;
  Faults.pp_report Fmt.stdout ();
  List.iter
    (fun (name, g) ->
      Fmt.pr "%-24s depth=%d high-water=%d@." name g.Metrics.depth
        g.Metrics.hwm)
    gauges;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if Atomic.get y.handled <> tally_total y then
    fail "%s: %d handled events but %d replies — a call hung or was lost"
      (mode_name mode) (Atomic.get y.handled) (tally_total y);
  if Atomic.get y.handled + suppressed < events * apps then
    fail "%s: handled(%d) + suppressed(%d) < dispatched(%d)" (mode_name mode)
      (Atomic.get y.handled) suppressed (events * apps);
  if Faults.injected Faults.Deputy > 0 && fr.Runtime.restarts = 0 then
    fail "%s: deputies were killed but never restarted" (mode_name mode);
  let module J = Bench_util.Json in
  ( !failures,
    J.Obj
      [ ("mode", J.Str (mode_name mode));
        ("events", J.Int (events * apps));
        ("handled", J.Int (Atomic.get y.handled));
        ("done", J.Int (Atomic.get y.done_));
        ("denied", J.Int (Atomic.get y.denied));
        ("failed", J.Int (Atomic.get y.failed));
        ("delivered", J.Int delivered);
        ("suppressed", J.Int suppressed);
        ("restarts", J.Int fr.Runtime.restarts);
        ("deputy_faults", J.Int (Faults.injected Faults.Deputy)) ] )

let modes = [ Runtime.Isolated { ksd_threads = 4 };
              Runtime.Isolated { ksd_threads = 2 } ]

(** Watchdog: a hang is the very bug this harness exists to catch, so
    turn it into a loud exit instead of a stuck run.  The thread dies
    with the process on success. *)
let arm_watchdog seconds =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay seconds;
         Fmt.epr "fault-lab WATCHDOG: still running after %.0fs — runtime \
                  hung under injected faults@."
           seconds;
         exit 3)
       ())

let emit_json ~gate per_mode =
  let module J = Bench_util.Json in
  Bench_util.write_json "BENCH_FAULTS.json"
    (J.Obj [ ("bench", J.Str gate); ("modes", J.Arr per_mode) ])

let run () =
  Bench_util.hr
    "Fault injection: supervised KSD pool under checker/kernel/deputy faults";
  arm_watchdog 300.;
  let results = List.map (fun mode -> run_mode ~mode ~apps:4 ~events:2500) modes in
  let failures = List.concat_map fst results in
  emit_json ~gate:"fault-lab" (List.map snd results);
  (match failures with
  | [] -> Fmt.pr "@.fault-lab: all liveness invariants held (10k calls/mode)@."
  | fs -> List.iter (fun f -> Fmt.epr "fault-lab FAILURE: %s@." f) fs);
  if failures <> [] then exit 1

(** Tier-1 gate: same invariants, smaller volume. *)
let smoke () =
  Bench_util.hr "Fault injection: smoke";
  arm_watchdog 120.;
  let results = List.map (fun mode -> run_mode ~mode ~apps:4 ~events:600) modes in
  let failures = List.concat_map fst results in
  emit_json ~gate:"faults-smoke" (List.map snd results);
  match failures with
  | [] -> Fmt.pr "@.faults-smoke ok@."
  | fs ->
    List.iter (fun f -> Fmt.epr "faults-smoke FAILURE: %s@." f) fs;
    exit 1
