(* Fault-injection lab: prove the isolated runtime degrades gracefully
   instead of deadlocking.

   With deputy-kill, checker-raise and kernel-raise faults armed
   (Shield_controller.Faults), drive 10k+ API calls through KSD pools
   of four and of two deputies and check the liveness invariants of
   docs/RUNTIME.md, as [Shield_workload.Drill.fault_run] states them:

   - every handled event's API call receives a reply
     (Done / Denied / Failed — including "deadline"), i.e. no app
     thread ever hangs on a dead deputy;
   - every dispatched event was handled or suppressed fail-closed;
   - [drain] and [shutdown] terminate;
   - the supervisor kept the deputy pool alive (restarts happened and
     the run still completed).

   `faults` prints the full report; `faults-smoke` is the fast tier-1
   gate (no timing assertions, exits nonzero on any violated
   invariant, and a watchdog turns a hang into a failure instead of a
   stuck CI job).  `sdnshield faults-demo` runs the same drill. *)

open Shield_controller
module Drill = Shield_workload.Drill

(** Drive [events] packet-ins through the drill's four apps under
    [mode] with all three fault sites armed, record the violated
    invariants, and return the mode's measurements for
    BENCH_FAULTS.json. *)
let run_mode ~mode ~events : Telemetry.Json.t =
  let r = Drill.fault_run ~seed:7 ~mode ~events in
  Bench_util.subhr (Drill.mode_name mode);
  Fmt.pr "%a" Drill.pp_fault_run r;
  List.iter (Bench_util.fail "%s") r.Drill.violations;
  let module J = Telemetry.Json in
  J.Obj
    [ ("mode", J.Str (Drill.mode_name mode));
      ("events", J.Num (float (events * r.Drill.apps)));
      ("handled", J.Num (float r.Drill.handled));
      ("done", J.Num (float r.Drill.done_));
      ("denied", J.Num (float r.Drill.denied));
      ("failed", J.Num (float r.Drill.failed));
      ("delivered", J.Num (float r.Drill.delivered));
      ("suppressed", J.Num (float r.Drill.suppressed));
      ("restarts", J.Num (float r.Drill.report.Runtime.restarts));
      ("deputy_faults", J.Num (float (List.assoc "deputy-kill" r.Drill.injected))) ]

let modes = [ Runtime.Isolated { ksd_threads = 4 };
              Runtime.Isolated { ksd_threads = 2 } ]

let run_gate ~gate ~events =
  let per_mode = List.map (fun mode -> run_mode ~mode ~events) modes in
  let module J = Telemetry.Json in
  Bench_util.write_json "BENCH_FAULTS.json"
    (J.Obj [ ("bench", J.Str gate); ("modes", J.Arr per_mode) ])

let run () =
  Bench_util.start_gate
    ~title:
      "Fault injection: supervised KSD pool under checker/kernel/deputy faults"
    "fault-lab" 300.;
  run_gate ~gate:"fault-lab" ~events:2500;
  Bench_util.report "fault-lab"
    ~detail:": all liveness invariants held (10k calls/mode)"

(** Tier-1 gate: same invariants, smaller volume. *)
let smoke () =
  Bench_util.start_gate ~title:"Fault injection: smoke" "faults-smoke" 120.;
  run_gate ~gate:"faults-smoke" ~events:600;
  Bench_util.report "faults-smoke"
