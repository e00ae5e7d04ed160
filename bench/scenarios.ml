(* The two end-to-end evaluation scenarios of §IX-A, runnable with and
   without SDNShield:

   - "L2 Learning Switch": the l2switch app learns host positions from
     ARP-carrying packet-ins and pins switching rules.  Under
     SDNShield, permissions are checked at listener notification and
     rule issuance.

   - "Traffic Engineering based on ALTO": the ALTO app publishes
     topology/cost info; a TE app reacts with route-changing flow-mods.
     Under SDNShield, checks happen at the ALTO listener notification,
     the data publication, the TE event notification and the TE rule
     issuance.

   Baseline = the paper's "original" controller: monolithic runtime,
   no checker.  SDNShield = thread-isolated runtime with per-app
   permission engines. *)

open Shield_net
open Shield_controller
open Shield_apps
open Sdnshield

type handle = {
  runtime : Runtime.t;
  kernel : Kernel.t;
  trigger : Events.t;  (** One scenario round. *)
  shutdown : unit -> unit;
}

let shield_checker ~topo name manifest_src =
  Engine.checker
    (Engine.create ~topo ~app_name:name (Perm_parser.manifest_exn manifest_src))

(* Busy-spin calibration: iterations per microsecond, measured once.
   Used to emulate the per-event processing weight of a production
   Java controller (the paper's OpenDaylight baseline does far more
   work per packet-in than our lean simulator). *)
let spin_per_us =
  lazy
    (let probe n =
       let t0 = Unix.gettimeofday () in
       let x = ref 0 in
       for i = 1 to n do
         x := !x lxor i
       done;
       ignore (Sys.opaque_identity !x);
       Unix.gettimeofday () -. t0
     in
     let n = 10_000_000 in
     let per_iter = probe n /. float_of_int n in
     1e-6 /. per_iter)

let spin_us us =
  let iters = int_of_float (float_of_int us *. Lazy.force spin_per_us) in
  let x = ref 0 in
  for i = 1 to iters do
    x := !x lxor i
  done;
  ignore (Sys.opaque_identity !x)

(** Wrap an app so each event costs an extra [work_us] of synthetic
    processing. *)
let with_work ~work_us (app : App.t) : App.t =
  if work_us = 0 then app
  else
    { app with
      App.handle =
        (fun ctx ev ->
          spin_us work_us;
          app.App.handle ctx ev) }

(** The L2 learning-switch scenario over [switches] switches. *)
let l2_scenario ?(work_us = 0) ~shield ~switches () : handle =
  let topo = Topology.linear switches in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let l2 = L2_switch.create () in
  let l2_app = with_work ~work_us (L2_switch.app l2) in
  let mode, checker =
    if shield then
      ( Runtime.Isolated { ksd_threads = 2 },
        shield_checker ~topo "l2switch" L2_switch.manifest_src )
    else (Runtime.Monolithic, Api.allow_all)
  in
  let runtime = Runtime.create ~mode kernel [ (l2_app, checker) ] in
  { runtime; kernel;
    trigger = Events.App_published { source = "env"; tag = "unused"; payload = "" };
    shutdown = (fun () -> Runtime.shutdown runtime) }

(** The ALTO traffic-engineering scenario. *)
let alto_scenario ~shield ~switches () : handle =
  let topo = Topology.linear switches in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  let alto = Alto.create_alto () in
  let te = Alto.create_te ~max_pairs:2 () in
  let mode, alto_checker, te_checker =
    if shield then
      ( Runtime.Isolated { ksd_threads = 2 },
        shield_checker ~topo "alto" Alto.alto_manifest_src,
        shield_checker ~topo "te" Alto.te_manifest_src )
    else (Runtime.Monolithic, Api.allow_all, Api.allow_all)
  in
  let runtime =
    Runtime.create ~mode kernel
      [ (alto.Alto.app, alto_checker); (te.Alto.app, te_checker) ]
  in
  { runtime; kernel;
    trigger =
      Events.App_published { source = "env"; tag = "alto-poll"; payload = "" };
    shutdown = (fun () -> Runtime.shutdown runtime) }

(** Median/percentile latency of [rounds] scenario rounds. *)
let latency ~rounds (h : handle) gen_event : Metrics.summary =
  let m = Metrics.create () in
  for i = 1 to rounds do
    let ev = gen_event i in
    Metrics.time m (fun () -> Runtime.feed_sync h.runtime ev)
  done;
  Metrics.summarize m
