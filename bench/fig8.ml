(* Figure 8 — scalability of the SDNShield runtime: latency overhead
   as (a) the number of concurrent apps grows and (b) the per-app
   complexity (API calls issued per event) grows.

   Paper result: "the latency overhead of SDNShield increases linearly
   with the number of concurrent apps and the complexity of apps". *)

open Shield_openflow
open Shield_net
open Shield_controller
open Sdnshield

let rounds = 60

(* A synthetic app issuing [calls_per_event] statistics reads per
   received event — pure permission-engine + KSD load. *)
let load_app ~name ~calls_per_event =
  App.make
    ~subscriptions:[ Api.E_app "load-tick" ]
    ~handle:(fun ctx ev ->
      match ev with
      | Events.App_published { tag = "load-tick"; _ } ->
        for _ = 1 to calls_per_event do
          ignore (ctx.App.call (Api.Read_stats (Stats.request ~dpid:1 Stats.Port_level)))
        done
      | _ -> ())
    name

let tick = Events.App_published { source = "env"; tag = "load-tick"; payload = "" }

let manifest_src = "PERM read_statistics LIMITING PORT_LEVEL OR FLOW_LEVEL"

let latency ~shield ~apps ~calls_per_event =
  let topo = Topology.linear 4 in
  let kernel = Kernel.create (Dataplane.create topo) in
  let instances =
    List.init apps (fun i ->
        let name = Printf.sprintf "load%d" i in
        let checker =
          if shield then
            Engine.checker
              (Engine.create ~topo ~app_name:name
                 (Perm_parser.manifest_exn manifest_src))
          else Api.allow_all
        in
        (load_app ~name ~calls_per_event, checker))
  in
  let mode =
    if shield then Runtime.Isolated { ksd_threads = 2 } else Runtime.Monolithic
  in
  let rt = Runtime.create ~mode kernel instances in
  Runtime.feed_sync rt tick (* warm-up *);
  let m = Metrics.create () in
  for _ = 1 to rounds do
    Metrics.time m (fun () -> Runtime.feed_sync rt tick)
  done;
  Runtime.shutdown rt;
  (Metrics.summarize m).Metrics.median

let run () =
  Bench_util.hr "Figure 8: scalability of the latency overhead";
  Bench_util.subhr "(a) vs number of concurrent apps (10 calls/app/event)";
  let rows_a =
    List.map
      (fun apps ->
        let base = latency ~shield:false ~apps ~calls_per_event:10 in
        let shield = latency ~shield:true ~apps ~calls_per_event:10 in
        [ string_of_int apps; Bench_util.fmt_us base; Bench_util.fmt_us shield;
          Bench_util.fmt_us (shield -. base);
          Printf.sprintf "%.2f" ((shield -. base) *. 1e6 /. float_of_int apps) ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Bench_util.table
    [ "apps"; "baseline"; "SDNShield"; "overhead"; "overhead/app (us)" ]
    rows_a;
  Bench_util.subhr "(b) vs app complexity (1 app, N calls/event)";
  let rows_b =
    List.map
      (fun calls ->
        let base = latency ~shield:false ~apps:1 ~calls_per_event:calls in
        let shield = latency ~shield:true ~apps:1 ~calls_per_event:calls in
        [ string_of_int calls; Bench_util.fmt_us base; Bench_util.fmt_us shield;
          Bench_util.fmt_us (shield -. base);
          Printf.sprintf "%.2f" ((shield -. base) *. 1e6 /. float_of_int calls) ])
      [ 10; 50; 100; 200; 500; 1000 ]
  in
  Bench_util.table
    [ "calls/event"; "baseline"; "SDNShield"; "overhead"; "overhead/call (us)" ]
    rows_b;
  Fmt.pr
    "@.paper: overhead grows linearly in both dimensions (near-constant@.";
  Fmt.pr "       overhead/app and overhead/call columns confirm linearity).@."
