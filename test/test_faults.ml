(* Regression tests for the fault-tolerant runtime (docs/RUNTIME.md):
   bounded channels with backpressure, [Ivar.read_timeout], the deputy
   exception barrier, supervisor restarts, call deadlines, kernel-lock
   release on exception, and the in-flight accounting of refused
   deliveries.  Each scenario pins a failure mode that used to wedge
   the runtime — a hang here IS the regression. *)

open Shield_openflow
open Shield_net
open Shield_controller

(* Bounded channels -------------------------------------------------------- *)

let test_channel_capacity () =
  let ch = Channel.create ~capacity:2 () in
  Channel.push ch 1;
  Channel.push ch 2;
  Alcotest.(check (option int)) "pop frees a slot" (Some 1) (Channel.pop ch);
  Channel.push ch 3;
  Alcotest.(check int) "depth back at capacity" 2 (Channel.length ch);
  Alcotest.(check int) "high-water mark" 2 (Channel.high_water ch);
  Alcotest.(check bool) "capacity accessor" true (Channel.capacity ch = Some 2);
  Alcotest.(check bool) "capacity must be positive" true
    (match Channel.create ~capacity:0 () with
    | (_ : int Channel.t) -> false
    | exception Invalid_argument _ -> true)

let test_channel_block_backpressure () =
  let ch = Channel.create ~capacity:1 () in
  Channel.push ch 1;
  let second_done = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Channel.push ch 2;
        Atomic.set second_done true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "pusher parked on full channel" false
    (Atomic.get second_done);
  Alcotest.(check int) "depth capped at capacity" 1 (Channel.length ch);
  Alcotest.(check (option int)) "first out" (Some 1) (Channel.pop ch);
  Thread.join th;
  Alcotest.(check bool) "pusher resumed after pop" true
    (Atomic.get second_done);
  Alcotest.(check (option int)) "second out" (Some 2) (Channel.pop ch);
  Alcotest.(check int) "bounded queue never overfilled" 1
    (Channel.high_water ch)

let test_channel_close_wakes_pusher () =
  let ch = Channel.create ~capacity:1 () in
  Channel.push ch 1;
  let outcome = ref `Pending in
  let th =
    Thread.create
      (fun () ->
        match Channel.push ch 2 with
        | () -> outcome := `Pushed
        | exception Channel.Closed -> outcome := `Closed)
      ()
  in
  Thread.delay 0.05;
  Channel.close ch;
  Thread.join th;
  Alcotest.(check bool) "blocked pusher woken with Closed" true
    (!outcome = `Closed);
  Alcotest.(check (option int)) "pending element survives close" (Some 1)
    (Channel.pop ch);
  Alcotest.(check (option int)) "then drained" None (Channel.pop ch)

let test_ivar_read_timeout () =
  let iv = Channel.Ivar.create () in
  Alcotest.(check (option int)) "empty ivar times out" None
    (Channel.Ivar.read_timeout iv 0.02);
  Channel.Ivar.fill iv 42;
  Alcotest.(check (option int)) "filled ivar returns" (Some 42)
    (Channel.Ivar.read_timeout iv 0.02);
  let iv2 = Channel.Ivar.create () in
  let th =
    Thread.create
      (fun () ->
        Thread.delay 0.03;
        Channel.Ivar.fill iv2 7)
      ()
  in
  Alcotest.(check (option int)) "value arriving before the deadline wins"
    (Some 7)
    (Channel.Ivar.read_timeout iv2 5.);
  Thread.join th

(* Runtime fault paths ----------------------------------------------------- *)

let mk_kernel () = Kernel.create (Dataplane.create (Topology.linear 2))

let install () =
  Api.Install_flow
    (1, Flow_mod.add ~match_:Match_fields.wildcard_all ~actions:[] ())

let pkt_in () =
  Events.Packet_in
    { Message.dpid = 1; in_port = 1; packet = Packet.arp ~src:0xA ~dst:0xB ();
      reason = Message.No_match; buffer_id = None }

let is_failed = function Api.Failed _ -> true | _ -> false

(* A checker raising mid-decision must surface as [Api.Failed] through
   the deputy barrier, never as a hung reply — and the runtime must
   keep serving afterwards. *)
let test_checker_raise_becomes_failed () =
  let raising =
    { Api.allow_all with
      Api.check =
        (fun call ->
          match call with
          | Api.Install_flow _ -> failwith "checker boom"
          | _ -> Api.Allow) }
  in
  let app = App.make "victim" in
  let rt =
    Runtime.create ~mode:(Runtime.Isolated { ksd_threads = 2 }) (mk_kernel ())
      [ (app, raising) ]
  in
  let ctx = Runtime.instance_ctx rt "victim" in
  Alcotest.(check bool) "raise converted to Failed" true
    (is_failed (ctx.App.call (install ())));
  let fr = Runtime.fault_report rt in
  Alcotest.(check bool) "barrier counted the failure" true
    (fr.Runtime.failures >= 1);
  Alcotest.(check bool) "runtime still live" true
    (match ctx.App.call Api.Read_topology with
    | Api.Topology_of _ -> true
    | _ -> false);
  Runtime.shutdown rt

(* A kernel call raising under the kernel lock (transaction and
   single-call paths) must release the lock — the next call would
   deadlock forever otherwise. *)
let test_kernel_raise_releases_kmutex_monolithic () =
  let app = App.make "mono" in
  let rt =
    Runtime.create ~mode:Runtime.Monolithic (mk_kernel ())
      [ (app, Api.allow_all) ]
  in
  let ctx = Runtime.instance_ctx rt "mono" in
  Fun.protect ~finally:Faults.disarm (fun () ->
      Faults.configure ~kernel:1.0 ();
      Alcotest.(check bool) "txn propagates the kernel fault" true
        (match ctx.App.transaction [ install () ] with
        | exception Faults.Injected _ -> true
        | _ -> false);
      Alcotest.(check bool) "single call propagates the kernel fault" true
        (match ctx.App.call (install ()) with
        | exception Faults.Injected _ -> true
        | _ -> false));
  (* Disarmed: both paths must have released the kernel lock. *)
  Alcotest.(check bool) "kernel lock released after txn fault" true
    (ctx.App.call (install ()) = Api.Done);
  Alcotest.(check bool) "transactions work again" true
    (match ctx.App.transaction [ install () ] with Ok _ -> true | _ -> false);
  Runtime.shutdown rt

let test_kernel_raise_isolated_txn () =
  let app = App.make "iso" in
  let rt =
    Runtime.create ~mode:(Runtime.Isolated { ksd_threads = 1 }) (mk_kernel ())
      [ (app, Api.allow_all) ]
  in
  let ctx = Runtime.instance_ctx rt "iso" in
  Fun.protect ~finally:Faults.disarm (fun () ->
      Faults.configure ~kernel:1.0 ();
      Alcotest.(check bool) "deputy barrier converts txn fault to Error" true
        (match ctx.App.transaction [ install () ] with
        | Error _ -> true
        | Ok _ -> false));
  Alcotest.(check bool) "deputy and kernel lock survive" true
    (ctx.App.call (install ()) = Api.Done);
  let fr = Runtime.fault_report rt in
  Alcotest.(check bool) "failure counted" true (fr.Runtime.failures >= 1);
  Runtime.shutdown rt

(* A killed deputy drops the popped request on the floor: the caller
   must be saved by its deadline, the supervisor must restart the
   deputy, and the pool must serve again once the faults stop. *)
let test_deputy_kill_deadline_and_restart () =
  let app = App.make "deadline" in
  let config =
    { Runtime.default_config with
      Runtime.call_deadline = Some 0.15;
      restart_budget = 16 }
  in
  let rt =
    Runtime.create ~config
      ~mode:(Runtime.Isolated { ksd_threads = 2 })
      (mk_kernel ())
      [ (app, Api.allow_all) ]
  in
  let ctx = Runtime.instance_ctx rt "deadline" in
  Fun.protect ~finally:Faults.disarm (fun () ->
      Faults.configure ~deputy:1.0 ();
      Alcotest.(check bool) "dropped request expires at the deadline" true
        (ctx.App.call (install ()) = Api.Failed "deadline"));
  let fr = Runtime.fault_report rt in
  Alcotest.(check bool) "supervisor restarted the deputy" true
    (fr.Runtime.restarts >= 1);
  Alcotest.(check bool) "deadline expiry counted" true
    (fr.Runtime.deadlines >= 1);
  Alcotest.(check bool) "pool recovered" true
    (ctx.App.call (install ()) = Api.Done);
  Runtime.shutdown rt

(* A delivery to a shut-down runtime is refused and counted, and
   [drain] afterwards returns. *)
let test_feed_after_shutdown () =
  let app =
    App.make ~subscriptions:[ Api.E_packet_in ] ~handle:(fun _ _ -> ()) "late"
  in
  let rt =
    Runtime.create
      ~mode:(Runtime.Isolated { ksd_threads = 1 })
      (mk_kernel ())
      [ (app, Api.allow_all) ]
  in
  let gauge_names = List.map fst (Metrics.gauge_report ()) in
  Alcotest.(check bool) "queue gauges registered while live" true
    (List.mem "queue:ksd-reqs" gauge_names);
  Runtime.feed rt (pkt_in ());
  Runtime.drain rt;
  Runtime.shutdown rt;
  Runtime.feed rt (pkt_in ());
  Runtime.drain rt;
  (* Reaching this line is the assertion: drain returned. *)
  Alcotest.(check bool) "the refused delivery is counted" true
    ((Runtime.fault_report rt).Runtime.rejections >= 1);
  Alcotest.(check bool) "gauges unregistered at shutdown" false
    (List.mem_assoc "queue:ksd-reqs" (Metrics.gauge_report ()))

(* Drain and shutdown must terminate with every fault site armed. *)
let test_drain_shutdown_under_faults () =
  let handled = Atomic.make 0 in
  let app =
    App.make
      ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        Atomic.incr handled;
        ignore (ctx.App.call (install ())))
      "stormy"
  in
  let config =
    { Runtime.default_config with
      Runtime.call_deadline = Some 0.1;
      restart_budget = 1_000 }
  in
  Fun.protect ~finally:Faults.disarm (fun () ->
      Faults.configure ~seed:11 ~checker:0.1 ~kernel:0.1 ~deputy:0.05 ();
      let rt =
        Runtime.create ~config
          ~mode:(Runtime.Isolated { ksd_threads = 2 })
          (mk_kernel ())
          [ (app, Faults.wrap_checker Api.allow_all) ]
      in
      for _ = 1 to 100 do
        Runtime.feed rt (pkt_in ())
      done;
      Runtime.drain rt;
      Runtime.shutdown rt);
  (* Reaching this line is the assertion: neither drain nor shutdown
     hung under injected faults. *)
  Alcotest.(check bool) "runtime made progress" true (Atomic.get handled >= 0)

let suite =
  [ Alcotest.test_case "channel: capacity bounds depth" `Quick
      test_channel_capacity;
    Alcotest.test_case "channel: Block policy parks the pusher" `Quick
      test_channel_block_backpressure;
    Alcotest.test_case "channel: close wakes blocked pushers" `Quick
      test_channel_close_wakes_pusher;
    Alcotest.test_case "ivar: read_timeout" `Quick test_ivar_read_timeout;
    Alcotest.test_case "deputy barrier: checker raise becomes Failed" `Quick
      test_checker_raise_becomes_failed;
    Alcotest.test_case "kmutex released on kernel fault (monolithic)" `Quick
      test_kernel_raise_releases_kmutex_monolithic;
    Alcotest.test_case "kmutex released on kernel fault (isolated txn)" `Quick
      test_kernel_raise_isolated_txn;
    Alcotest.test_case "deputy kill: deadline reply + supervisor restart"
      `Quick test_deputy_kill_deadline_and_restart;
    Alcotest.test_case "feed after shutdown leaks no in-flight count" `Quick
      test_feed_after_shutdown;
    Alcotest.test_case "drain/shutdown terminate under armed faults" `Quick
      test_drain_shutdown_under_faults ]
