(* Regression tests for the fault-tolerant runtime (docs/RUNTIME.md):
   bounded channels with backpressure, [Ivar.read_timeout], the deputy
   exception barrier, supervisor restarts, call deadlines, kernel-lock
   release on exception, the in-flight accounting of refused
   deliveries, and the request channel's hand-off under racing
   pushers, poppers and [close].  Each scenario pins a failure mode
   that used to wedge the runtime — a hang here IS the regression. *)

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

(* Racing pushers, poppers and close (docs/RUNTIME.md §6) ------------------ *)

(* A push hands its item to a spinning popper only onto an empty, open
   queue.  These cases race pushes against spins and parks, so items go
   both ways. *)

let pushers = 4

(* An item is [pusher * stride + seq]. *)
let stride = 1_000_000

(* One popper domain and four pusher threads pausing 0–30 µs before each
   increasing tag: a push after a pause past the popper's spin finds it
   parked and queues, one after a shorter pause is handed to the
   spinner.  An item handed past a queued one pops out of order. *)
let test_channel_race_fifo () =
  let per_pusher = 5_000 in
  let ch = Channel.create () in
  let popper =
    Domain.spawn (fun () ->
        let last = Array.make pushers (-1) in
        let rec loop n disorder =
          match Channel.pop ch with
          | None -> (n, disorder)
          | Some v ->
            let p = v / stride and seq = v mod stride in
            let disorder = if seq = last.(p) + 1 then disorder else disorder + 1 in
            last.(p) <- seq;
            loop (n + 1) disorder
        in
        loop 0 0)
  in
  let push_all p () =
    for seq = 0 to per_pusher - 1 do
      Test_util.busy_us (((seq * 13) + (p * 7)) mod 31);
      Channel.push ch ((p * stride) + seq)
    done
  in
  List.iter Thread.join
    (List.init pushers (fun p -> Thread.create (push_all p) ()));
  Channel.close ch;
  let n, disorder = Domain.join popper in
  Alcotest.(check int) "items popped" (pushers * per_pusher) n;
  Alcotest.(check int) "items out of their pusher's order" 0 disorder;
  Alcotest.(check bool) "some pushes queued" true (Channel.high_water ch >= 1)

(* Two popper domains and four pusher threads pushing until [Closed],
   which yield to each other every 16 pushes.  Pusher 0 closes the
   channel mid-run, waits for the poppers to drain the queue, and
   pushes again 3 µs later, while the popper that took the last item
   still spins on the empty queue.  Every push that returned pops
   exactly once, the push that raised never pops, no push begun after
   [close] returned succeeds, and both poppers end on [None] (a hang
   here is the failure). *)
let test_channel_race_close () =
  let close_at = 2_600 in
  let ch = Channel.create () in
  let popper () =
    Domain.spawn (fun () ->
        let rec loop acc =
          match Channel.pop ch with None -> acc | Some v -> loop (v :: acc)
        in
        loop [])
  in
  let poppers = [ popper (); popper () ] in
  let closed = Atomic.make false in
  let late = Atomic.make 0 in
  let returned = Array.make pushers 0 in
  let push_all p () =
    let rec go seq =
      Test_util.busy_us (((seq * 7) + p) mod 13);
      if p = 0 && seq = close_at then begin
        Channel.close ch;
        Atomic.set closed true;
        while Channel.length ch > 0 do
          Domain.cpu_relax ()
        done;
        Test_util.busy_us 3
      end;
      let after_close = Atomic.get closed in
      match Channel.push ch ((p * stride) + seq) with
      | () ->
        if after_close then Atomic.incr late;
        if seq mod 16 = 15 then Thread.yield ();
        go (seq + 1)
      | exception Channel.Closed -> returned.(p) <- seq
    in
    go 0
  in
  List.iter Thread.join
    (List.init pushers (fun p -> Thread.create (push_all p) ()));
  let popped = Array.make pushers [] in
  List.iter
    (fun d ->
      List.iter
        (fun v -> popped.(v / stride) <- (v mod stride) :: popped.(v / stride))
        (Domain.join d))
    poppers;
  Alcotest.(check int) "pushes begun after close that returned" 0
    (Atomic.get late);
  Array.iteri
    (fun p seqs ->
      Alcotest.(check (list int))
        (Printf.sprintf
           "pusher %d: each returned push popped once, the refused one never"
           p)
        (List.init returned.(p) Fun.id)
        (List.sort compare seqs))
    popped;
  Alcotest.(check bool) "close landed mid-run" true
    (Array.for_all (fun n -> n > 0) returned)

(* With [~capacity:2] the queue never holds more than two items, whether
   pushes hand off or queue.  The popper pauses as long as the pushers,
   so the queue both fills and empties. *)
let test_channel_race_capacity () =
  let per_pusher = 2_000 in
  let ch = Channel.create ~capacity:2 () in
  let over = Atomic.make 0 in
  let check_depth () = if Channel.length ch > 2 then Atomic.incr over in
  let popper =
    Domain.spawn (fun () ->
        let rec loop n =
          match Channel.pop ch with
          | None -> n
          | Some _ ->
            check_depth ();
            Test_util.busy_us (n * 11 mod 31);
            loop (n + 1)
        in
        loop 0)
  in
  let push_all p () =
    for seq = 0 to per_pusher - 1 do
      Test_util.busy_us (((seq * 13) + (p * 7)) mod 31);
      Channel.push ch ((p * stride) + seq);
      check_depth ()
    done
  in
  List.iter Thread.join
    (List.init pushers (fun p -> Thread.create (push_all p) ()));
  Channel.close ch;
  Alcotest.(check int) "items popped" (pushers * per_pusher)
    (Domain.join popper);
  Alcotest.(check int) "depth readings above capacity" 0 (Atomic.get over);
  Alcotest.(check int) "queue filled to capacity, never past it" 2
    (Channel.high_water ch)

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
      test_drain_shutdown_under_faults;
    Alcotest.test_case "channel race: per-pusher order" `Quick
      test_channel_race_fifo;
    Alcotest.test_case "channel race: close mid-run" `Quick
      test_channel_race_close;
    Alcotest.test_case "channel race: capacity holds" `Quick
      test_channel_race_capacity ]
