(* The l2 workloads: CBench-style packet-ins into the l2switch on the
   Isolated runtime, closed loop from one client thread.

   - [Sync]: latency mode, one packet-in outstanding
     ([Runtime.feed_sync]); an op is one event, injection to return.
   - [Storm]: throughput mode as closed-loop bursts
     ([Runtime.feed_burst] of [burst] events, then [Runtime.drain]); an
     op is one event, from its burst's injection to the end of its
     handler.

   Traffic comes from a fixed MAC population placed on the linear
   topology, so the l2switch's MAC tables and the switches' flow
   tables saturate during the deterministic warm-up sweep and stay
   that size: per-op cost does not drift with run length.  Every MAC
   is seen from the port that really leads to it, so installed flows
   forward along the chain and never loop. *)

open Shield_openflow
open Shield_net
open Shield_controller
open Shield_apps
open Shield_workload
open Common

type shape = {
  hosts : int;  (** MAC population. *)
  burst : int;  (** 1 = [Sync]; more = [Storm] bursts of this size. *)
  ops_per_s : int;
      (** Events per requested second: the run does a fixed amount of
          work, so both sides of a comparison do the same work. *)
}

let sync = { hosts = 8; burst = 1; ops_per_s = 16_000 }
let storm = { hosts = 256; burst = 64; ops_per_s = 15_000 }

(* Traffic ------------------------------------------------------------------ *)

let switches = Boot.switches
let attach m = (1 + (m mod switches), 3 + (m / switches mod Boot.hosts_per_switch))

(** The port of switch [x] that leads to MAC [m]. *)
let port_toward m x =
  let a, p = attach m in
  if x = a then p else if x < a then 2 else 1

let mac m = Types.mac_of_int (0x020000000000 lor (m + 1))

(** One packet-in and whether the l2switch must flood it (broadcast,
    or a destination behind the ingress port) rather than install a
    flow, once the warm-up has taught it every location. *)
let packet_in ~dpid ~src ~dst =
  let ev =
    Events.Packet_in
      { Message.dpid;
        in_port = port_toward src dpid;
        packet =
          Packet.arp ~src:(mac src)
            ~dst:(match dst with None -> Types.broadcast_mac | Some d -> mac d)
            ();
        reason = Message.No_match;
        buffer_id = None }
  in
  let floods =
    match dst with None -> true | Some d -> port_toward d dpid = port_toward src dpid
  in
  (ev, floods)

(** Warm-up sweep: every switch learns every MAC (broadcasts), then
    installs a flow to every MAC (from a source in another direction). *)
let warmup_events shape =
  let learn =
    List.concat_map
      (fun dpid -> List.init shape.hosts (fun src -> packet_in ~dpid ~src ~dst:None))
      (List.init switches (fun i -> i + 1))
  in
  let install =
    List.concat_map
      (fun dpid ->
        List.init shape.hosts (fun d ->
            let rec src k =
              let s = (d + k) mod shape.hosts in
              if port_toward s dpid <> port_toward d dpid then s else src (k + 1)
            in
            packet_in ~dpid ~src:(src 1) ~dst:(Some d)))
      (List.init switches (fun i -> i + 1))
  in
  Array.of_list (List.map fst (learn @ install))

(** The timed traffic: [cycle] seeded packet-ins, replayed in order.
    Each carries a frame between two distinct MACs of the population,
    on a switch, all three drawn uniformly.  The topology then decides
    the kind: a destination in another direction than the source
    installs a flow (two mediated calls), one behind the ingress port
    floods (one call).  No mix is imposed: floods come out about two
    in five of l2-sync's ops and about half of l2-storm's, and each
    kind's p50 is reported next to the op p50. *)
let cycle = 8192

let traffic shape ~seed =
  let rng = Prng.of_int seed in
  Array.init cycle (fun _ ->
      let dpid = 1 + Prng.int rng switches in
      let src = Prng.int rng shape.hosts in
      let dst = (src + 1 + Prng.int rng (shape.hosts - 1)) mod shape.hosts in
      packet_in ~dpid ~src ~dst:(Some dst))

(* Load loops --------------------------------------------------------------- *)

(** Bursts of [shape.burst] consecutive events of [evs], from event
    [first] on, covering [n] events. *)
let bursts shape evs ~first ~n =
  let len = Array.length evs in
  List.init
    ((n + shape.burst - 1) / shape.burst)
    (fun b ->
      List.init
        (min shape.burst (n - (b * shape.burst)))
        (fun j -> evs.((first + (b * shape.burst) + j) mod len)))

(** Feed [n] events of [evs] (cyclically, from [first]) and return the
    per-event latencies.  [ends] holds the end time of every handler
    run so far, in handling order; [Storm] latencies are read from it
    once each burst has drained. *)
let drive shape rt evs ~first ~n ~before_op ~after_op ~(ends : Buf.t) =
  let lat = Array.make n 0. in
  let start = now () in
  if shape.burst = 1 then
    for i = 0 to n - 1 do
      let ev = evs.((first + i) mod Array.length evs) in
      before_op ();
      let t0 = now () in
      Runtime.feed_sync rt ev;
      lat.(i) <- now () -. t0;
      after_op ()
    done
  else begin
    let k = ref 0 in
    List.iter
      (fun b ->
        before_op ();
        let base = Buf.length ends in
        let t0 = now () in
        Runtime.feed_burst rt b;
        Runtime.drain rt;
        after_op ();
        List.iteri
          (fun j _ ->
            lat.(!k) <- Buf.get ends (base + j) -. t0;
            incr k)
          b)
      (bursts shape evs ~first ~n)
  end;
  { lat; start; stop = now () }

(** The untraced run's only timer: each handler's end time. *)
let stamping ends (app : App.t) =
  { app with
    App.handle =
      (fun ctx ev ->
        app.App.handle ctx ev;
        Buf.add ends (now ())) }

(* Oracles ------------------------------------------------------------------ *)

type snapshot = {
  calls : int;
  denials : int;
  delivered : int;
  suppressed : int;
  flow_mods : int;
  floods : int;
  execs : int;
}

let snapshot (h : Boot.host) =
  let calls, denials, delivered, suppressed = Runtime.stats h.Boot.runtime in
  { calls; denials; delivered; suppressed;
    flow_mods = !(h.Boot.l2.L2_switch.flow_mods_issued);
    floods = !(h.Boot.l2.L2_switch.floods);
    execs = Kernel.exec_count h.Boot.kernel }

let flow_entries (k : Kernel.t) =
  Hashtbl.fold
    (fun _ sw acc -> acc + Flow_table.size sw.Switch.table)
    k.Kernel.dataplane.Dataplane.switches 0

(** Failed ops of a phase that fed [n] events whose expected flood
    decisions are [floods]: undelivered events, denials, suppressions,
    handler outcomes that disagree with the traffic model, fault-net
    firings, flow tables off their saturated size, and an inconsistent
    epoch. *)
let failures shape (d : Boot.t) (h : Boot.host) s0 s1 ~n ~floods =
  let fr = Runtime.fault_report h.Boot.runtime in
  let fails = ref [] in
  let check cond fmt =
    Printf.ksprintf (fun msg -> if not cond then fails := msg :: !fails) fmt
  in
  let delivered = s1.delivered - s0.delivered in
  let fl = s1.floods - s0.floods and fm = s1.flow_mods - s0.flow_mods in
  check (delivered = n) "%d of %d events delivered" delivered n;
  check (s1.denials = s0.denials) "%d denials" (s1.denials - s0.denials);
  check (s1.suppressed = s0.suppressed) "%d suppressed" (s1.suppressed - s0.suppressed);
  check (fm + fl = delivered) "flow-mods %d + floods %d <> handled %d" fm fl delivered;
  check (fl = floods) "floods %d, traffic model says %d" fl floods;
  check
    (fr.Runtime.failures + fr.Runtime.restarts + fr.Runtime.deadlines
     + fr.Runtime.rejections = 0)
    "fault report not zero";
  check
    (flow_entries h.Boot.kernel = switches * shape.hosts)
    "%d flow entries, expected %d" (flow_entries h.Boot.kernel)
    (switches * shape.hosts);
  check (Sdnshield.Epoch.consistent d.Boot.epoch) "epoch inconsistent";
  List.iter (fun m -> prerr_endline ("l2 oracle: " ^ m)) !fails;
  (* A violated invariant fails every op it covers: an op-level count
     is only available for delivery and flood decisions. *)
  if !fails = [] then 0
  else max 1 (abs (n - delivered) + abs (fl - floods) + (s1.denials - s0.denials))

(* Phases ------------------------------------------------------------------- *)

let warm_random = 4096

(** Warm [h] up: the saturating sweep, then [warm_random] events of the
    timed traffic. *)
let warm shape h evs ~before_op ~after_op ~ends =
  let sweep = warmup_events shape in
  ignore
    (drive shape h.Boot.runtime sweep ~first:0 ~n:(Array.length sweep)
       ~before_op ~after_op ~ends);
  ignore
    (drive shape h.Boot.runtime evs ~first:0 ~n:warm_random ~before_op
       ~after_op ~ends)

type result = {
  timed : Common.timed;
  floods : bool array;  (** Whether each timed op must flood. *)
  failed : int;
  counters : Common.counters * Common.counters;
  snaps : snapshot * snapshot;
}

(** The timed phase: [n] events of [traffic] after the warm-up, with
    the hooks of [drive]. *)
let phase ?(at_start = ignore) shape d h traffic ~n ~before_op ~after_op ~ends =
  let evs = Array.map fst traffic in
  warm shape h evs ~before_op ~after_op ~ends;
  let floods = Array.init n (fun i -> snd traffic.((warm_random + i) mod cycle)) in
  let flood_count = Array.fold_left (fun k f -> if f then k + 1 else k) 0 floods in
  settle ();
  at_start ();
  let s0 = snapshot h and c0 = Common.counters () in
  let timed =
    drive shape h.Boot.runtime evs ~first:warm_random ~n ~before_op ~after_op ~ends
  in
  let c1 = Common.counters () and s1 = snapshot h in
  { timed; floods; counters = (c0, c1); snaps = (s0, s1);
    failed = failures shape d h s0 s1 ~n ~floods:flood_count }

(** Events of a run of [seconds] nominal seconds, in whole bursts. *)
let events shape ~seconds =
  (seconds * shape.ops_per_s + shape.burst - 1) / shape.burst * shape.burst

(** The end-to-end metrics of a phase: those of every op, then the p50
    of the flooding ops and of the installing ops on their own. *)
let e2e r =
  let kind flood =
    let xs = ref [] in
    Array.iteri (fun i f -> if f = flood then xs := r.timed.lat.(i) :: !xs) r.floods;
    median (Array.of_list !xs) *. 1e6
  in
  Common.e2e r.timed
  @ [ ("flood_p50_us", kind true, "us"); ("install_p50_us", kind false, "us") ]

(** The untraced timed phase on the booted runtime, which must host
    the l2switch wrapped in [stamping ends]. *)
let untraced shape (b : Boot.booted) ends ~seed ~n =
  let nop () = () in
  phase shape b.Boot.dep b.Boot.hosted (traffic shape ~seed) ~n ~before_op:nop
    ~after_op:nop ~ends

(* Traced run ----------------------------------------------------------------

   Timers wrapped around the l2switch's [App.handle], around each
   [ctx.call] it makes, and around every entry point of its checker
   (through the epoch's [snapshot] hook, which the runtime resolves once
   per mediated call), plus the runtime's own span store for the
   deputy side of each call: queue wait, check, kernel execution. *)

type probe = {
  mutable op_start : float;  (** Injection time of the current op. *)
  mutable handler_end : float;
  mutable rtt_event : float;
  wake_in : Buf.t;
  self : Buf.t;
  rtt_sum : Buf.t;  (** Sum of call round trips per event. *)
  rtt : Buf.t;
  wake_out : Buf.t;
  done_at : Buf.t;
  wait : Buf.t;
  exec : Buf.t;
  reply_wake : Buf.t;
  ck_mutex : Mutex.t;
  mutable ck_time : float;
  mutable ck_decisions : int;
  mutable ck_batched : int;
}

let probe () =
  { op_start = 0.; handler_end = 0.; rtt_event = 0.; wake_in = Buf.create ();
    self = Buf.create (); rtt_sum = Buf.create ();
    rtt = Buf.create (); wake_out = Buf.create (); done_at = Buf.create ();
    wait = Buf.create (); exec = Buf.create (); reply_wake = Buf.create ();
    ck_mutex = Mutex.create (); ck_time = 0.; ck_decisions = 0; ck_batched = 0 }

let traced_app p (app : App.t) =
  { app with
    App.handle =
      (fun ctx ev ->
        let h0 = now () in
        Buf.add p.wake_in (h0 -. p.op_start);
        p.rtt_event <- 0.;
        let call c =
          let r0 = now () in
          let r = ctx.App.call c in
          let dt = now () -. r0 in
          Buf.add p.rtt dt;
          p.rtt_event <- p.rtt_event +. dt;
          r
        in
        app.App.handle { ctx with App.call } ev;
        let h1 = now () in
        Buf.add p.self (h1 -. h0 -. p.rtt_event);
        Buf.add p.rtt_sum p.rtt_event;
        Buf.add p.done_at h1;
        p.handler_end <- h1) }

let note_check p ~n ~batched dt =
  Mutex.lock p.ck_mutex;
  p.ck_time <- p.ck_time +. dt;
  p.ck_decisions <- p.ck_decisions + n;
  if batched then p.ck_batched <- p.ck_batched + n;
  Mutex.unlock p.ck_mutex

let timed p ~n ~batched f x =
  let t0 = now () in
  let r = f x in
  note_check p ~n:(n x) ~batched (now () -. t0);
  r

let rec traced_checker p (ck : Api.checker) =
  let one _ = 1 in
  { ck with
    Api.check = timed p ~n:one ~batched:false ck.Api.check;
    check_batch =
      Option.map (timed p ~n:Array.length ~batched:true) ck.Api.check_batch;
    check_transaction = timed p ~n:List.length ~batched:false ck.Api.check_transaction;
    explain = Option.map (timed p ~n:one ~batched:false) ck.Api.explain;
    snapshot = Option.map (fun f () -> traced_checker p (f ())) ck.Api.snapshot }

(** Move the spans of the op that just completed out of the store,
    pairing each with the round trip the app measured for it. *)
let collect_spans p tr =
  let spans = Trace.spans tr in
  Trace.clear tr;
  let k = List.length spans in
  List.iteri
    (fun i (s : Trace.span) ->
      Buf.add p.wait s.Trace.queue_wait;
      Buf.add p.exec s.Trace.exec_dur;
      let rtt = Buf.get p.rtt (Buf.length p.rtt - k + i) in
      Buf.add p.reply_wake (rtt -. s.Trace.total))
    spans

let us xs = median xs *. 1e6

(** The traced phase: a fresh runtime over the booted deployment, with
    every timer on, [n] timed events.  Returns the phase, the layer
    metrics and the unattributed residual. *)
let traced shape (b : Boot.booted) ~seed ~n =
  let p = probe () in
  let tr = Trace.create ~capacity:4096 () in
  let h =
    Boot.host
      ~config:{ Runtime.default_config with Runtime.trace = Some tr }
      ~wrap_app:(traced_app p) ~wrap_checker:(traced_checker p) b.Boot.dep
  in
  let res =
    (* Checker counters cover the timed events only. *)
    phase shape b.Boot.dep h (traffic shape ~seed) ~n
      ~at_start:(fun () ->
        Mutex.lock p.ck_mutex;
        p.ck_time <- 0.;
        p.ck_decisions <- 0;
        p.ck_batched <- 0;
        Mutex.unlock p.ck_mutex)
      ~before_op:(fun () -> p.op_start <- now ())
      ~after_op:(fun () ->
        Buf.add p.wake_out (now () -. p.handler_end);
        collect_spans p tr)
      ~ends:p.done_at
  in
  let gauge name =
    match List.assoc_opt name (Metrics.gauge_report ()) with
    | Some g -> float_of_int g.Metrics.hwm
    | None -> 0.
  in
  (* Per-event samples of the timed phase only: drop the warm-up. *)
  let tail (b : Buf.t) m = Array.sub (Buf.to_array b) (Buf.length b - m) m in
  let ev = float_of_int n in
  let s0, s1 = res.snaps in
  let calls = s1.calls - s0.calls in
  let wake_in = tail p.wake_in n and self = tail p.self n
  and rtt_sum = tail p.rtt_sum n in
  let ops = if shape.burst = 1 then n else (n + shape.burst - 1) / shape.burst in
  let wake_out = tail p.wake_out ops in
  let rtt = tail p.rtt calls in
  let layers =
    [ ("runtime.wake_in_us", us wake_in, "us");
      ("runtime.wake_out_us", us wake_out, "us");
      ("runtime.call_rtt_us", us rtt, "us");
      ("channel.ksd_wait_us", us (tail p.wait calls), "us");
      ("runtime.reply_wake_us", us (tail p.reply_wake calls), "us");
      ("channel.ksd_hwm", gauge "queue:ksd-reqs", "count");
      ("channel.ev_hwm", gauge "queue:ev:l2switch", "count");
      ("checker.check_us", p.ck_time /. float_of_int p.ck_decisions *. 1e6, "us");
      ("checker.checks_per_event", float_of_int p.ck_decisions /. ev, "count");
      ("checker.batched_share",
        float_of_int p.ck_batched /. float_of_int p.ck_decisions, "ratio");
      ("kernel.exec_us", us (tail p.exec calls), "us");
      ("kernel.execs_per_event", float_of_int (s1.execs - s0.execs) /. ev, "count");
      ("flow_table.entries", float_of_int (flow_entries h.Boot.kernel), "count");
      ("l2_switch.handler_self_us", us self, "us");
      ("l2_switch.flow_mods_per_event",
        float_of_int (s1.flow_mods - s0.flow_mods) /. ev, "count");
      ("l2_switch.flood_frac", float_of_int (s1.floods - s0.floods) /. ev, "ratio");
      ("runtime.calls_per_event", float_of_int calls /. ev, "count") ]
  in
  (* Unattributed: the op median against the sum of the medians of its
     serial parts.  A [Storm] op ends with its handler, so the burst's
     wake-out is not one of them. *)
  let parts =
    us wake_in +. us self +. us rtt_sum +. if shape.burst = 1 then us wake_out else 0.
  in
  let residual = us res.timed.lat -. parts in
  Runtime.shutdown h.Boot.runtime;
  (res, layers, residual)
