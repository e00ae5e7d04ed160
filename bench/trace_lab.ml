(* Observability lab: end-to-end call tracing and telemetry export.

   Quantifies what docs/OBSERVABILITY.md claims:

   - per-stage latency breakdown (queue wait / check / kernel exec /
     total) from the [lat:*] histograms a traced runtime records;
   - tracing overhead on the engine's hot path at several sampling
     ratios — full sampling pays the span + histogram cost on every
     call, 1-in-N sampling amortizes it to the sampler's counter bump;
   - telemetry export: JSON and Prometheus snapshots of one run.

   `trace-lab` prints the full report; `obs-smoke` is the fast tier-1
   gate: tracing at the recommended 1-in-10 sampling must add <10%
   process CPU to the engine's hot path, both export formats must
   parse/round-trip, and every denied span must carry a decision
   explanation. *)

open Shield_openflow
open Shield_net
open Shield_controller
open Sdnshield

(* The CLI `telemetry` demo's manifest: MAX_PRIORITY 400 makes every
   4th call (priority 1000) a denial, so traces carry explained
   denials. *)
let demo_manifest =
  "PERM insert_flow LIMITING MAX_PRIORITY 400 AND OWN_FLOWS\n\
   PERM pkt_in_event\nPERM read_payload"

let pkt_in dpid =
  Events.Packet_in
    { Message.dpid; in_port = 1; packet = Packet.arp ~src:0xA ~dst:0xB ();
      reason = Message.No_match; buffer_id = None }

(** An engine-guarded app on a runtime in [mode], traced or not. *)
let start_workload ?trace ~mode ~tag () =
  let kernel = Kernel.create (Dataplane.create (Topology.linear 4)) in
  let handled = ref 0 in
  let app =
    App.make
      ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx ev ->
        match ev with
        | Events.Packet_in pi ->
          incr handled;
          let priority = if !handled mod 4 = 0 then 1_000 else 100 in
          let fm =
            Flow_mod.add ~priority
              ~match_:(Match_fields.make ~tp_dst:(1024 + (!handled mod 16)) ())
              ~actions:[ Action.Output 1 ] ()
          in
          ignore (ctx.App.call (Api.Install_flow (pi.Message.dpid, fm)))
        | _ -> ())
      tag
  in
  let engine =
    Engine.create
      ~ownership:(Ownership.create ())
      ~app_name:tag ~cookie:1
      (Perm_parser.manifest_exn demo_manifest)
  in
  let config = { Runtime.default_config with Runtime.trace } in
  Runtime.create ~config ~mode kernel [ (app, Engine.checker engine) ]

(** Feed [n] packet-ins and wait for them.  Returns the process-CPU
    seconds this took: on a small CI box the runtime's thread pipeline
    timeshares the cores, so wall clock measures the scheduler; CPU
    time ([Sys.time], getrusage-backed, all threads) measures the work
    — which is what tracing adds. *)
let feed_timed rt n =
  let c0 = Sys.time () in
  for i = 1 to n do
    Runtime.feed rt (pkt_in (1 + (i mod 4)))
  done;
  Runtime.drain rt;
  Sys.time () -. c0

(** One traced (or untraced) run: [warmup] events to settle the thread
    pool, then [events] timed ones. *)
let run_workload ?trace ~mode ~tag ~warmup ~events () =
  let rt = start_workload ?trace ~mode ~tag () in
  ignore (feed_timed rt warmup);
  let dt = feed_timed rt events in
  Runtime.shutdown rt;
  dt

let isolated = Runtime.Isolated { ksd_threads = 2 }

(** Overhead measurement: [trials] traced/untraced pairs of [events]
    timed events each.  Returns the (untraced, traced) CPU-time pairs.
    The runs are [Monolithic]: the same [checked_exec] and span
    recording as a deputy runs, without the hand-offs, whose spinning
    waits make process CPU track the noisy wall clock.  The two runs
    of a pair are interleaved: after 300 warm-up events each, they take
    turns at slices of 250 events, so a shift in the machine's speed
    during the pair (a 2,000-event run is a few ms of CPU, and a
    shared 2-vCPU box changes pace on that scale) lands on both sides
    alike.  The side that goes first alternates between pairs. *)
let measure_overhead ~sampling ~trials ~events () =
  let slice = 250 in
  List.init trials (fun i ->
      let traced =
        start_workload
          ~trace:(Trace.create ~capacity:4096 ~sampling ())
          ~mode:Runtime.Monolithic ~tag:(Printf.sprintf "obs-t%d" i) ()
      in
      let untraced =
        start_workload ~mode:Runtime.Monolithic
          ~tag:(Printf.sprintf "obs-u%d" i) ()
      in
      let cpu_traced = ref 0. and cpu_untraced = ref 0. in
      let turn ~timed n =
        let run rt cpu =
          let dt = feed_timed rt n in
          if timed then cpu := !cpu +. dt
        in
        if i mod 2 = 0 then begin
          run traced cpu_traced;
          run untraced cpu_untraced
        end
        else begin
          run untraced cpu_untraced;
          run traced cpu_traced
        end
      in
      for _ = 1 to 3 do
        turn ~timed:false 100
      done;
      let rec timed_slices left =
        if left > 0 then begin
          turn ~timed:true (min slice left);
          timed_slices (left - slice)
        end
      in
      timed_slices events;
      Runtime.shutdown traced;
      Runtime.shutdown untraced;
      (!cpu_untraced, !cpu_traced))

let median xs =
  let a = List.sort Float.compare xs in
  List.nth a (List.length a / 2)

(** One churn run through the live-update pipeline (Epoch + Market),
    traced or not: CPU seconds for [txns] lifecycle transactions.
    Quantifies what transaction spans + stage histograms add to
    market-lab-style churn throughput.  Every run starts with cold
    normal-form and inclusion memos: they are process-global, so
    otherwise the first run of a pair would do the normal-form work
    the second one reuses. *)
let run_churn ?trace ~txns ~apps ~seed () =
  Nf.clear_memo ();
  Inclusion.clear_memo ();
  let t =
    match Epoch.create ~policy:"" () with
    | Ok t -> t
    | Error e -> failwith ("trace-lab: policy rejected: " ^ e)
  in
  let m = Epoch.market ?trace t in
  let script =
    Shield_workload.Churn_gen.script ~seed ~apps ~invalid_fraction:0.15
      ~length:txns ()
  in
  let c0 = Sys.time () in
  List.iter
    (fun (e : Shield_workload.Churn_gen.entry) ->
      ignore (Market.submit m e.Shield_workload.Churn_gen.request))
    script;
  Market.drain m;
  let dt = Sys.time () -. c0 in
  Market.shutdown m;
  Epoch.close t;
  dt

(** Paired traced/untraced churn runs, same script both sides.  One
    discarded warmup run first (the process's first churn pays the
    pipeline's cold-start costs), and the order within a pair
    alternates between trials so a residual first-runs-slower bias
    cancels instead of landing on one side. *)
let measure_churn_overhead ~trials ~txns ~apps () =
  ignore (run_churn ~txns:(min txns 20) ~apps ~seed:40 ());
  List.init trials (fun i ->
      let tr = Trace.create () in
      let seed = 41 + i in
      if i mod 2 = 0 then begin
        let t = run_churn ~trace:tr ~txns ~apps ~seed () in
        let u = run_churn ~txns ~apps ~seed () in
        (u, t)
      end
      else begin
        let u = run_churn ~txns ~apps ~seed () in
        let t = run_churn ~trace:tr ~txns ~apps ~seed () in
        (u, t)
      end)

(** Overhead %, as the median of the per-pair traced/untraced ratios:
    single-run CPU time on a small shared box swings by ~10% (GC
    timing, futex sys-time), so a single ratio — or a min over
    unpaired runs — is noise; the median over adjacent pairs isolates
    the systematic part. *)
let overhead_pct pairs =
  100. *. (median (List.map (fun (u, t) -> t /. u) pairs) -. 1.)

let median_us_per_event ~events pairs sel =
  median (List.map sel pairs) /. float_of_int events *. 1e6

(* Sections ---------------------------------------------------------------- *)

let latency_section ~events () =
  Bench_util.subhr
    (Printf.sprintf "per-stage latency breakdown (%d traced calls, sampling 1.0)"
       events)
  ;
  List.iter Metrics.unregister_hist
    [ "lat:queue"; "lat:check"; "lat:exec"; "lat:total"; "lat:app:obs-demo" ];
  let trace = Trace.create ~capacity:4096 () in
  ignore
    (run_workload ~trace ~mode:isolated ~tag:"obs-demo" ~warmup:0 ~events ());
  let fmt_us v = Printf.sprintf "%.1f" (v *. 1e6) in
  let rows =
    List.filter_map
      (fun stage ->
        match List.assoc_opt stage (Metrics.hist_report ()) with
        | None -> None
        | Some h ->
          let p q = fmt_us (Metrics.Histogram.percentile h q) in
          Some
            [ stage; string_of_int (Metrics.Histogram.count h); p 50.; p 90.;
              p 99.; p 100. ])
      [ "lat:queue"; "lat:check"; "lat:exec"; "lat:total" ]
  in
  Bench_util.table
    [ "stage"; "n"; "p50 (us)"; "p90 (us)"; "p99 (us)"; "max (us)" ]
    rows;
  Fmt.pr "@.%a@." Trace.pp_stats (Trace.stats trace);
  let spans = Trace.spans trace in
  let denied =
    List.filter (fun (s : Trace.span) -> s.Trace.decision = Trace.Denied) spans
  in
  Fmt.pr "spans: %d retained, %d denied — first denial:@."
    (List.length spans) (List.length denied);
  (match denied with
  | s :: _ -> Fmt.pr "  %a@." Trace.pp_span s
  | [] -> ());
  trace

let overhead_section () =
  Bench_util.subhr
    "tracing overhead on the engine hot path (median of 5 paired trials)";
  let measured =
    List.map
      (fun sampling ->
        let pairs = measure_overhead ~sampling ~trials:5 ~events:3_000 () in
        (sampling, 3_000, pairs, overhead_pct pairs))
      [ 1.0; 0.1; 0.01 ]
  in
  Bench_util.table
    [ "sampling"; "untraced CPU/event"; "traced CPU/event"; "overhead" ]
    (List.map
       (fun (sampling, events, pairs, pct) ->
         [ Printf.sprintf "%.2f" sampling;
           Printf.sprintf "%.1f us" (median_us_per_event ~events pairs fst);
           Printf.sprintf "%.1f us" (median_us_per_event ~events pairs snd);
           Printf.sprintf "%+.1f %%" pct ])
       measured);
  measured

let churn_section ~trials ~txns ~apps () =
  Bench_util.subhr
    (Printf.sprintf
       "lifecycle-transaction tracing overhead (%d txns, median of %d paired \
        trials)"
       txns trials);
  let pairs = measure_churn_overhead ~trials ~txns ~apps () in
  let per_txn sel =
    median (List.map sel pairs) /. float_of_int txns *. 1e3
  in
  let pct = overhead_pct pairs in
  Bench_util.table
    [ "untraced CPU/txn"; "traced CPU/txn"; "overhead" ]
    [ [ Printf.sprintf "%.2f ms" (per_txn fst);
        Printf.sprintf "%.2f ms" (per_txn snd);
        Printf.sprintf "%+.1f %%" pct ] ];
  (pairs, pct)

(* BENCH_OBS.json: the lab's measurements as a repo-root artifact, so
   the observability-overhead trajectory is part of the tree. *)
let emit_json ~gate ~call_rows ~churn ~churn_txns =
  let module J = Bench_util.Json in
  Bench_util.write_json "BENCH_OBS.json"
    (J.Obj
       [ ("gate", J.Str gate);
         ( "call_tracing",
           J.Arr
             (List.map
                (fun (sampling, events, pairs, pct) ->
                  J.Obj
                    [ ("sampling", J.Float sampling);
                      ("events", J.Int events);
                      ( "untraced_us_per_event",
                        J.Float (median_us_per_event ~events pairs fst) );
                      ( "traced_us_per_event",
                        J.Float (median_us_per_event ~events pairs snd) );
                      ("overhead_pct", J.Float pct) ])
                call_rows) );
         ( "churn_tracing",
           let pairs, pct = churn in
           let per_txn sel =
             median (List.map sel pairs) /. float_of_int churn_txns *. 1e3
           in
           J.Obj
             [ ("txns", J.Int churn_txns);
               ("trials", J.Int (List.length pairs));
               ("untraced_ms_per_txn", J.Float (per_txn fst));
               ("traced_ms_per_txn", J.Float (per_txn snd));
               ("overhead_pct", J.Float pct) ] ) ])

let export_section trace =
  Bench_util.subhr "telemetry export";
  let snap = Telemetry.snapshot ~trace () in
  let json = Telemetry.to_json snap in
  let prom = Telemetry.to_prometheus snap in
  Fmt.pr "JSON snapshot: %d bytes, round-trips: %b@." (String.length json)
    (Telemetry.Json.of_string json = Ok (Telemetry.to_json_value snap));
  Fmt.pr "Prometheus snapshot: %d lines, validates: %b@."
    (List.length (String.split_on_char '\n' prom))
    (Telemetry.validate_prometheus prom = Ok ())

let run () =
  Bench_util.hr "Observability: call tracing, latency histograms, telemetry";
  let trace = latency_section ~events:4_000 () in
  export_section trace;
  let call_rows = overhead_section () in
  let churn_txns = 120 in
  let churn = churn_section ~trials:5 ~txns:churn_txns ~apps:12 () in
  emit_json ~gate:"trace-lab" ~call_rows ~churn ~churn_txns;
  Fmt.pr
    "@.note: full sampling pays the span + histogram cost on every call;@.";
  Fmt.pr
    "      1-in-N sampling amortizes it to a counter bump (docs/OBSERVABILITY.md)@."

(* Tier-1 gate ------------------------------------------------------------- *)

(** Watchdog: turn a hung runtime into a loud exit instead of a stuck
    CI job (same idiom as fault_lab). *)
let arm_watchdog seconds =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay seconds;
         Fmt.epr "obs-smoke WATCHDOG: still running after %.0fs@." seconds;
         exit 3)
       ())

let smoke () =
  Bench_util.hr "Observability: smoke";
  arm_watchdog 120.;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* 1. Correctness of a fully-sampled traced run: spans are
     accounted for, denied spans are explained, exports round-trip. *)
  let trace = Trace.create ~capacity:4096 () in
  let events = 1_200 in
  ignore
    (run_workload ~trace ~mode:isolated ~tag:"obs-smoke" ~warmup:0 ~events ());
  let st = Trace.stats trace in
  if st.Trace.seen <> st.Trace.recorded + st.Trace.sampled_out then
    fail "trace accounting: seen=%d <> recorded=%d + sampled_out=%d"
      st.Trace.seen st.Trace.recorded st.Trace.sampled_out;
  if st.Trace.recorded < events then
    fail "only %d of %d calls recorded at sampling 1.0" st.Trace.recorded
      events;
  let spans = Trace.spans trace in
  let denied =
    List.filter (fun (s : Trace.span) -> s.Trace.decision = Trace.Denied) spans
  in
  Fmt.pr "spans: %d retained, %d denied@." (List.length spans)
    (List.length denied);
  if denied = [] then fail "no denied spans from the MAX_PRIORITY workload";
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.explain = None then
        fail "denied span #%d (%s) has no decision explanation" s.Trace.seq
          s.Trace.call)
    denied;
  List.iter
    (fun (s : Trace.span) ->
      if
        s.Trace.queue_wait < 0. || s.Trace.check_dur < 0.
        || s.Trace.exec_dur < 0. || s.Trace.total < 0.
      then fail "span #%d has a negative duration" s.Trace.seq)
    spans;
  (* 2. Export formats parse / round-trip. *)
  let snap = Telemetry.snapshot ~trace () in
  let json = Telemetry.to_json snap in
  (match Telemetry.Json.of_string json with
  | Error e -> fail "JSON snapshot does not parse: %s" e
  | Ok v ->
    if v <> Telemetry.to_json_value snap then
      fail "JSON snapshot does not round-trip structurally");
  (match Telemetry.validate_prometheus (Telemetry.to_prometheus snap) with
  | Ok () -> ()
  | Error e -> fail "Prometheus snapshot invalid: %s" e);
  (* 3. Histogram percentiles are ordered and inside [min, max]. *)
  (match List.assoc_opt "lat:total" (Metrics.hist_report ()) with
  | None -> fail "traced run registered no lat:total histogram"
  | Some h ->
    let e = Metrics.Histogram.export h in
    let p50 = Metrics.Histogram.percentile h 50.
    and p99 = Metrics.Histogram.percentile h 99. in
    if not (e.Metrics.Histogram.min <= p50 && p50 <= p99
            && p99 <= e.Metrics.Histogram.max)
    then
      fail "lat:total percentiles out of order: min=%g p50=%g p99=%g max=%g"
        e.Metrics.Histogram.min p50 p99 e.Metrics.Histogram.max);
  (* 4. Overhead gate: tracing at the recommended 1-in-10 sampling
     adds <10% to the engine hot path.  Median of paired trials,
     interleaved, so scheduler noise hits both sides alike. *)
  let call_pairs = measure_overhead ~sampling:0.1 ~trials:9 ~events:2_000 () in
  let pct = overhead_pct call_pairs in
  Fmt.pr "hot path overhead at sampling 0.1 (median of 9 paired trials): \
          %+.1f %% (trials:%s)@."
    pct
    (String.concat ""
       (List.map
          (fun (u, t) -> Printf.sprintf " %+.1f" (100. *. ((t /. u) -. 1.)))
          call_pairs));
  if pct >= 10. then
    fail "tracing at sampling 0.1 adds %.1f%% >= 10%% to the engine hot path"
      pct;
  (* 5. Churn gate: transaction spans + stage histograms add <10% to
     market-lab-style churn throughput.  Each transaction does
     milliseconds of vet/reconcile/compile work against microseconds
     of span recording, so a breach means recording grew a systematic
     cost, not that the box is noisy.  200 transactions of about
     1.2 ms each keep every run near a quarter second of CPU. *)
  let churn_txns = 200 in
  let churn_pairs =
    measure_churn_overhead ~trials:5 ~txns:churn_txns ~apps:10 ()
  in
  let churn_pct = overhead_pct churn_pairs in
  Fmt.pr "churn tracing overhead (%d txns, median of 5 paired trials): \
          %+.1f %%@."
    churn_txns churn_pct;
  if churn_pct >= 10. then
    fail "lifecycle tracing adds %.1f%% >= 10%% to churn throughput" churn_pct;
  emit_json ~gate:"obs-smoke"
    ~call_rows:[ (0.1, 2_000, call_pairs, pct) ]
    ~churn:(churn_pairs, churn_pct) ~churn_txns;
  match !failures with
  | [] -> Fmt.pr "obs-smoke ok@."
  | fs ->
    List.iter (fun f -> Fmt.epr "obs-smoke FAILURE: %s@." f) fs;
    exit 1
