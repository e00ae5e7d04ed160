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

open Shield_controller
open Sdnshield
module Drill = Shield_workload.Drill

(** Process-CPU seconds that [f] takes: on a small CI box the
    runtime's thread pipeline timeshares the cores, so wall clock measures the scheduler; CPU time ([Sys.time],
    getrusage-backed, all threads) measures the work — which is what
    tracing adds. *)
let cpu_time f =
  let c0 = Sys.time () in
  f ();
  Sys.time () -. c0

(** Feed [n] packet-ins and wait for them; the CPU seconds it took. *)
let feed_timed rt n = cpu_time (fun () -> Drill.feed rt n)

(** One traced (or untraced) run: [warmup] events to settle the thread
    pool, then [events] timed ones. *)
let run_workload ?trace ~mode ~tag ~warmup ~events () =
  let rt = Drill.calls_runtime ?trace ~mode ~tag () in
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
        Drill.calls_runtime
          ~trace:(Trace.create ~capacity:4096 ~sampling ())
          ~mode:Runtime.Monolithic ~tag:(Printf.sprintf "obs-t%d" i) ()
      in
      let untraced =
        Drill.calls_runtime ~mode:Runtime.Monolithic
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

(** Churn overhead: [trials] pairs of markets on the live-update
    pipeline (Epoch + Market), one wired to a span store alone and one
    bare, both taking the same [txns]-transaction script; the CPU
    seconds each spent, as (untraced, traced) pairs.  Like the
    hot-path pairs, the two take turns at slices of 25 transactions,
    the side that goes first alternating between trials.  The
    normal-form and inclusion memos are process-global, so both are
    cleared before every slice of either side: each slice starts from
    cold memos and never reuses normal forms the other side computed.
    One discarded run first: the process's first churn pays the
    pipeline's cold-start costs. *)
let measure_churn_overhead ~trials ~txns ~apps () =
  let slice = 25 in
  let warmup = Drill.market () in
  Drill.churn warmup ~seed:40 ~apps ~invalid:0.15 ~txns:(min txns 20) ();
  Drill.close warmup;
  List.init trials (fun i ->
      let script =
        Shield_workload.Churn_gen.script ~seed:(41 + i) ~apps
          ~invalid_fraction:0.15 ~length:txns ()
      in
      let traced = Drill.market ~trace:(Trace.create ()) () in
      let untraced = Drill.market () in
      let cpu_traced = ref 0. and cpu_untraced = ref 0. in
      let run m cpu entries =
        Nf.clear_memo ();
        Inclusion.clear_memo ();
        cpu := !cpu +. cpu_time (fun () -> Drill.submit m entries)
      in
      let rec slices = function
        | [] -> ()
        | entries ->
          let now = List.filteri (fun j _ -> j < slice) entries in
          if i mod 2 = 0 then begin
            run traced cpu_traced now;
            run untraced cpu_untraced now
          end
          else begin
            run untraced cpu_untraced now;
            run traced cpu_traced now
          end;
          slices (List.filteri (fun j _ -> j >= slice) entries)
      in
      slices script;
      Drill.close traced;
      Drill.close untraced;
      (!cpu_untraced, !cpu_traced))

(** Overhead %, as the median of the per-pair traced/untraced ratios:
    single-run CPU time on a small shared box swings by ~10% (GC
    timing, futex sys-time), so a single ratio — or a min over
    unpaired runs — is noise; the median over adjacent pairs isolates
    the systematic part. *)
let overhead_pct pairs =
  100. *. (median (List.map (fun (u, t) -> t /. u) pairs) -. 1.)

(** Each pair's traced/untraced reading, in percent. *)
let trial_readings pairs =
  String.concat ""
    (List.map
       (fun (u, t) -> Printf.sprintf " %+.1f" (100. *. ((t /. u) -. 1.)))
       pairs)

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

let smoke () =
  Bench_util.start_gate ~title:"Observability: smoke" "obs-smoke" 120.;
  let fail = Bench_util.fail in
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
    pct (trial_readings call_pairs);
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
          %+.1f %% (trials:%s)@."
    churn_txns churn_pct (trial_readings churn_pairs);
  if churn_pct >= 10. then
    fail "lifecycle tracing adds %.1f%% >= 10%% to churn throughput" churn_pct;
  emit_json ~gate:"obs-smoke"
    ~call_rows:[ (0.1, 2_000, call_pairs, pct) ]
    ~churn:(churn_pairs, churn_pct) ~churn_txns;
  Bench_util.report "obs-smoke"
