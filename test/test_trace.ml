(* Observability layer: span store semantics, decision explanations,
   log-linear histogram accuracy, and the telemetry exporters
   (docs/OBSERVABILITY.md). *)

open Shield_openflow
open Shield_net
open Shield_controller
open Sdnshield

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what ~sub s =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %S (got %S)" what sub s)
    true (contains ~sub s)

let dummy_span i =
  { Trace.seq = 0; app = "a"; call = "install_flow"; deputy = 0;
    start = float_of_int i; queue_wait = float_of_int i; check_dur = 0.;
    exec_dur = 0.; total = float_of_int i; decision = Trace.Allowed;
    explain = None }

(* Span store ---------------------------------------------------------------- *)

let test_ring_wraparound () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.record t (dummy_span i)
  done;
  let st = Trace.stats t in
  Alcotest.(check int) "recorded" 10 st.Trace.recorded;
  Alcotest.(check int) "stored" 4 st.Trace.stored;
  Alcotest.(check int) "dropped" 6 st.Trace.dropped;
  (* Oldest first, and [seq] is the store's own numbering. *)
  Alcotest.(check (list int)) "surviving seqs, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (s : Trace.span) -> s.Trace.seq) (Trace.spans t));
  Trace.clear t;
  let st = Trace.stats t in
  Alcotest.(check int) "cleared" 0 st.Trace.recorded;
  Alcotest.(check (list int)) "no spans" []
    (List.map (fun (s : Trace.span) -> s.Trace.seq) (Trace.spans t))

let test_sampling_stride () =
  (* sampling 0.25 -> deterministic 1-in-4 stride, starting with the
     first offered call. *)
  let t = Trace.create ~capacity:16 ~sampling:0.25 () in
  let hits = List.init 10 (fun _ -> Trace.sampled t) in
  Alcotest.(check (list bool)) "1-in-4 pattern"
    [ true; false; false; false; true; false; false; false; true; false ]
    hits;
  let st = Trace.stats t in
  Alcotest.(check int) "seen" 10 st.Trace.seen;
  Alcotest.(check int) "sampled out" 7 st.Trace.sampled_out;
  Alcotest.(check (float 1e-9)) "effective ratio" 0.25 st.Trace.sampling

let test_create_validation () =
  Alcotest.check_raises "capacity 0" (Invalid_argument
    "Trace.create: capacity must be > 0") (fun () ->
      ignore (Trace.create ~capacity:0 ()));
  Alcotest.check_raises "sampling 0" (Invalid_argument
    "Trace.create: sampling must be in (0, 1]") (fun () ->
      ignore (Trace.create ~sampling:0. ()))

(* Decision explanations ----------------------------------------------------- *)

let insert ~priority =
  Api.Install_flow
    ( 1,
      Flow_mod.add ~priority
        ~match_:(Match_fields.make ~tp_dst:80 ())
        ~actions:[ Action.Output 1 ] () )

let test_filter_explain_clauses () =
  let env = Filter_eval.pure_env in
  let explain f call = Filter_eval.explain env f (Attrs.of_call call) in
  (* And-rooted: the first failing clause is named. *)
  let conj = Test_util.filter_exn "MAX_PRIORITY 400 AND TCP_DST 80" in
  let ok, why = explain conj (insert ~priority:1000) in
  Alcotest.(check bool) "conj fails" false ok;
  check_contains "conj why" ~sub:"clause 1/2 failed" why;
  check_contains "conj why names the atom" ~sub:"MAX_PRIORITY 400" why;
  let ok, why = explain conj (insert ~priority:100) in
  Alcotest.(check bool) "conj passes" true ok;
  check_contains "conj why" ~sub:"all 2 clauses passed" why;
  (* Or-rooted: the first passing clause is named. *)
  let disj = Test_util.filter_exn "TCP_DST 443 OR MAX_PRIORITY 400" in
  let ok, why = explain disj (insert ~priority:100) in
  Alcotest.(check bool) "disj passes" true ok;
  check_contains "disj why" ~sub:"clause 2/2 passed" why;
  let ok, why = explain disj (insert ~priority:1000) in
  Alcotest.(check bool) "disj fails" false ok;
  check_contains "disj why" ~sub:"none of 2 clauses" why

(* [explain] must never disagree with [eval] — the span's verdict is
   the verdict served. *)
let test_filter_explain_agrees_with_eval () =
  let env = Filter_eval.pure_env in
  let filters =
    List.map Test_util.filter_exn
      [ "MAX_PRIORITY 400"; "MAX_PRIORITY 400 AND TCP_DST 80";
        "TCP_DST 443 OR TCP_DST 80"; "ACTION FORWARD AND MAX_PRIORITY 200" ]
    @ [ Filter.True; Filter.False ]
  in
  let calls = [ insert ~priority:100; insert ~priority:1000;
                Api.Read_topology; Api.Read_payload_access ]
  in
  List.iter
    (fun f ->
      List.iter
        (fun c ->
          let attrs = Attrs.of_call c in
          let verdict = Filter_eval.eval env f attrs in
          let explained, _ = Filter_eval.explain env f attrs in
          Alcotest.(check bool) "explain = eval" verdict explained)
        calls)
    filters

let demo_manifest = "PERM insert_flow LIMITING MAX_PRIORITY 400"

let test_engine_check_explained () =
  let e =
    Engine.create
      ~ownership:(Ownership.create ())
      ~app_name:"explained" ~cookie:1
      (Perm_parser.manifest_exn demo_manifest)
  in
  (* Denied: explanation names the token and the failing clause. *)
  (match Engine.check_explained e (insert ~priority:1000) with
  | Api.Deny why, info ->
    check_contains "deny reason" ~sub:"permission filter rejects call" why;
    (match info.Api.explain with
    | None -> Alcotest.fail "denial carries no explanation"
    | Some ex ->
      check_contains "explanation names token" ~sub:"token insert_flow" ex;
      check_contains "explanation names clause" ~sub:"MAX_PRIORITY 400" ex)
  | Api.Allow, _ -> Alcotest.fail "priority 1000 must be denied");
  (* Allowed: still explained. *)
  (match Engine.check_explained e (insert ~priority:100) with
  | Api.Allow, info ->
    Alcotest.(check bool) "allow explained" true (info.Api.explain <> None)
  | Api.Deny why, _ -> Alcotest.failf "priority 100 denied: %s" why);
  (* Missing permission. *)
  (match Engine.check_explained e Api.Read_topology with
  | Api.Deny why, info ->
    check_contains "missing perm" ~sub:"missing permission visible_topology"
      why;
    (match info.Api.explain with
    | Some ex -> check_contains "missing perm explained" ~sub:"not granted" ex
    | None -> Alcotest.fail "missing-permission denial unexplained")
  | Api.Allow, _ -> Alcotest.fail "ungranted read_topology must be denied");
  (* [check_explained] and [check] agree. *)
  List.iter
    (fun call ->
      let plain = Engine.check e call in
      let explained, _ = Engine.check_explained e call in
      Alcotest.(check bool) "explained = plain"
        (plain = Api.Allow) (explained = Api.Allow))
    [ insert ~priority:100; insert ~priority:1000; Api.Read_topology ]

(* Histograms ---------------------------------------------------------------- *)

let hist_of values =
  let h = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.record h) values;
  h

let test_histogram_merge_laws () =
  let module H = Metrics.Histogram in
  let a = hist_of [ 1e-6; 2e-5; 3e-4 ]
  and b = hist_of [ 5e-6; 0.1; 2.0 ]
  and c = hist_of [ 1e-7; 100.; 0.007 ] (* under- and overflow samples *) in
  Alcotest.(check bool) "commutative" true
    (H.export (H.merge a b) = H.export (H.merge b a));
  Alcotest.(check bool) "associative" true
    (H.export (H.merge (H.merge a b) c) = H.export (H.merge a (H.merge b c)));
  let m = H.merge (H.merge a b) c in
  Alcotest.(check int) "merged count" 9 (H.count m);
  let e = H.export m in
  Alcotest.(check (float 1e-12)) "merged min" 1e-7 e.H.min;
  Alcotest.(check (float 1e-9)) "merged max" 100. e.H.max

let test_histogram_edges () =
  let module H = Metrics.Histogram in
  let h = H.create () in
  Alcotest.(check bool) "empty percentile nan" true
    (Float.is_nan (H.percentile h 50.));
  H.record h (-1.);
  H.record h Float.nan;
  let e = H.export h in
  Alcotest.(check int) "negative and nan are underflow" 2 e.H.underflow

(** Nearest-rank exact percentile, for the accuracy property. *)
let exact_nearest_rank p samples =
  let a = Array.of_list (List.sort Float.compare samples) in
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
  a.(rank - 1)

let qsuite =
  [ QCheck.Test.make ~count:300
      ~name:"histogram p50/p90 within one bucket of exact nearest-rank"
      QCheck.(list_of_size (Gen.int_range 1 150) (float_range 2e-6 8.0))
      (fun samples ->
        let module H = Metrics.Histogram in
        let h = hist_of samples in
        List.for_all
          (fun p ->
            let exact = exact_nearest_rank p samples in
            let est = H.percentile h p in
            let lo, hi = H.bucket_bounds (H.bucket_index exact) in
            lo <= est && est <= hi)
          [ 50.; 90. ]) ]

(* Telemetry export ---------------------------------------------------------- *)

let test_telemetry_roundtrip () =
  let h = Metrics.hist "test:lat" in
  List.iter (Metrics.Histogram.record h) [ 1e-5; 2e-4; 5e-4; 0.5 ];
  let tr = Trace.create ~capacity:8 () in
  Trace.record tr (dummy_span 1);
  let snap = Telemetry.snapshot ~counters:[ ("calls", 7) ] ~trace:tr () in
  let json = Telemetry.to_json snap in
  (match Telemetry.Json.of_string json with
  | Error e -> Alcotest.failf "snapshot JSON does not parse: %s" e
  | Ok v ->
    Alcotest.(check bool) "JSON round-trips structurally" true
      (v = Telemetry.to_json_value snap);
    (match Telemetry.Json.member "counters" v with
    | Some (Telemetry.Json.Obj fields) ->
      Alcotest.(check bool) "counters present" true
        (List.mem_assoc "calls" fields)
    | _ -> Alcotest.fail "no counters object"));
  (match Telemetry.validate_prometheus (Telemetry.to_prometheus snap) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Prometheus exposition invalid: %s" e);
  check_contains "prometheus has the counter" ~sub:"sdnshield_calls_total 7"
    (Telemetry.to_prometheus snap);
  Metrics.unregister_hist "test:lat"

(* Every monotone count is a counter family, and the queue families
   hold queues only. *)
let test_exposition_types_counts () =
  (match Vetting.vet_manifest "PERM insert_flow LIMITING TCP_DST 80 AND TCP_DST 443" with
  | Vetting.Admitted m -> ignore (Lint.lint_manifest m)
  | _ -> Alcotest.fail "manifest not admitted");
  let epoch = Result.get_ok (Epoch.create ~policy:"" ()) in
  let market = Epoch.market epoch in
  (* The market runs no queue of its own: a queue gauge stands in for
     the runtime's. *)
  Metrics.register_gauge "queue:test" (fun () -> { Metrics.depth = 0; hwm = 3 });
  let prom =
    Telemetry.to_prometheus (Telemetry.snapshot ~trace:(Trace.create ()) ())
  in
  Metrics.unregister_gauge "queue:test";
  Market.shutdown market;
  Epoch.close epoch;
  let lines = String.split_on_char '\n' prom in
  let typed typ family =
    Alcotest.(check bool)
      (Printf.sprintf "%s is a %s family" family typ)
      true
      (List.mem (Printf.sprintf "# TYPE %s %s" family typ) lines)
  in
  List.iter (typed "counter")
    [ "sdnshield_vet_admitted_total"; "sdnshield_verify_certified_total";
      "sdnshield_lint_error_unsatisfiable_filter_total";
      "sdnshield_nf_memo_hits_total"; "sdnshield_nf_memo_misses_total";
      "sdnshield_nf_memo_evictions_total"; "sdnshield_nf_memo_bypasses_total";
      "sdnshield_inclusion_memo_hits_total";
      "sdnshield_inclusion_memo_misses_total";
      "sdnshield_inclusion_memo_evictions_total";
      "sdnshield_market_committed_total"; "sdnshield_market_rolled_back_total";
      "sdnshield_market_reconcile_delta_total";
      "sdnshield_market_reconcile_full_total"; "sdnshield_trace_spans_total";
      "sdnshield_trace_txn_spans_total" ];
  List.iter (typed "gauge")
    [ "sdnshield_queue_depth"; "sdnshield_market_epoch"; "sdnshield_market_apps" ];
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"sdnshield_queue_" line then
        check_contains "queue sample" ~sub:"{queue=\"queue:" line)
    lines;
  match Telemetry.validate_prometheus prom with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Prometheus exposition invalid: %s" e

let test_json_parser_rejects_garbage () =
  List.iter
    (fun s ->
      match Telemetry.Json.of_string s with
      | Ok _ -> Alcotest.failf "parsed garbage %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nulll"; "\"unterminated" ]

(* Traced runtime ------------------------------------------------------------ *)

let pkt_in dpid =
  Events.Packet_in
    { Message.dpid; in_port = 1; packet = Packet.arp ~src:0xA ~dst:0xB ();
      reason = Message.No_match; buffer_id = None }

(* A monolithic traced run is fully deterministic: every call records
   a span inline (deputy = -1, no queue wait), and every denial is
   explained. *)
let test_traced_runtime_denials_explained () =
  let kernel = Kernel.create (Dataplane.create (Topology.linear 2)) in
  let handled = ref 0 in
  let app =
    App.make
      ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx ev ->
        match ev with
        | Events.Packet_in pi ->
          incr handled;
          let priority = if !handled mod 2 = 0 then 1_000 else 100 in
          ignore
            (ctx.App.call
               (Api.Install_flow
                  ( pi.Message.dpid,
                    Flow_mod.add ~priority
                      ~match_:(Match_fields.make ~tp_dst:(!handled mod 8) ())
                      ~actions:[ Action.Output 1 ] () )))
        | _ -> ())
      "traced"
  in
  let engine =
    Engine.create
      ~ownership:(Ownership.create ())
      ~app_name:"traced" ~cookie:1
      (Perm_parser.manifest_exn
         "PERM insert_flow LIMITING MAX_PRIORITY 400\nPERM pkt_in_event")
  in
  let trace = Trace.create ~capacity:64 () in
  let config = { Runtime.default_config with Runtime.trace = Some trace } in
  let rt =
    Runtime.create ~config ~mode:Runtime.Monolithic kernel
      [ (app, Engine.checker engine) ]
  in
  for _ = 1 to 20 do
    Runtime.feed_sync rt (pkt_in 1)
  done;
  let spans = Trace.spans trace in
  Alcotest.(check int) "every install call has a span" 20 (List.length spans);
  let denied =
    List.filter (fun (s : Trace.span) -> s.Trace.decision = Trace.Denied) spans
  in
  Alcotest.(check int) "half denied" 10 (List.length denied);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check string) "span call kind" "install_flow" s.Trace.call;
      Alcotest.(check int) "inline deputy" (-1) s.Trace.deputy;
      Alcotest.(check (float 0.)) "no queue wait inline" 0. s.Trace.queue_wait;
      match s.Trace.explain with
      | Some ex when s.Trace.decision = Trace.Denied ->
        check_contains "denial explained" ~sub:"MAX_PRIORITY 400" ex
      | Some _ -> ()
      | None -> Alcotest.failf "span #%d has no explanation" s.Trace.seq)
    spans;
  (* The snapshot sees the trace store's accounting. *)
  let snap = Runtime.telemetry rt in
  (match snap.Telemetry.trace with
  | Some st -> Alcotest.(check int) "snapshot trace recorded" 20 st.Trace.recorded
  | None -> Alcotest.fail "telemetry snapshot lost the trace store");
  Runtime.shutdown rt;
  List.iter Metrics.unregister_hist
    [ "lat:queue"; "lat:check"; "lat:exec"; "lat:total"; "lat:app:traced" ]

(* One mediated-call path ------------------------------------------------------

   Tracing is a per-call span context on the same [checked_exec] /
   [checked_txn], so a traced run must serve exactly what an untraced
   run serves, on every runtime mode, and record one span per sampled
   call or group. *)

(* MAX_RULE_COUNT reads the ownership the engine records, so later
   denials depend on every approval recorded before them. *)
let oracle_manifest =
  "PERM insert_flow LIMITING MAX_PRIORITY 400 AND MAX_RULE_COUNT 8\n\
   PERM pkt_in_event\nPERM visible_topology"

let install ~dpid ~priority ~port =
  Api.Install_flow
    ( dpid,
      Flow_mod.add ~priority
        ~match_:(Match_fields.make ~tp_dst:port ())
        ~actions:[ Action.Output 1 ] () )

(* What a handler does for one packet-in: single calls and atomic
   groups, in order. *)
type op = Single of Api.call | Group of Api.call list

type outcome =
  | Single_result of Api.result
  | Group_result of (Api.result list, int * string) result

type run = {
  outcomes : outcome list;
  stats : int * int * int * int;
  faults : Runtime.fault_report;
  denials : Sandbox.audit_entry list;
  execs : int;
  flows : Flow_table.entry list list;
}

let modes =
  [ ("monolithic", Runtime.Monolithic);
    ("isolated", Runtime.Isolated { ksd_threads = 2 }) ]

let unregister_lat_hists app =
  List.iter Metrics.unregister_hist
    [ "lat:queue"; "lat:check"; "lat:exec"; "lat:total"; "lat:app:" ^ app ]

(* Feed one packet-in per script entry through a fresh deployment whose
   handler issues that entry's operations, against an engine that
   records ownership. *)
let run_script ~mode ?trace script =
  let kernel = Kernel.create (Dataplane.create (Topology.linear 2)) in
  let todo = ref script and outcomes = ref [] in
  let app =
    App.make
      ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx _ ->
        match !todo with
        | [] -> ()
        | (_, ops) :: rest ->
          todo := rest;
          List.iter
            (fun op ->
              let o =
                match op with
                | Single c -> Single_result (ctx.App.call c)
                | Group cs -> Group_result (ctx.App.transaction cs)
              in
              outcomes := o :: !outcomes)
            ops)
      "oracle"
  in
  let engine =
    Engine.create
      ~ownership:(Ownership.create ())
      ~app_name:"oracle" ~cookie:1
      (Perm_parser.manifest_exn oracle_manifest)
  in
  let rt =
    Runtime.create
      ~config:{ Runtime.default_config with Runtime.trace }
      ~mode kernel
      [ (app, Engine.checker engine) ]
  in
  List.iter (fun (dpid, _) -> Runtime.feed_sync rt (pkt_in dpid)) script;
  Runtime.shutdown rt;
  { outcomes = List.rev !outcomes;
    stats = Runtime.stats rt;
    faults = Runtime.fault_report rt;
    denials =
      List.filter
        (fun (e : Sandbox.audit_entry) -> not e.Sandbox.allowed)
        (Sandbox.audit_log kernel.Kernel.sandbox);
    execs = Kernel.exec_count kernel;
    flows =
      List.map
        (fun dpid ->
          Flow_table.entries
            (Dataplane.switch kernel.Kernel.dataplane dpid).Switch.table)
        [ 1; 2 ] }

let span_label = function
  | Single c -> Api.call_kind c
  | Group cs -> Printf.sprintf "txn(%d calls)" (List.length cs)

let span_class = function
  | Single_result (Api.Denied _) | Group_result (Error _) -> Trace.Denied
  | Single_result (Api.Failed _) -> Trace.Failed
  | Single_result _ | Group_result (Ok _) -> Trace.Allowed

let arb_script =
  let open QCheck in
  let call =
    Gen.(
      frequency
        [ ( 3,
            map3
              (fun dpid priority port -> install ~dpid ~priority ~port)
              (int_range 1 2)
              (oneofl [ 100; 400; 401; 1000 ])
              (int_range 1 6) );
          (1, return Api.Read_topology) ])
  in
  let op =
    Gen.(
      frequency
        [ (3, map (fun c -> Single c) call);
          (1, map (fun cs -> Group cs) (list_size (int_range 2 3) call)) ])
  in
  let pp_op ppf = function
    | Single c -> Api.pp_call ppf c
    | Group cs -> Fmt.(brackets (list ~sep:semi Api.pp_call)) ppf cs
  in
  make
    ~print:
      (Fmt.to_to_string
         Fmt.(list ~sep:cut (pair ~sep:(any ": ") int (list ~sep:comma pp_op))))
    Gen.(
      list_size (int_range 1 12)
        (pair (int_range 1 2) (list_size (int_range 1 3) op)))

let folded_path_qsuite =
  [ QCheck.Test.make ~count:25
      ~name:"traced runs serve what untraced runs serve, one span per call"
      arb_script
      (fun script ->
        let ops = List.concat_map snd script in
        List.for_all
          (fun (name, mode) ->
            let untraced = run_script ~mode script in
            let full = Trace.create ()
            and half = Trace.create ~sampling:0.5 () in
            let traced = run_script ~mode ~trace:full script in
            let sampled = run_script ~mode ~trace:half script in
            unregister_lat_hists "oracle";
            let spans = Trace.spans full and st = Trace.stats half in
            if traced <> untraced then
              QCheck.Test.fail_reportf "%s: sampling 1.0 run diverges" name
            else if sampled <> untraced then
              QCheck.Test.fail_reportf "%s: sampling 0.5 run diverges" name
            else if List.length spans <> List.length ops then
              QCheck.Test.fail_reportf "%s: %d spans for %d calls and groups"
                name (List.length spans) (List.length ops)
            else if
              not
                (List.for_all2
                   (fun (s : Trace.span) (op, o) ->
                     s.Trace.call = span_label op
                     && s.Trace.decision = span_class o)
                   spans
                   (List.combine ops untraced.outcomes))
            then
              QCheck.Test.fail_reportf "%s: a span disagrees with its result"
                name
            else if
              st.Trace.seen <> List.length ops
              || st.Trace.seen <> st.Trace.recorded + st.Trace.sampled_out
            then
              QCheck.Test.fail_reportf
                "%s: sampling 0.5 offered %d of %d (recorded %d, sampled \
                 out %d)"
                name st.Trace.seen (List.length ops) st.Trace.recorded
                st.Trace.sampled_out
            else true)
          modes) ]

(* A kernel fault under tracing: the deputy barrier's [Api.Failed]
   reply, one counted failure, and one [Failed] span naming the
   exception. *)
let test_traced_kernel_fault () =
  let trace = Trace.create () in
  let rt =
    Runtime.create
      ~config:{ Runtime.default_config with Runtime.trace = Some trace }
      ~mode:(Runtime.Isolated { ksd_threads = 2 })
      (Kernel.create (Dataplane.create (Topology.linear 2)))
      [ (App.make "faulty", Api.allow_all) ]
  in
  let ctx = Runtime.instance_ctx rt "faulty" in
  let r =
    Fun.protect ~finally:Faults.disarm (fun () ->
        Faults.configure ~kernel:1.0 ();
        ctx.App.call (insert ~priority:100))
  in
  Runtime.shutdown rt;
  unregister_lat_hists "faulty";
  (match r with
  | Api.Failed _ -> ()
  | r -> Alcotest.failf "kernel fault replied %a" Api.pp_result r);
  Alcotest.(check int) "one barrier conversion" 1
    (Runtime.fault_report rt).Runtime.failures;
  match Trace.spans trace with
  | [ s ] ->
    Alcotest.(check bool) "span is Failed" true
      (s.Trace.decision = Trace.Failed);
    Alcotest.(check bool) "explanation starts with the exception" true
      (String.starts_with ~prefix:"exception:"
         (Option.value ~default:"" s.Trace.explain))
  | spans -> Alcotest.failf "%d spans for one faulted call" (List.length spans)

(* A traced group records one [txn(N calls)] span: [Allowed] when it
   commits, [Denied] naming the offending member when it does not. *)
let test_traced_transaction_spans () =
  List.iter
    (fun (name, mode) ->
      let trace = Trace.create () in
      let engine =
        Engine.create
          ~ownership:(Ownership.create ())
          ~app_name:"group" ~cookie:1
          (Perm_parser.manifest_exn oracle_manifest)
      in
      let rt =
        Runtime.create
          ~config:{ Runtime.default_config with Runtime.trace = Some trace }
          ~mode
          (Kernel.create (Dataplane.create (Topology.linear 2)))
          [ (App.make "group", Engine.checker engine) ]
      in
      let ctx = Runtime.instance_ctx rt "group" in
      let ok =
        ctx.App.transaction [ insert ~priority:100; Api.Read_topology ]
      in
      let denied =
        ctx.App.transaction
          [ insert ~priority:100; insert ~priority:1000; Api.Read_topology ]
      in
      Runtime.shutdown rt;
      unregister_lat_hists "group";
      Alcotest.(check bool) (name ^ ": first group commits") true
        (Result.is_ok ok);
      Alcotest.(check bool) (name ^ ": second group is denied at call 1") true
        (match denied with Error (1, _) -> true | _ -> false);
      match Trace.spans trace with
      | [ s1; s2 ] ->
        Alcotest.(check string) (name ^ ": passing label") "txn(2 calls)"
          s1.Trace.call;
        Alcotest.(check bool) (name ^ ": passing group Allowed") true
          (s1.Trace.decision = Trace.Allowed);
        Alcotest.(check string) (name ^ ": failing label") "txn(3 calls)"
          s2.Trace.call;
        Alcotest.(check bool) (name ^ ": failing group Denied") true
          (s2.Trace.decision = Trace.Denied);
        Alcotest.(check bool) (name ^ ": explanation names the member") true
          (String.starts_with ~prefix:"call 1 of group: "
             (Option.value ~default:"" s2.Trace.explain))
      | spans ->
        Alcotest.failf "%s: %d spans for two groups" name (List.length spans))
    modes

(* Minor words allocated so far by every domain, deputies included.
   [Gc.quick_stat] folds a running domain's allocation in only at its
   next minor collection, so collect first. *)
let minor_words_all_domains () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* docs/OBSERVABILITY.md §1: a sampled-out call allocates exactly what
   an untraced call does.  The warm-up spends the store's first call,
   which is always sampled, and ends with an event the app handles: an
   app thread first runs when its creator releases the domain lock, so
   without it a warm-up whose calls never park leaves the thread's
   startup allocation (its 5-word loop closure) to the measured
   window. *)
let minor_words_of_calls ~mode ~trace =
  let rt =
    Runtime.create
      ~config:{ Runtime.default_config with Runtime.trace }
      ~mode
      (Kernel.create (Dataplane.create (Topology.linear 2)))
      [ (App.make ~subscriptions:[ Api.E_packet_in ] "alloc", Api.allow_all) ]
  in
  let ctx = Runtime.instance_ctx rt "alloc" in
  for _ = 1 to 1_000 do
    ignore (ctx.App.call Api.Read_topology)
  done;
  Runtime.feed_sync rt (pkt_in 1);
  let w0 = minor_words_all_domains () in
  for _ = 1 to 100_000 do
    ignore (ctx.App.call Api.Read_topology)
  done;
  let words = minor_words_all_domains () -. w0 in
  Runtime.shutdown rt;
  unregister_lat_hists "alloc";
  words

let test_sampled_out_allocates_nothing () =
  List.iter
    (fun (name, mode) ->
      let untraced = minor_words_of_calls ~mode ~trace:None in
      let sampled_out =
        minor_words_of_calls ~mode
          ~trace:(Some (Trace.create ~sampling:1e-7 ()))
      in
      Alcotest.(check (float 0.))
        (name ^ ": minor words of 100k calls, sampled out = untraced")
        untraced sampled_out)
    modes

(* Lifecycle transaction spans ----------------------------------------------- *)

let unregister_stage_hists () =
  List.iter
    (fun (name, _) ->
      if String.length name >= 10 && String.sub name 0 10 = "lat:stage:" then
        Metrics.unregister_hist name)
    (Metrics.hist_report ())

(* One committed and one rolled-back lifecycle request through the real
   executor: each leaves a parent transaction span whose stage children
   account for the parent's duration, and whose verdict mirrors the
   ledger outcome (including the failed stage). *)
let test_txn_spans_lifecycle () =
  let trace = Trace.create () in
  let t =
    match Epoch.create ~policy:"" () with
    | Ok t -> t
    | Error e -> Alcotest.failf "policy rejected: %s" e
  in
  let m = Epoch.market ~trace t in
  let manifest = "PERM insert_flow LIMITING MAX_PRIORITY 400\nPERM pkt_in_event" in
  let o1 = Market.submit m (Market.install "alpha" manifest) in
  let o2 = Market.submit m (Market.install "alpha" manifest) in
  Market.shutdown m;
  Epoch.close t;
  Alcotest.(check bool) "first install committed" true (Market.committed o1);
  Alcotest.(check bool) "re-install rolled back" false (Market.committed o2);
  let spans = Trace.txn_spans trace in
  Alcotest.(check int) "one span per transaction" 2 (List.length spans);
  let s1 = List.nth spans 0 and s2 = List.nth spans 1 in
  (* Committed parent: verdict, epochs, and stage accounting. *)
  Alcotest.(check bool) "span 1 committed" true (Trace.txn_committed s1);
  Alcotest.(check int) "span 1 id" 1 s1.Trace.id;
  Alcotest.(check int) "epoch before commit" 0 s1.Trace.epoch_before;
  Alcotest.(check int) "epoch after commit" 1 s1.Trace.epoch_after;
  let stage_names =
    List.map (fun (st : Trace.stage_span) -> st.Trace.stage) s1.Trace.stages
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "commit ran stage %s" expected)
        true (List.mem expected stage_names))
    [ "vet"; "reconcile"; "verify"; "compile"; "publish" ];
  let sum =
    List.fold_left
      (fun acc (st : Trace.stage_span) -> acc +. st.Trace.dur)
      0. s1.Trace.stages
  in
  Alcotest.(check bool)
    (Printf.sprintf "stage children (%.6fs) fit inside parent (%.6fs)" sum
       s1.Trace.txn_total)
    true
    (sum <= s1.Trace.txn_total +. 1e-3);
  Alcotest.(check bool)
    (Printf.sprintf "parent (%.6fs) mostly accounted by children (%.6fs)"
       s1.Trace.txn_total sum)
    true
    (s1.Trace.txn_total -. sum <= 0.05);
  (* Offsets are cumulative: each child starts at or after the previous
     child's end. *)
  ignore
    (List.fold_left
       (fun prev_end (st : Trace.stage_span) ->
         Alcotest.(check bool)
           (Printf.sprintf "stage %s starts after the previous ends"
              st.Trace.stage)
           true
           (st.Trace.offset >= prev_end -. 1e-9);
         st.Trace.offset +. st.Trace.dur)
       0. s1.Trace.stages);
  (* Rolled-back parent: the span's failed stage is the ledger's. *)
  (match (o2, s2.Trace.verdict) with
  | Market.Rolled_back { stage; epoch; _ }, Trace.Txn_rolled_back v ->
    Alcotest.(check string) "span names the failed stage" stage v.stage;
    Alcotest.(check string) "vet failed" "vet" v.stage;
    Alcotest.(check int) "rollback leaves the epoch" epoch s2.Trace.epoch_after;
    Alcotest.(check int) "epoch unchanged by rollback" s2.Trace.epoch_before
      s2.Trace.epoch_after
  | _ -> Alcotest.fail "rolled-back transaction has a committed span");
  (* The span's stage list mirrors the outcome's timing list. *)
  Alcotest.(check (list string)) "span stages = outcome stages"
    (List.map fst (Market.stages_of o2))
    (List.map (fun (st : Trace.stage_span) -> st.Trace.stage) s2.Trace.stages);
  unregister_stage_hists ()

(* Timeline export ----------------------------------------------------------- *)

let arb_timeline_store =
  let open QCheck in
  let span_gen =
    Gen.(
      map
        (fun (st, (qw, cd, ed)) ->
          { Trace.seq = 0; app = "a"; call = "install_flow"; deputy = -1;
            start = st; queue_wait = qw; check_dur = cd; exec_dur = ed;
            total = qw +. cd +. ed; decision = Trace.Allowed;
            explain = None })
        (pair (float_bound_inclusive 1.0)
           (triple (float_bound_inclusive 0.01) (float_bound_inclusive 0.01)
              (float_bound_inclusive 0.01))))
  in
  let txn_gen =
    Gen.(
      map
        (fun (st, durs, committed) ->
          let stages =
            List.rev
              (fst
                 (List.fold_left
                    (fun (acc, off) dur ->
                      ( { Trace.stage = "stage"; offset = off; dur } :: acc,
                        off +. dur ))
                    ([], 0.) durs))
          in
          let total =
            List.fold_left
              (fun acc (s : Trace.stage_span) -> acc +. s.Trace.dur)
              0. stages
          in
          { Trace.tseq = 0; id = 1; kind = "install"; txn_app = "a";
            verdict =
              (if committed then
                 Trace.Txn_committed { delta = false; republished = [] }
               else Trace.Txn_rolled_back { stage = "vet"; reason = "refused" });
            epoch_before = 0;
            epoch_after = (if committed then 1 else 0);
            txn_start = st; txn_total = total; stages })
        (triple (float_bound_inclusive 1.0)
           (list_size (int_range 0 6) (float_bound_inclusive 0.005))
           bool))
  in
  make
    Gen.(
      pair
        (list_size (int_range 0 20) span_gen)
        (list_size (int_range 0 10) txn_gen))

(* Every "X" event's ts is non-decreasing within its track (tid). *)
let monotone_per_track v =
  match Telemetry.Json.member "traceEvents" v with
  | Some (Telemetry.Json.Arr events) ->
    let by_tid = Hashtbl.create 4 in
    List.iter
      (fun e ->
        match e with
        | Telemetry.Json.Obj fields
          when List.assoc_opt "ph" fields = Some (Telemetry.Json.Str "X") -> (
          match
            (List.assoc_opt "tid" fields, List.assoc_opt "ts" fields)
          with
          | Some (Telemetry.Json.Num tid), Some (Telemetry.Json.Num ts) ->
            let prev = try Hashtbl.find by_tid tid with Not_found -> [] in
            Hashtbl.replace by_tid tid (ts :: prev)
          | _ -> ())
        | _ -> ())
      events;
    Hashtbl.fold
      (fun _ rev_ts acc ->
        let ts = List.rev rev_ts in
        acc && List.sort Float.compare ts = ts)
      by_tid true
  | _ -> false

let timeline_qsuite =
  [ QCheck.Test.make ~count:100
      ~name:"timeline export round-trips through Json and is monotone per track"
      arb_timeline_store
      (fun (calls, txns) ->
        let tr = Trace.create () in
        List.iter (Trace.record tr) calls;
        List.iter (Trace.record_txn tr) txns;
        let doc = Timeline.to_json tr in
        match Telemetry.Json.of_string (Timeline.to_string tr) with
        | Error _ -> false
        | Ok parsed -> parsed = doc && monotone_per_track parsed) ]

let suite =
  [ Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "sampling stride" `Quick test_sampling_stride;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "filter explain clauses" `Quick
      test_filter_explain_clauses;
    Alcotest.test_case "filter explain agrees with eval" `Quick
      test_filter_explain_agrees_with_eval;
    Alcotest.test_case "engine check_explained" `Quick
      test_engine_check_explained;
    Alcotest.test_case "histogram merge laws" `Quick test_histogram_merge_laws;
    Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
    Alcotest.test_case "telemetry roundtrip" `Quick test_telemetry_roundtrip;
    Alcotest.test_case "exposition types counts as counters" `Quick
      test_exposition_types_counts;
    Alcotest.test_case "json parser rejects garbage" `Quick
      test_json_parser_rejects_garbage;
    Alcotest.test_case "lifecycle txn spans" `Quick test_txn_spans_lifecycle;
    Alcotest.test_case "traced runtime explains denials" `Quick
      test_traced_runtime_denials_explained;
    Alcotest.test_case "traced kernel fault records a Failed span" `Quick
      test_traced_kernel_fault;
    Alcotest.test_case "traced groups record one span each" `Quick
      test_traced_transaction_spans;
    Alcotest.test_case "sampled-out calls allocate nothing" `Quick
      test_sampled_out_allocates_nothing ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      (qsuite @ timeline_qsuite @ folded_path_qsuite)
