(* Automaton lab — the decision DAG against the [Filter_eval] oracle,
   plus the batched entry point (docs/AUTOMATON.md).

   The large Figure-5 manifest, insert-focused traces, stateless
   checking as in the paper's single-core microbenchmark.  Two access
   patterns: skewed (64 distinct calls, 90 % of accesses to the
   hottest 8 — a CBench-style elephant-flow mix) and uniform (32768
   distinct calls).  Each is measured for [Filter_eval] interpreting
   the filter AST (the oracle), the deployed [Engine], and the bare
   [Automaton].  A batch-size sweep measures what [check_batch] buys
   over call-at-a-time dispatch.

   `run` persists its measurements to BENCH_AUTOMATON.json at the repo
   root (the perf trajectory lives in the tree); `smoke` is the tier-1
   gate — equivalence with the oracle over the generated corpus and
   the examples/lint manifest plus a deliberately conservative
   single-core throughput floor, no file writes. *)

open Shield_workload
open Sdnshield
module Api = Shield_controller.Api
module J = Shield_controller.Telemetry.Json

let manifest () = Perm_gen.generate ~complexity:Perm_gen.Large ~focus:`Insert ()

(* Workloads ------------------------------------------------------------------ *)

(** [base_calls n] — [n] distinct insert-focused calls, 5 % violating. *)
let base_calls n = Array.map fst (Api_trace.generate ~focus:`Insert ~n ())

(** A trace of [n] accesses over [base], 90 % of them drawn from the
    first eighth of the population (the "hot set"). *)
let skewed_trace ~base ~n =
  let rng = Prng.of_int 42 in
  let distinct = Array.length base in
  let hot = max 1 (distinct / 8) in
  Array.init n (fun _ ->
      if Prng.int rng 10 < 9 then base.(Prng.int rng hot)
      else base.(Prng.int rng distinct))

(* Measurement ---------------------------------------------------------------

   The automaton runs at tens of M ops/s, where a few fixed passes
   give a timed region of milliseconds that drowns in timer jitter.
   Unless the caller fixes the repeat count, scale it so every number
   comes from a region of comparable (generous) length. *)

let target_region = 0.25 (* seconds *)

let adaptive_repeats dt =
  max 2 (min 512 (int_of_float (target_region /. Float.max 1e-6 dt)))

(** Ops/s of [check] over [trace]: one warm (and calibration) pass,
    then [repeats] timed passes (default: enough to fill
    [target_region]). *)
let throughput ?repeats check trace =
  let pass () =
    Array.iter (fun call -> ignore (Sys.opaque_identity (check call))) trace
  in
  let (), dt = Bench_util.timed pass in
  let repeats =
    match repeats with Some r -> r | None -> adaptive_repeats dt
  in
  let (), total =
    Bench_util.timed (fun () ->
        for _ = 1 to repeats do
          pass ()
        done)
  in
  float_of_int (repeats * Array.length trace) /. total

(* Checkers ------------------------------------------------------------------- *)

(** The oracle: does [Filter_eval], interpreting the granted token's
    filter on the call's attributes, allow the call?  Stateless. *)
let oracle (m : Perm.manifest) =
  let filters = Array.make Token.count None in
  List.iter
    (fun (p : Perm.t) -> filters.(Token.index p.Perm.token) <- Some p.Perm.filter)
    m;
  fun call ->
    match Dispatch.token_of_call call with
    | None -> true
    | Some t -> (
      match filters.(Token.index t) with
      | None -> false
      | Some f -> Filter_eval.eval Filter_eval.pure_env f (Attrs.of_call call))

let allows = function Api.Allow -> true | Api.Deny _ -> false

let stateless_engine ~name m = Engine.create ~app_name:name m

(** The three rows over one manifest, stateless. *)
let checkers m =
  let oracle = oracle m in
  let engine = stateless_engine ~name:"automaton-lab" m in
  let automaton = Automaton.of_manifest m in
  [ ("Filter_eval", oracle);
    ("engine", fun call -> allows (Engine.check engine call));
    ("automaton", fun call -> allows (Automaton.check automaton call)) ]

(** One workload row set: ops/s per checker plus speedups. *)
let workload_section ~title ~label ~trace m =
  Bench_util.subhr title;
  let measured =
    List.map (fun (name, check) -> (name, throughput check trace)) (checkers m)
  in
  let base = List.assoc "Filter_eval" measured in
  Bench_util.table
    [ "checker"; "throughput"; "vs Filter_eval" ]
    (List.map
       (fun (name, ops) ->
         [ name;
           Printf.sprintf "%.2f M ops/s" (ops /. 1e6);
           Printf.sprintf "%.2fx" (ops /. base) ])
       measured);
  J.Obj
    [ ("workload", J.Str label);
      ("accesses", J.Num (float (Array.length trace)));
      ( "checkers",
        J.Arr
          (List.map
             (fun (name, ops) ->
               J.Obj
                 [ ("checker", J.Str name);
                   ("mops", J.Num (ops /. 1e6));
                   ("vs_filter_eval", J.Num (ops /. base)) ])
             measured) ) ]

(** Ops/s over [trace] cut into [batch]-sized chunks, producing one
    verdict array per chunk — via [check_batch], or via the per-call
    loop a caller would write in its place ([Array.map check]).  Both
    sides pay for materializing the verdicts, so the ratio isolates
    what the batched entry point actually buys (hoisted dispatch and
    bookkeeping); result-array costs are identical by construction.
    One warm (and calibration) pass, then adaptive timed passes. *)
let chunked_throughput a ~batch ~batched trace =
  let n = Array.length trace in
  let chunks =
    Array.init
      ((n + batch - 1) / batch)
      (fun i -> Array.sub trace (i * batch) (min batch (n - (i * batch))))
  in
  let pass =
    if batched then fun () ->
      Array.iter
        (fun chunk ->
          ignore (Sys.opaque_identity (Automaton.check_batch a chunk)))
        chunks
    else fun () ->
      Array.iter
        (fun chunk ->
          ignore
            (Sys.opaque_identity (Array.map (fun c -> Automaton.check a c) chunk)))
        chunks
  in
  let (), dt = Bench_util.timed pass in
  let repeats = adaptive_repeats dt in
  let (), total =
    Bench_util.timed (fun () ->
        for _ = 1 to repeats do
          pass ()
        done)
  in
  float_of_int (repeats * n) /. total

let batch_sweep m trace =
  Bench_util.subhr "check_batch: batch-size sweep (uniform trace)";
  let a = Automaton.of_manifest m in
  let per_call = throughput (Automaton.check a) trace in
  let rows =
    List.map
      (fun batch ->
        let ops = chunked_throughput a ~batch ~batched:true trace in
        let loop = chunked_throughput a ~batch ~batched:false trace in
        (batch, ops, loop, ops /. loop))
      [ 1; 4; 16; 64; 256; 1024; 4096 ]
  in
  Bench_util.table
    [ "batch"; "check_batch"; "per-call loop"; "speedup" ]
    ([ "(bare check, no verdict array)";
       "";
       Printf.sprintf "%.2f M ops/s" (per_call /. 1e6);
       "" ]
    :: List.map
         (fun (batch, ops, loop, rel) ->
           [ string_of_int batch;
             Printf.sprintf "%.2f M ops/s" (ops /. 1e6);
             Printf.sprintf "%.2f M ops/s" (loop /. 1e6);
             Printf.sprintf "%.2fx" rel ])
         rows);
  ( J.Arr
      (List.map
         (fun (batch, ops, loop, rel) ->
           J.Obj
             [ ("batch", J.Num (float batch));
               ("mops", J.Num (ops /. 1e6));
               ("per_call_loop_mops", J.Num (loop /. 1e6));
               ("vs_per_call", J.Num rel) ])
         rows),
    J.Num (per_call /. 1e6) )

let build_stats_json m =
  let s = Automaton.build_stats (Automaton.of_manifest m) in
  J.Obj
    [ ("nodes", J.Num (float s.Automaton.nodes));
      ("shared", J.Num (float s.Automaton.shared));
      ("collapsed", J.Num (float s.Automaton.collapsed));
      ("tokens", J.Num (float s.Automaton.tokens)) ]

let run () =
  Bench_util.hr "Automaton: decision-DAG checking vs the Filter_eval oracle";
  let m = manifest () in
  let skewed =
    workload_section ~title:"skewed (64 distinct calls, 90% to hot 8)"
      ~label:"skewed"
      ~trace:(skewed_trace ~base:(base_calls 64) ~n:65536)
      m
  in
  let uniform_trace = base_calls 32768 in
  let uniform =
    workload_section ~title:"uniform (32768 distinct calls)" ~label:"uniform"
      ~trace:uniform_trace m
  in
  let sweep, per_call = batch_sweep m uniform_trace in
  Bench_util.write_json "BENCH_AUTOMATON.json"
    (J.Obj
       [ ("bench", J.Str "automaton-lab");
         ("manifest", J.Str "perm_gen large/insert (Figure-5 shape)");
         ("build", build_stats_json m);
         ("workloads", J.Arr [ skewed; uniform ]);
         ("batch_per_call_mops", per_call);
         ("batch_sweep", sweep) ])

(* Smoke gate ------------------------------------------------------------- *)

let fail = Bench_util.fail

(** Automaton, Engine and batched Automaton each decide as the
    [Filter_eval] oracle, call-for-call on [m]. *)
let equivalence ~what m trace =
  let want = oracle m in
  let e = stateless_engine ~name:("smoke-" ^ what) m in
  let a = Automaton.of_manifest m in
  let batched = Automaton.check_batch (Automaton.of_manifest m) trace in
  Array.iteri
    (fun i call ->
      let w = want call in
      if allows (Automaton.check a call) <> w then
        fail "%s: automaton diverges from Filter_eval at call %d" what i;
      if allows (Engine.check e call) <> w then
        fail "%s: engine diverges from Filter_eval at call %d" what i;
      if allows batched.(i) <> w then
        fail "%s: check_batch diverges from Filter_eval at call %d" what i)
    trace

let smoke () =
  Bench_util.start_gate ~title:"Automaton: smoke" "automaton-smoke" 120.;
  (* 1. Equivalence over the generated corpus: every complexity × focus
     shape, with a violation rate high enough to exercise denials. *)
  List.iter
    (fun complexity ->
      List.iter
        (fun focus ->
          let m = Perm_gen.generate ~complexity ~focus () in
          let trace =
            Array.map fst
              (Api_trace.generate ~focus ~violation_rate:0.3 ~n:2048 ())
          in
          let what =
            Printf.sprintf "%s/%s"
              (Perm_gen.complexity_to_string complexity)
              (match focus with `Insert -> "insert" | `Stats -> "stats")
          in
          equivalence ~what m trace)
        [ `Insert; `Stats ])
    [ Perm_gen.Small; Perm_gen.Medium; Perm_gen.Large ];
  (* Mixed-call traces against the large manifest: covers call kinds a
     focused trace never issues. *)
  equivalence ~what:"large/mixed" (manifest ())
    (Array.map fst (Api_trace.generate_mixed ~violation_rate:0.3 ~n:2048 ()));
  (* 2. A real manifest from the examples corpus, not a generated one. *)
  (match Bench_util.read_example ~dir:"lint" "clean.manifest" with
  | "" -> ()
  | src -> (
    match Perm_parser.manifest_of_string src with
    | Error e -> fail "clean.manifest does not parse: %s" e
    | Ok m ->
      equivalence ~what:"examples/clean"
        m
        (Array.map fst (Api_trace.generate_mixed ~violation_rate:0.3 ~n:2048 ()))));
  Fmt.pr "equivalence (Filter_eval = automaton = engine = batched): %s@."
    (if !Bench_util.failures = [] then "ok" else "FAIL");
  (* 3. Conservative single-core throughput floor on the uniform
     workload — catches an automaton that silently fell back to
     something interpretive, not a benchmark. *)
  let m = manifest () in
  let a = Automaton.of_manifest m in
  let trace = base_calls 8192 in
  let ops = throughput ~repeats:2 (Automaton.check a) trace in
  Fmt.pr "uniform single-core throughput: %.2f M ops/s (floor 1.00)@."
    (ops /. 1e6);
  if ops < 1e6 then fail "throughput %.2f M ops/s under the 1M floor" (ops /. 1e6);
  Bench_util.report "automaton-smoke"
