(* Figure 5 — permission-engine checking throughput on a single core.

   Paper setup (§IX-B2): three manifests of small/medium/large
   complexity (1/5/15 permission tokens, 10–20 filters each); an app
   behaviour trace of flow insertions and statistics requests with 5 %
   violations; y-axis is permission checks per second, one series per
   API call type.

   Paper result: throughput decreases moderately with manifest
   complexity and "permission checking latency is always less than one
   microsecond". *)

open Shield_workload
open Sdnshield
open Bechamel

let complexities = [ Perm_gen.Small; Perm_gen.Medium; Perm_gen.Large ]

let engine_for ~complexity ~focus =
  (* Stateless checking, as the paper characterises the engine for this
     microbenchmark ("since the permission checking is stateless, we
     can easily scale out"). *)
  Engine.create ~app_name:"fig5" (Perm_gen.generate ~complexity ~focus ())

let test_for ~complexity ~(focus : Api_trace.focus) =
  let engine = engine_for ~complexity ~focus in
  let trace = Array.map fst (Api_trace.generate ~focus ~n:4096 ()) in
  let i = ref 0 in
  let label = match focus with `Insert -> "insert_flow" | `Stats -> "read_statistics" in
  Test.make
    ~name:(Printf.sprintf "%s/%s" label (Perm_gen.complexity_to_string complexity))
    (Staged.stage (fun () ->
         let call = trace.(!i land 4095) in
         incr i;
         Sys.opaque_identity (Engine.check engine call)))

let run () =
  Bench_util.hr
    "Figure 5: permission checking throughput (single core, 5% violations)";
  let tests =
    List.concat_map
      (fun focus ->
        List.map (fun complexity -> test_for ~complexity ~focus) complexities)
      [ `Insert; `Stats ]
  in
  let results =
    Bench_util.run_bechamel (Test.make_grouped ~name:"fig5" tests)
  in
  let rows =
    List.map
      (fun (name, ns) ->
        [ name; Bench_util.fmt_ns ns; Bench_util.fmt_ops ns;
          (if ns < 1000. then "yes" else "NO") ])
      results
  in
  Bench_util.table
    [ "api-call/manifest"; "latency"; "throughput"; "sub-microsecond?" ]
    rows;
  Fmt.pr
    "@.paper: throughput drops moderately from small to large manifests;@.";
  Fmt.pr "       checking latency always < 1 us.@."
