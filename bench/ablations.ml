(* Ablations of the design choices called out in DESIGN.md §5:

   - checker compilation: the [Filter_eval] interpreter vs the
     automaton-backed engine on the same trace;
   - isolation architecture: monolithic direct calls vs thread
     isolation with 1 / 2 / 4 Kernel Service Deputies;
   - Algorithm-1 cost vs filter-expression size (the CNF×DNF
     clause-pairwise comparison). *)

open Shield_workload
open Sdnshield
open Bechamel

(* Compilation ---------------------------------------------------------------- *)

let run_compile () =
  Bench_util.hr
    "Ablation: manifest compilation (Filter_eval AST vs the engine's automaton)";
  let tests =
    List.concat_map
      (fun complexity ->
        let manifest = Perm_gen.generate ~complexity ~focus:`Insert () in
        let oracle = Automaton_lab.oracle manifest in
        let engine = Automaton_lab.stateless_engine ~name:"ablate" manifest in
        let trace = Array.map fst (Api_trace.generate ~focus:`Insert ~n:4096 ()) in
        let i = ref 0 and j = ref 0 in
        let name suffix =
          Printf.sprintf "%s/%s" (Perm_gen.complexity_to_string complexity) suffix
        in
        [ Test.make ~name:(name "Filter_eval")
            (Staged.stage (fun () ->
                 let call = trace.(!i land 4095) in
                 incr i;
                 Sys.opaque_identity (oracle call)));
          Test.make ~name:(name "engine")
            (Staged.stage (fun () ->
                 let call = trace.(!j land 4095) in
                 incr j;
                 Sys.opaque_identity (Engine.check engine call))) ])
      [ Perm_gen.Small; Perm_gen.Medium; Perm_gen.Large ]
  in
  let results = Bench_util.run_bechamel (Test.make_grouped ~name:"compile" tests) in
  Bench_util.table
    [ "manifest/checker"; "latency"; "throughput" ]
    (List.map
       (fun (name, ns) -> [ name; Bench_util.fmt_ns ns; Bench_util.fmt_ops ns ])
       results)

(* Isolation ------------------------------------------------------------------- *)

let run_isolation () =
  Bench_util.hr
    "Ablation: isolation architecture (per-event latency, L2 scenario, 16 \
     switches)";
  let modes =
    [ ("monolithic (direct calls)", None);
      ("isolated, 1 KSD", Some 1);
      ("isolated, 2 KSDs", Some 2);
      ("isolated, 4 KSDs", Some 4) ]
  in
  let rows =
    List.map
      (fun (label, ksd) ->
        let topo = Shield_net.Topology.linear 16 in
        let kernel =
          Shield_controller.Kernel.create (Shield_net.Dataplane.create topo)
        in
        let l2 = Shield_apps.L2_switch.create () in
        let mode =
          match ksd with
          | None -> Shield_controller.Runtime.Monolithic
          | Some n -> Shield_controller.Runtime.Isolated { ksd_threads = n }
        in
        let rt =
          Shield_controller.Runtime.create ~mode kernel
            [ (Shield_apps.L2_switch.app l2, Shield_controller.Api.allow_all) ]
        in
        let gen = Cbench.create ~switches:16 () in
        Shield_controller.Runtime.feed_sync rt (Cbench.next_packet_in gen);
        let m = Shield_controller.Metrics.create () in
        for _ = 1 to 100 do
          Shield_controller.Metrics.time m (fun () ->
              Shield_controller.Runtime.feed_sync rt (Cbench.next_packet_in gen))
        done;
        Shield_controller.Runtime.shutdown rt;
        let s = Shield_controller.Metrics.summarize m in
        [ label; Bench_util.fmt_us s.median;
          Printf.sprintf "[%s - %s]" (Bench_util.fmt_us s.p10)
            (Bench_util.fmt_us s.p90) ])
      modes
  in
  Bench_util.table [ "architecture"; "median latency"; "p10-p90" ] rows;
  Fmt.pr
    "@.expected: the thread hop costs microseconds over direct calls; KSD@.";
  Fmt.pr "          count barely matters at this load (§VI-A's claim).@."

(* Inclusion (Algorithm 1) ------------------------------------------------------- *)

let subnet_atom i =
  Filter.ip_subnet Filter.F_ip_dst
    (Shield_openflow.Types.ipv4_of_octets 10 (i land 0xFF) 0 0)
    (Shield_openflow.Types.prefix_mask 16)

(* (a1 ∨ a2) ∧ (a3 ∨ a4) ∧ … — the shape that stresses CNF×DNF. *)
let clausal_expr n =
  let clause i =
    Filter.disj (subnet_atom (2 * i)) (subnet_atom ((2 * i) + 1))
  in
  List.init n clause |> Filter.conj_list

let run_inclusion () =
  Bench_util.hr "Ablation: Algorithm 1 cost vs filter size (CNF x DNF)";
  let tests =
    List.map
      (fun n ->
        let a = clausal_expr n in
        let b = Filter.conj a (Filter.atom (Filter.Max_priority 100)) in
        Test.make ~name:(Printf.sprintf "clauses=%d" n)
          (Staged.stage (fun () ->
               Sys.opaque_identity (Inclusion.filter_includes a b))))
      [ 1; 2; 4; 6; 8 ]
  in
  let results = Bench_util.run_bechamel (Test.make_grouped ~name:"inclusion" tests) in
  Bench_util.table
    [ "filter size"; "latency"; "per-comparison" ]
    (List.map
       (fun (name, ns) ->
         [ name; Bench_util.fmt_ns ns;
           Printf.sprintf "%.2f us" (ns /. 1e3) ])
       results);
  Fmt.pr
    "@.expected: cost grows with the clause product (exponential worst@.";
  Fmt.pr
    "          case, guarded by the max_clauses cutoff) — acceptable@.";
  Fmt.pr "          because comparison runs at install time, not per call.@."
