(* Workload-generator tests: determinism, CBench shape, manifest
   complexity shapes, and the exact violation rates Figure 5 needs. *)

open Shield_controller
open Shield_workload
open Sdnshield

let test_prng_determinism () =
  let a = Prng.of_int 42 and b = Prng.of_int 42 in
  let xs = List.init 50 (fun _ -> Prng.int a 1000) in
  let ys = List.init 50 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys;
  let c = Prng.of_int 43 in
  let zs = List.init 50 (fun _ -> Prng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs);
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 1000)) xs

let test_cbench_round_robin () =
  let gen = Cbench.create ~switches:4 () in
  let evs = Cbench.packet_ins gen 8 in
  let dpids =
    List.filter_map
      (function Events.Packet_in pi -> Some pi.Shield_openflow.Message.dpid | _ -> None)
      evs
  in
  Alcotest.(check int) "8 events" 8 (List.length dpids);
  List.iter
    (fun d -> Alcotest.(check bool) "dpid in range" true (d >= 1 && d <= 4))
    dpids;
  (* Round-robin: all 4 switches hit in any 4 consecutive events. *)
  let first4 = List.filteri (fun i _ -> i < 4) dpids in
  Alcotest.(check int) "all switches" 4 (List.length (List.sort_uniq compare first4))

let test_cbench_unique_macs () =
  let gen = Cbench.create ~switches:2 () in
  let evs = Cbench.packet_ins gen 100 in
  let srcs =
    List.filter_map
      (function
        | Events.Packet_in pi ->
          Some pi.Shield_openflow.Message.packet.Shield_openflow.Packet.dl_src
        | _ -> None)
      evs
  in
  Alcotest.(check int) "all sources unique" 100
    (List.length (List.sort_uniq compare srcs))

let test_perm_gen_shapes () =
  List.iter
    (fun (complexity, expected_tokens) ->
      let m = Perm_gen.generate ~complexity ~focus:`Insert () in
      Alcotest.(check int)
        (Perm_gen.complexity_to_string complexity)
        expected_tokens (List.length m);
      (* Each token has 10-20 singleton filters. *)
      List.iter
        (fun (p : Perm.t) ->
          let n = Filter.fold_atoms (fun k _ -> k + 1) 0 p.Perm.filter in
          Alcotest.(check bool)
            (Printf.sprintf "%s has ~10-20 filters (got %d)"
               (Token.to_string p.Perm.token) n)
            true
            (n >= 10 && n <= 23))
        m)
    [ (Perm_gen.Small, 1); (Perm_gen.Medium, 5); (Perm_gen.Large, 15) ]

let test_perm_gen_focus_token_first () =
  let mi = Perm_gen.generate ~complexity:Perm_gen.Small ~focus:`Insert () in
  Alcotest.(check bool) "insert focus" true (Perm.grants_token mi Token.Insert_flow);
  let ms = Perm_gen.generate ~complexity:Perm_gen.Small ~focus:`Stats () in
  Alcotest.(check bool) "stats focus" true (Perm.grants_token ms Token.Read_statistics)

let test_perm_gen_deterministic () =
  let a = Perm_gen.generate ~seed:3 ~complexity:Perm_gen.Medium ~focus:`Insert () in
  let b = Perm_gen.generate ~seed:3 ~complexity:Perm_gen.Medium ~focus:`Insert () in
  Alcotest.(check bool) "same seed same manifest" true (Perm.equal a b)

(* The invariant the fig5 bench depends on: traces decide exactly as
   labelled against the generated manifests. *)
let check_trace_against_engine ~complexity ~focus =
  let manifest = Perm_gen.generate ~complexity ~focus () in
  let engine =
    Engine.create ~app_name:"bench" manifest
  in
  let trace = Api_trace.generate ~focus ~n:1000 () in
  let violations = ref 0 in
  Array.iter
    (fun (call, expected) ->
      let d = Engine.check engine call in
      match (d, expected) with
      | Api.Allow, Api_trace.Should_allow -> ()
      | Api.Deny _, Api_trace.Should_deny -> incr violations
      | Api.Allow, Api_trace.Should_deny ->
        Alcotest.failf "expected deny for %a" Api.pp_call call
      | Api.Deny why, Api_trace.Should_allow ->
        Alcotest.failf "expected allow for %a: %s" Api.pp_call call why)
    trace;
  Alcotest.(check int) "exactly 5% violations" 50 !violations

let test_trace_decisions_insert () =
  List.iter
    (fun c -> check_trace_against_engine ~complexity:c ~focus:`Insert)
    [ Perm_gen.Small; Perm_gen.Medium; Perm_gen.Large ]

let test_trace_decisions_stats () =
  List.iter
    (fun c -> check_trace_against_engine ~complexity:c ~focus:`Stats)
    [ Perm_gen.Small; Perm_gen.Medium; Perm_gen.Large ]

let test_trace_violation_rate_configurable () =
  let t = Api_trace.generate ~violation_rate:0.1 ~focus:`Insert ~n:100 () in
  let v =
    Array.to_list t
    |> List.filter (fun (_, e) -> e = Api_trace.Should_deny)
    |> List.length
  in
  Alcotest.(check int) "10%" 10 v;
  let t0 = Api_trace.generate ~violation_rate:0. ~focus:`Insert ~n:100 () in
  Alcotest.(check bool) "0%" true
    (Array.for_all (fun (_, e) -> e = Api_trace.Should_allow) t0)

let test_mixed_trace () =
  let t = Api_trace.generate_mixed ~n:100 () in
  let inserts =
    Array.to_list t
    |> List.filter (fun (c, _) -> match c with Api.Install_flow _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "half inserts" 50 inserts

let suite =
  [ Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "cbench round robin" `Quick test_cbench_round_robin;
    Alcotest.test_case "cbench unique macs" `Quick test_cbench_unique_macs;
    Alcotest.test_case "perm-gen shapes" `Quick test_perm_gen_shapes;
    Alcotest.test_case "perm-gen focus first" `Quick test_perm_gen_focus_token_first;
    Alcotest.test_case "perm-gen deterministic" `Quick test_perm_gen_deterministic;
    Alcotest.test_case "trace decisions (insert)" `Quick test_trace_decisions_insert;
    Alcotest.test_case "trace decisions (stats)" `Quick test_trace_decisions_stats;
    Alcotest.test_case "trace violation rate" `Quick test_trace_violation_rate_configurable;
    Alcotest.test_case "mixed trace" `Quick test_mixed_trace ]
