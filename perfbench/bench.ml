(* End-to-end benchmark entry point (perfbench/README.md).

     bench.exe --workload l2-sync|l2-storm --seed N
               --seconds S --trace 0|1

   Boots the seeded market deployment, runs the workload's fixed
   amount of closed-loop work (S seconds at the workload's nominal
   rate) and prints the result object as the last line: the end-to-end
   metrics with --trace 0; with --trace 1, an untraced and a traced
   phase, the layer report, and the per-layer metrics.  Exits non-zero,
   without a result, on a usage error or when setup fails. *)

open Shield_controller
open Common

let report ~workload ~untraced_p50 ~traced_p50 ~residual layers =
  let overhead = (traced_p50 /. untraced_p50) -. 1. in
  Printf.printf "=== traced report: %s ===\n" workload;
  print_table "layers" layers;
  Printf.printf
    "unattributed: op_p50 %.2f us traced; %.2f us not covered by the layer medians\n"
    (traced_p50 *. 1e6) residual;
  Printf.printf "tracing overhead: op_p50 %.2f us traced vs %.2f us untraced (%+.1f%%)\n"
    (traced_p50 *. 1e6) (untraced_p50 *. 1e6) (overhead *. 100.);
  [ ("op.unattributed_us", residual, "us"); ("trace.overhead_frac", overhead, "ratio") ]

(* Boots in a run: [boots_before] give the deployment the workload runs
   on, [boots_after] follow the timed phase, once that deployment is
   gone.  [setup_s] is the lower quartile of all their times, so the
   boots sample two stretches of the machine's speed some seconds
   apart. *)
let boots_before = 4
let boots_after = 4

(** Run an l2 workload; returns its result as [emit] takes it, and the
    times of its boots. *)
let run_l2 shape ~workload ~seed ~seconds ~trace =
  let ends = Buf.create () in
  let b = Boot.boot ~wrap_app:(L2.stamping ends) ~boots:boots_before ~seed () in
  let n = L2.events shape ~seconds in
  let r = L2.untraced shape b ends ~seed ~n in
  Runtime.shutdown b.Boot.hosted.Boot.runtime;
  let result =
    if not trace then (r.L2.failed = 0, n, r.L2.failed, L2.e2e r)
    else begin
      let t, layers, residual = L2.traced shape b ~seed ~n in
      let layers =
        layers
        @ Common.process_metrics ~ops:n (fst t.L2.counters) (snd t.L2.counters)
        @ Boot.admission_metrics b
      in
      let extra =
        report ~workload ~untraced_p50:(median r.L2.timed.lat)
          ~traced_p50:(median t.L2.timed.lat)
          ~residual layers
      in
      let failed = r.L2.failed + t.L2.failed in
      (failed = 0, 2 * n, failed, layers @ extra)
    end
  in
  Market.shutdown b.Boot.dep.Boot.market;
  Sdnshield.Epoch.close b.Boot.dep.Boot.epoch;
  (result, b.Boot.boot_s)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "l2-sync | l2-storm");
      ("--seed", Arg.Set_int seed, "workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "nominal run length (>= 1)");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 1
  end;
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let shape =
    match !workload with
    | "l2-sync" -> L2.sync
    | "l2-storm" -> L2.storm
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 1
  in
  let (correct, attempted, failed, metrics), before =
    run_l2 shape ~workload:!workload ~seed ~seconds ~trace
  in
  if trace then emit ~correct ~attempted ~failed metrics
  else begin
    let after = Boot.boot_times ~boots:boots_after ~seed in
    let setup_s = percentile 25. (Array.of_list (before @ after)) in
    prerr_endline
      ("boot times (s): " ^ String.concat " " (List.map (Printf.sprintf "%.3f") (before @ after)));
    emit ~correct ~attempted ~failed (metrics @ [ ("setup_s", setup_s, "s") ])
  end
