(* Reconciliation-engine cost (§IX-A): the paper omits a figure because
   reconciliation happens only at app-installation time and "the
   processing time never exceeds one second during our pressure tests".
   This harness reproduces that pressure test, then measures the
   normal-form / inclusion memo tables Algorithm 1 runs on, cold vs
   warm. *)

open Shield_workload
open Sdnshield

(* Mutual exclusions over all token pairs = 105 constraints, plus one
   boundary per app — far beyond any realistic deployment. *)
let pressure_policy_src n_apps =
  let buf = Buffer.create 4096 in
  let tokens = List.map Token.to_string Token.all in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Buffer.add_string buf
              (Printf.sprintf "ASSERT EITHER { PERM %s } OR { PERM %s }\n" a b))
        tokens)
    tokens;
  for i = 0 to n_apps - 1 do
    Buffer.add_string buf (Printf.sprintf "LET app%d = APP app%d\n" i i);
    Buffer.add_string buf
      (Printf.sprintf
         "ASSERT app%d <= { PERM insert_flow PERM read_statistics PERM \
          visible_topology }\n"
         i)
  done;
  Buffer.contents buf

(* Every pairwise inclusion query over the large Figure-5 manifest's
   filters, first with the memos cleared, then again warm. *)
let memo_section () =
  Bench_util.subhr "normal-form / inclusion memoization (cold vs warm)";
  let m = Perm_gen.generate ~complexity:Perm_gen.Large ~focus:`Insert () in
  let filters = List.map (fun (p : Perm.t) -> p.Perm.filter) m in
  let work () =
    List.iter
      (fun a ->
        List.iter (fun b -> ignore (Inclusion.filter_includes a b)) filters)
      filters
  in
  Nf.clear_memo ();
  Inclusion.clear_memo ();
  let (), cold = Bench_util.timed work in
  let (), warm = Bench_util.timed work in
  let n = List.length filters in
  Fmt.pr "%dx%d inclusion queries: cold %s, warm %s (%.0fx)@." n n
    (Bench_util.fmt_us cold) (Bench_util.fmt_us warm)
    (cold /. max warm 1e-9)

let run () =
  Bench_util.hr "Reconciliation engine pressure test (install-time cost)";
  let rows =
    List.map
      (fun n_apps ->
        let apps =
          List.init n_apps (fun i ->
              ( Printf.sprintf "app%d" i,
                Perm_gen.generate ~seed:i ~complexity:Perm_gen.Large
                  ~focus:`Insert () ))
        in
        let policy = Policy_parser.of_string_exn (pressure_policy_src n_apps) in
        let statements = List.length policy in
        let report, elapsed =
          Bench_util.timed (fun () -> Reconcile.run ~apps policy)
        in
        [ string_of_int n_apps; string_of_int statements;
          string_of_int (List.length report.Reconcile.violations);
          Printf.sprintf "%.1f ms" (elapsed *. 1e3);
          (if elapsed < 1.0 then "yes" else "NO") ])
      [ 1; 4; 16; 64 ]
  in
  Bench_util.table
    [ "apps"; "policy statements"; "violations"; "time"; "under 1 s?" ]
    rows;
  Fmt.pr "@.paper: reconciliation never exceeded one second under pressure.@.";
  memo_section ()
