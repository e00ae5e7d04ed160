(* Adversarial-admission lab: prove the vetting pipeline cuts every
   hostile-input family off with a structured verdict.

   Each family from [Shield_workload.Hostile_gen] — depth bombs (text
   and raw AST), cross-product bombs, clause-width bombs, macro-chain
   bombs, garbage bytes — is pushed through [Sdnshield.Vetting] and
   checked against the docs/VETTING.md contract:

   - the verdict is [Rejected] or [Degraded], never a hang, a
     [Stack_overflow], an [Out_of_memory] or any other escape;
   - the budget actually bounded the work: the cross-product bomb
     allocates at most [max_clauses] merged clauses (the incremental
     guard in [Nf.cross]), not the |A|x|B| product;
   - each family finishes in interactive time (a watchdog turns a hang
     into a loud exit, as in fault_lab).

   `vetting-lab` prints the full per-family report; `vet-smoke` is the
   fast tier-1 gate (exits nonzero on any violated invariant). *)

open Sdnshield
module Hostile = Shield_workload.Hostile_gen

let fail = Bench_util.fail

(* Run one family and check its verdict class.  [expect] lists the
   acceptable labels; anything else — including an exception escaping
   [Vetting], which its contract forbids — is a failure. *)
let family name ~expect (f : unit -> string) =
  let t0 = Unix.gettimeofday () in
  let label =
    match f () with
    | l -> l
    | exception exn ->
      fail "%s: exception escaped the vetting pipeline: %s" name
        (Printexc.to_string exn);
      "EXCEPTION"
  in
  let dt = Unix.gettimeofday () -. t0 in
  if label <> "EXCEPTION" && not (List.mem label expect) then
    fail "%s: verdict %s, expected one of [%s]" name label
      (String.concat "; " expect);
  Fmt.pr "%-28s %-9s %6.1f ms@." name label (1000. *. dt)

let describe (v : _ Vetting.verdict) =
  (match v with
  | Vetting.Admitted _ -> ()
  | Vetting.Degraded (_, notes) ->
    List.iter (fun n -> Fmt.pr "    note: %s@." n) notes
  | Vetting.Rejected r -> Fmt.pr "    %a@." Vetting.pp_rejection r);
  Vetting.verdict_label v

(* The cross-product bomb's DNF is 4096^2 = 16.7M clauses; the
   incremental guard must stop at the per-conversion cap (4096), so
   clause allocations recorded by a fresh budget stay at or under it.
   The memo is cleared first: a cached [Blew_up] would be a 0-clause
   lookup and prove nothing about the guard. *)
let check_cross_allocation () =
  Nf.clear_memo ();
  let b = Budget.create () in
  let bomb = Hostile.cross_bomb ~atoms:4096 in
  (Budget.with_scope b (fun () ->
       match Nf.dnf bomb with
       | _ -> fail "cross-allocation: 16.7M-clause DNF did not blow up"
       | exception Nf.Too_large -> ()));
  let spent = Budget.spent b in
  Fmt.pr "%-28s %d clauses allocated (cap 4096)@." "cross-allocation"
    spent.Budget.clauses;
  if spent.Budget.clauses > 4096 then
    fail
      "cross-allocation: %d clauses allocated past the 4096 cap — the guard \
       is not incremental"
      spent.Budget.clauses

let run_families ~gate ~garbage_seeds ~text_depth =
  Vetting.reset_stats ();
  family "depth-bomb (NOT chain)" ~expect:[ "rejected" ] (fun () ->
      describe
        (Vetting.vet_manifest (Hostile.depth_bomb_src ~depth:text_depth)));
  family "depth-bomb (parens)" ~expect:[ "rejected" ] (fun () ->
      describe
        (Vetting.vet_manifest (Hostile.paren_bomb_src ~depth:text_depth)));
  family "depth-bomb (raw AST)" ~expect:[ "rejected" ] (fun () ->
      describe
        (Vetting.vet_manifest_ast
           (Hostile.manifest_of_filter (Hostile.ast_depth_bomb ~depth:100_000))));
  family "cross-product bomb" ~expect:[ "degraded"; "rejected" ] (fun () ->
      Nf.clear_memo ();
      describe
        (Vetting.vet_manifest_ast
           (Hostile.manifest_of_filter (Hostile.cross_bomb ~atoms:4096))));
  family "clause-width bomb" ~expect:[ "degraded"; "rejected" ] (fun () ->
      Nf.clear_memo ();
      describe
        (Vetting.vet_manifest_ast
           (Hostile.manifest_of_filter (Hostile.width_bomb ~atoms:2000))));
  family "macro-chain bomb" ~expect:[ "degraded"; "rejected" ] (fun () ->
      let manifest_src, policy_src = Hostile.macro_chain_bomb ~links:48 in
      describe
        (Vetting.vet_and_reconcile ~apps:[ ("bomb", manifest_src) ] policy_src));
  for seed = 1 to garbage_seeds do
    family
      (Printf.sprintf "garbage bytes (seed %d)" seed)
      ~expect:[ "rejected" ]
      (fun () ->
        describe
          (Vetting.vet_manifest (Hostile.garbage ~seed ~len:4096)))
  done;
  check_cross_allocation ();
  Fmt.pr "@.%a@." Vetting.pp_stats (Vetting.stats ());
  Bench_util.report gate ~detail:": every hostile family was contained"

let run () =
  Bench_util.start_gate
    ~title:"Adversarial admission: hostile manifests and policies"
    "vetting-lab" 300.;
  run_families ~gate:"vetting-lab" ~garbage_seeds:8 ~text_depth:400_000

(** Tier-1 gate: same invariants, smaller volume. *)
let smoke () =
  Bench_util.start_gate ~title:"Adversarial admission: smoke" "vet-smoke" 120.;
  run_families ~gate:"vet-smoke" ~garbage_seeds:3 ~text_depth:120_000
