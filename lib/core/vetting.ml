(* Admission vetting for untrusted manifests and policies.

   See vetting.mli / docs/VETTING.md for the model.  The pipeline
   deliberately reuses the production code paths (parsers, macro
   expansion, Nf conversion, Reconcile) rather than a parallel
   "checking" implementation: the budget hooks those paths already
   carry are the enforcement mechanism, and whatever the vetting run
   exercises is exactly what the runtime will execute later.

   Never-raises discipline: every entry point funnels through [run],
   which installs a fresh {!Budget} scope and runs the pipeline under
   {!Budget.absorb}, so budget exhaustion and any other escaping
   exception become a structured [Rejected]. *)

module M = Shield_controller.Metrics

type rejection = Budget.failure = {
  stage : string;
  reason : string;
  spent : Budget.spent;
}

type 'a verdict =
  | Admitted of 'a
  | Degraded of 'a * string list
  | Rejected of rejection

type reconciled = {
  report : Reconcile.report;
  lint : Lint.finding list;
  certificate : Verify.certificate;
}

(* Verdict counters ---------------------------------------------------------- *)

(* Registry counters: [vet-admitted], [vet-degraded], [vet-rejected]
   and one [vet-rejected:<stage>] per stage that has rejected. *)
let admitted_c = M.counter "vet-admitted"
let degraded_c = M.counter "vet-degraded"
let rejected_c = M.counter "vet-rejected"
let stage_prefix = "vet-rejected:"

let count_verdict (v : 'a verdict) : 'a verdict =
  (match v with
  | Admitted _ -> Atomic.incr admitted_c
  | Degraded _ -> Atomic.incr degraded_c
  | Rejected r ->
    Atomic.incr rejected_c;
    Atomic.incr (M.counter (stage_prefix ^ r.stage)));
  v

type stats = {
  admitted : int;
  degraded : int;
  rejected : int;
  rejected_by_stage : (string * int) list;
}

(* The per-stage counters, by stage, sorted. *)
let stage_counts () =
  let n = String.length stage_prefix in
  List.filter_map
    (fun (name, c) ->
      if String.starts_with ~prefix:stage_prefix name then
        Some (String.sub name n (String.length name - n), c)
      else None)
    (M.counter_report ())

let stats () =
  { admitted = Atomic.get admitted_c;
    degraded = Atomic.get degraded_c;
    rejected = Atomic.get rejected_c;
    rejected_by_stage = List.filter (fun (_, c) -> c > 0) (stage_counts ()) }

let reset_stats () =
  List.iter (fun c -> Atomic.set c 0) [ admitted_c; degraded_c; rejected_c ];
  List.iter
    (fun (stage, _) -> Atomic.set (M.counter (stage_prefix ^ stage)) 0)
    (stage_counts ())

(* The guarded runner -------------------------------------------------------- *)

let run ?limits (f : Budget.t -> ('a, rejection) result) : 'a verdict =
  let b = Budget.create ?limits () in
  count_verdict
    (match Budget.with_scope b (fun () -> Budget.absorb (fun () -> f b)) with
    | Error r | Ok (Error r) -> Rejected r
    | Ok (Ok v) -> (
      match Budget.notes b with
      | [] -> Admitted v
      | notes -> Degraded (v, notes)))

(* Pipeline stages ----------------------------------------------------------- *)

(* Structural caps use the iterative [Filter.depth]/[Filter.size]
   walks, so they are safe to call on an AST the parsers never saw
   (e.g. a depth bomb handed over a typed API).  [Budget.depth]
   both records the high-water mark and rejects past [max_depth];
   the size is charged as steps so giant-but-shallow manifests also
   drain the budget. *)
let check_filter (f : Filter.expr) =
  Budget.step ~cost:(Filter.size f) ();
  Budget.depth (Filter.depth f)

(* Probe the normal forms the inclusion checker will need.  A blow-up
   is not a rejection — Algorithm 1 answers fail-closed past the cap
   (includes -> false, satisfiable -> true) — but the administrator
   should know admission ran in that degraded mode. *)
let probe_normal_forms (f : Filter.expr) =
  (match Nf.cnf f with
  | _ -> ()
  | exception Nf.Too_large ->
    Budget.note
      "normalize: CNF blow-up; inclusion checks on this filter answer \
       fail-closed");
  match Nf.dnf f with
  | _ -> ()
  | exception Nf.Too_large ->
    Budget.note
      "normalize: DNF blow-up; inclusion checks on this filter answer \
       fail-closed"

let check_manifest (m : Perm.manifest) =
  Budget.set_stage "structure";
  List.iter (fun (p : Perm.t) -> check_filter p.Perm.filter) m;
  Budget.set_stage "normalize";
  List.iter (fun (p : Perm.t) -> probe_normal_forms p.Perm.filter) m

(* Policy structural walk.  Plain recursion is fine here: these ASTs
   only come out of [Policy_parser], whose grammar nesting is capped;
   the embedded filters (which apps can inflate) go through the
   iterative [check_filter]. *)
let rec check_perm_expr (pe : Policy.perm_expr) =
  Budget.step ();
  match pe with
  | Policy.P_var _ -> ()
  | Policy.P_block m ->
    List.iter (fun (p : Perm.t) -> check_filter p.Perm.filter) m
  | Policy.P_meet (a, b) | Policy.P_join (a, b) ->
    check_perm_expr a;
    check_perm_expr b

let rec check_assert_expr (ae : Policy.assert_expr) =
  Budget.step ();
  match ae with
  | Policy.A_cmp (l, _, r) ->
    check_perm_expr l;
    check_perm_expr r
  | Policy.A_and (a, b) | Policy.A_or (a, b) ->
    check_assert_expr a;
    check_assert_expr b
  | Policy.A_not a -> check_assert_expr a

let check_policy_structure (policy : Policy.t) =
  Budget.set_stage "structure";
  List.iter
    (fun stmt ->
      Budget.step ();
      match stmt with
      | Policy.Let (_, Policy.B_filter f) -> check_filter f
      | Policy.Let (_, Policy.B_perm pe) -> check_perm_expr pe
      | Policy.Let (_, Policy.B_app _) -> ()
      | Policy.Assert_exclusive (a, b) ->
        check_perm_expr a;
        check_perm_expr b
      | Policy.Assert ae -> check_assert_expr ae)
    policy

(* Static reference check: a variable used by an assertion but bound
   by no LET will surface at reconciliation time as a [Policy_error]
   violation on that statement.  Flagging it at admission lets the
   administrator fix the policy before any app is affected. *)
let check_policy_references (policy : Policy.t) =
  let bound =
    List.filter_map
      (function Policy.Let (v, _) -> Some v | _ -> None)
      policy
  in
  List.iter
    (fun stmt ->
      let vars =
        match stmt with
        | Policy.Let (_, Policy.B_perm pe) -> Policy.perm_expr_vars pe
        | Policy.Let _ -> []
        | Policy.Assert_exclusive (a, b) ->
          Policy.perm_expr_vars a @ Policy.perm_expr_vars b
        | Policy.Assert ae -> Policy.assert_expr_vars ae
      in
      List.iter
        (fun v ->
          if not (List.mem v bound) then
            Budget.note
              (Printf.sprintf
                 "policy: variable %s is bound by no LET; its statement \
                  will be skipped as a policy error"
                 v))
        vars)
    policy

(* Entry points -------------------------------------------------------------- *)

let vet_manifest_ast ?limits (m : Perm.manifest) : Perm.manifest verdict =
  run ?limits (fun _b ->
      check_manifest m;
      Ok m)

let vet_manifest ?limits (src : string) : Perm.manifest verdict =
  run ?limits (fun b ->
      Budget.set_stage "parse";
      match Perm_parser.manifest_of_string src with
      | Error e -> Error { stage = "parse"; reason = e; spent = Budget.spent b }
      | Ok m ->
        check_manifest m;
        Ok m)

let vet_policy ?limits (src : string) : Policy.t verdict =
  run ?limits (fun b ->
      Budget.set_stage "parse";
      match Policy_parser.of_string src with
      | Error e -> Error { stage = "parse"; reason = e; spent = Budget.spent b }
      | Ok policy ->
        check_policy_structure policy;
        check_policy_references policy;
        Ok policy)

let vet_and_reconcile ?limits ~(apps : (string * string) list)
    (policy : string) : reconciled verdict =
  run ?limits (fun b ->
      Budget.set_stage "parse";
      let rec parse_apps acc = function
        | [] -> Ok (List.rev acc)
        | (name, src) :: rest -> (
          match Perm_parser.manifest_of_string src with
          | Error e ->
            Error
              { stage = "parse";
                reason = Printf.sprintf "manifest %s: %s" name e;
                spent = Budget.spent b }
          | Ok m -> parse_apps ((name, m) :: acc) rest)
      in
      match parse_apps [] apps with
      | Error r -> Error r
      | Ok parsed -> (
        match Policy_parser.of_string policy with
        | Error e ->
          Error
            { stage = "parse"; reason = "policy: " ^ e; spent = Budget.spent b }
        | Ok pol ->
          List.iter (fun (_, m) -> check_manifest m) parsed;
          check_policy_structure pol;
          check_policy_references pol;
          (* Reconcile sets its own "expand" / "reconcile" stages. *)
          let report = Reconcile.run ~apps:parsed pol in
          let skipped =
            List.length
              (List.filter
                 (fun (v : Reconcile.violation) ->
                   v.Reconcile.action = Reconcile.Policy_error)
                 report.Reconcile.violations)
          in
          if skipped > 0 then
            Budget.note
              (Printf.sprintf
                 "reconcile: %d statement(s) could not be evaluated and \
                  were skipped"
                 skipped);
          List.iter
            (fun (app, stubs) ->
              Budget.note
                (Printf.sprintf
                   "expand: app %s keeps unresolved stub(s) %s after policy \
                    binding"
                   app
                   (String.concat ", " stubs)))
            report.Reconcile.unresolved_macros;
          (* Lint installs its own nested scope, so an expensive
             analysis degrades the findings (to Info "unverified"),
             never the verdict. *)
          Budget.set_stage "lint";
          let manifest_macros =
            List.concat_map (fun (_, m) -> Perm.macros m) parsed
          in
          let lint =
            Lint.lint_policy ~manifest_macros pol
            @ List.concat_map
                (fun (name, m) ->
                  Lint.lint_manifest ~label:("app " ^ name) m)
                parsed
          in
          (* Post-repair certification (docs/VERIFY.md).  Verify
             installs its own nested scope but inherits this
             admission's limits, so a hostile policy cannot buy extra
             work by being verified; its exhaustion degrades the
             certificate to [Unverified], never the verdict. *)
          Budget.set_stage "verify";
          let certificate =
            Verify.verify_report ~limits:(Budget.limits b) pol report
          in
          Ok { report; lint; certificate }))

(* Reporting ----------------------------------------------------------------- *)

let pp_rejection ppf r =
  Fmt.pf ppf "rejected at %s: %s (%a)" r.stage r.reason Budget.pp_spent r.spent

let pp_stats ppf s =
  Fmt.pf ppf "admitted=%d degraded=%d rejected=%d" s.admitted s.degraded
    s.rejected;
  List.iter
    (fun (st, n) -> Fmt.pf ppf " rejected[%s]=%d" st n)
    s.rejected_by_stage

let verdict_label = function
  | Admitted _ -> "admitted"
  | Degraded _ -> "degraded"
  | Rejected _ -> "rejected"
