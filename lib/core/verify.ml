(* shield-verify: certify that (reconciled) manifests satisfy their
   policy obligations.  See verify.mli / docs/VERIFY.md.

   Architecture of one obligation check:

     1. lattice pass — Algorithm 1 ([Inclusion], via [Diff]) proves the
        obligation where it can.  Positive answers are sound
        (property-tested against the evaluation semantics), so they
        certify.
     2. witness pass — where the lattice answers "no", that answer is
        conservative and proves nothing.  [Diff] synthesizes candidate
        calls from the atoms of the filters under test, and accepts a
        candidate only when [Filter_eval] semantically confirms it
        (admitted by the manifest side, escaping the bound).  Only a
        confirmed call refutes.
     3. neither — unknown, which degrades the certificate to
        [Unverified].  The checker never certifies from a negative
        lattice answer and never refutes without a confirmed call.

   Assertions combine in three-valued logic: the lattice's
   conservative "false" must not flip into a false positive under
   [NOT] (the repair engine's boolean [eval_assert] is unsound there —
   which is precisely why verification cannot reuse it).

   On top of the obligations, the certificate carries a *minimality*
   dimension over the reconciliation repairs (ISSUE 10): for every
   truncation, the least repair the lattice admits is recomputed —
   MEET(original, boundary) for boundary violations, original \
   second-exclusive-set for exclusions — and [Diff] decides whether
   the actual repair stripped behaviour the least repair would have
   kept.  A confirmed call in that gap is Slack; a provably empty gap
   on every repair is Minimal; anything else fails closed to
   Unknown_minimality. *)

module M = Shield_controller.Metrics
module Api = Shield_controller.Api
module J = Shield_controller.Telemetry.Json

type witness = {
  token : Token.t;
  call : Api.call;
  admitted_by : Perm.manifest;
  escapes : Perm.manifest option;
  explanation : string;
}

type counterexample = {
  stmt : Policy.stmt;
  app : string option;
  witnesses : witness list;
  detail : string;
}

type status = Holds | Refuted_by of counterexample list | Unknown of string

type obligation = { index : int; stmt : Policy.stmt; status : status }

type minimality =
  | Minimal
  | Slack of witness list
  | Unknown_minimality of string

type crosscheck = {
  replayed : int;
  checkers_agree : bool;
  infer_consistent : bool;
  infer_traced : int;
  crosscheck_notes : string list;
}

type verdict =
  | Certified
  | Refuted of counterexample list
  | Unverified of string

type certificate = {
  verdict : verdict;
  minimality : minimality;
  obligations : obligation list;
  crosscheck : crosscheck;
  spent : Budget.spent;
  notes : string list;
}

let pure = Filter_eval.pure_env
let eval_f f attrs = Filter_eval.eval pure f attrs

(* Witness synthesis ---------------------------------------------------------

   The candidate machinery lives in [Diff]; verification wraps its
   anonymous witnesses into certificate witnesses that carry the
   manifests the claim is about. *)

(** A [Diff.diff ml mr] witness: admitted by [ml], escapes [mr]. *)
let escape_of (ml : Perm.manifest) (mr : Perm.manifest) (w : Diff.witness) :
    witness =
  { token = w.Diff.token;
    call = w.Diff.call;
    admitted_by = ml;
    escapes = Some mr;
    explanation =
      Fmt.str "admitted by %a (%s) but not by the bound (%s)" Token.pp
        w.Diff.token w.Diff.why_left w.Diff.why_right }

(** A [Diff.overlap m mx] witness: admitted by both sides. *)
let overlap_of (m : Perm.manifest) (w : Diff.witness) : witness =
  { token = w.Diff.token;
    call = w.Diff.call;
    admitted_by = m;
    escapes = None;
    explanation =
      Fmt.str "admitted by the app's %a grant (%s) and by the exclusive set \
               (%s)"
        Token.pp w.Diff.token w.Diff.why_left w.Diff.why_right }

(* Obligation checking ------------------------------------------------------- *)

(** [check_le stmt app ml mr] — the obligation [ml <= mr].  [Diff]'s
    [Empty] certifies (sound lattice proof); a confirmed escape
    refutes; [Unknown] stays unknown (fail closed). *)
let check_le stmt app (ml : Perm.manifest) (mr : Perm.manifest) : status =
  match Diff.diff ~max_witnesses:1 ml mr with
  | Diff.Empty -> Holds
  | Diff.Nonempty ws ->
    Refuted_by
      [ { stmt; app;
          witnesses = List.map (escape_of ml mr) (Diff.dedup ws);
          detail =
            Fmt.str "%a: %a call escapes the bound" Policy.pp_stmt stmt
              Token.pp (List.hd ws).Diff.token } ]
  | Diff.Unknown r -> Unknown r

let combine_eq a b =
  match (a, b) with
  | Refuted_by c1, Refuted_by c2 -> Refuted_by (c1 @ c2)
  | (Refuted_by _ as r), _ | _, (Refuted_by _ as r) -> r
  | Holds, Holds -> Holds
  | Unknown r, _ | _, Unknown r -> Unknown r

(** Strict comparison: on top of a certified [ml <= mr], strictness
    needs a semantic witness in [mr \ ml] — the lattice's negative
    answer to [mr <= ml] is conservative and proves nothing.  A
    provably empty difference means the sides are equal, so strictness
    definitely fails — but a failed strict comparison has no
    single-call counterexample and [Refuted_by] promises one, so that
    too stays unknown. *)
let check_strict stmt app ml mr : status =
  match check_le stmt app ml mr with
  | Holds -> (
    match Diff.diff ~max_witnesses:1 mr ml with
    | Diff.Nonempty _ -> Holds
    | Diff.Empty ->
      Unknown
        "inclusion holds both ways (the sides are provably equal), so the \
         strict comparison fails — but a strictness failure has no \
         call-level counterexample"
    | Diff.Unknown _ ->
      Unknown
        "inclusion holds but strictness is not witnessed (no call found in \
         the difference)")
  | s -> s

let check_cmp env stmt lhs op rhs : status =
  match
    (Reconcile.Env.manifest_of env lhs, Reconcile.Env.manifest_of env rhs)
  with
  | Error msg, _ | _, Error msg -> Unknown ("policy evaluation: " ^ msg)
  | Ok (ml, al), Ok (mr, ar) -> (
    match op with
    | Policy.C_le -> check_le stmt al ml mr
    | Policy.C_ge -> check_le stmt ar mr ml
    | Policy.C_eq -> combine_eq (check_le stmt al ml mr) (check_le stmt ar mr ml)
    | Policy.C_lt -> check_strict stmt al ml mr
    | Policy.C_gt -> check_strict stmt ar mr ml)

(* Three-valued assertion combination.  [T] and refutations are both
   semantically grounded and may flip under NOT; [U] is sticky. *)
type tv = T | F of counterexample list | U of string

let tv_of_status = function
  | Holds -> T
  | Refuted_by c -> F c
  | Unknown r -> U r

let rec eval3 env stmt (ae : Policy.assert_expr) : tv =
  Budget.step ();
  match ae with
  | Policy.A_cmp (l, op, r) -> tv_of_status (check_cmp env stmt l op r)
  | Policy.A_and (a, b) -> (
    match eval3 env stmt a with
    | F c -> F c
    | ra -> (
      match eval3 env stmt b with
      | F c -> F c
      | rb -> (
        match (ra, rb) with
        | U r, _ | _, U r -> U r
        | _ -> T)))
  | Policy.A_or (a, b) -> (
    match eval3 env stmt a with
    | T -> T
    | ra -> (
      match eval3 env stmt b with
      | T -> T
      | rb -> (
        match (ra, rb) with
        | F c1, F c2 -> F (c1 @ c2) (* both disjuncts refuted *)
        | U r, _ | _, U r -> U r
        | T, _ | _, T -> T (* unreachable: T short-circuits above *))))
  | Policy.A_not a -> (
    match eval3 env stmt a with
    | F _ -> T (* operand semantically refuted ⇒ negation holds *)
    | T ->
      (* The negated comparison certifiably holds, so this assertion is
         false — but a negated obligation has no single-call
         counterexample, and Refuted promises one.  Fail closed. *)
      U
        "NOT: the negated comparison certifiably holds (assertion is \
         unsatisfiable); no call-level counterexample exists"
    | U r -> U ("NOT: " ^ r))

let check_exclusive env stmt p1 p2 : status =
  match (Reconcile.Env.manifest_of env p1, Reconcile.Env.manifest_of env p2) with
  | Error msg, _ | _, Error msg -> Unknown ("policy evaluation: " ^ msg)
  | Ok (m1, _), Ok (m2, _) ->
    let refuted, unknowns =
      List.fold_left
        (fun (refuted, unknowns) (name, m) ->
          (* [Diff.overlap]'s [Empty] is a sound emptiness proof, so
             either non-overlap certifies this app. *)
          match Diff.overlap ~max_witnesses:1 m m1 with
          | Diff.Empty -> (refuted, unknowns)
          | o1 -> (
            match (o1, Diff.overlap ~max_witnesses:1 m m2) with
            | _, Diff.Empty -> (refuted, unknowns)
            | Diff.Nonempty (w1 :: _), Diff.Nonempty (w2 :: _) ->
              ( { stmt; app = Some name;
                  witnesses = [ overlap_of m w1; overlap_of m w2 ];
                  detail =
                    Fmt.str
                      "app %s holds behaviours from both exclusive sets (%a, \
                       %a)"
                      name Token.pp w1.Diff.token Token.pp w2.Diff.token }
                :: refuted,
                unknowns )
            | _ ->
              ( refuted,
                Fmt.str
                  "app %s: overlap with both exclusive sets is neither \
                   provably empty nor witnessed"
                  name
                :: unknowns )))
        ([], []) (Reconcile.Env.apps env)
    in
    if refuted <> [] then Refuted_by (List.rev refuted)
    else if unknowns <> [] then Unknown (String.concat "; " (List.rev unknowns))
    else Holds

(* Minimality of repair -------------------------------------------------------

   Sufficiency (the obligations above) says the repaired manifests
   satisfy the policy; minimality says repair did not over-truncate.
   The least repair the lattice admits is recomputed independently of
   [Reconcile]'s simplification step, so a bug there — or a torn
   [after] recorded in the report — shows up as a confirmed Slack
   call. *)

(** The least repair for one truncation, recomputed from the
    violation's [before] manifest and the statement's own bound. *)
let least_repair env (v : Reconcile.violation) : (Perm.manifest, string) result
    =
  match (v.Reconcile.action, v.Reconcile.stmt) with
  | ( Reconcile.Truncated_to_boundary,
      Policy.Assert (Policy.A_cmp (_, (Policy.C_le | Policy.C_lt), rhs)) ) -> (
    match Reconcile.Env.manifest_of env rhs with
    | Ok (bound, _) -> Ok (Perm_ops.meet v.Reconcile.before bound)
    | Error msg -> Error ("boundary evaluation: " ^ msg))
  | Reconcile.Truncated_to_boundary, _ ->
    Error "boundary truncation recorded on an unrecognized statement shape"
  | Reconcile.Truncated_exclusive, Policy.Assert_exclusive (_, p2) -> (
    match Reconcile.Env.manifest_of env p2 with
    | Ok (m2, _) -> Ok (Perm_ops.subtract v.Reconcile.before m2)
    | Error msg -> Error ("exclusive-set evaluation: " ^ msg))
  | Reconcile.Truncated_exclusive, _ ->
    Error "exclusive truncation recorded on an unrecognized statement shape"
  | (Reconcile.Alert_only | Reconcile.Policy_error), _ ->
    Error "not a truncation repair"

let slack_of ~least ~(after : Perm.manifest) (w : Diff.witness) : witness =
  { token = w.Diff.token;
    call = w.Diff.call;
    admitted_by = least;
    escapes = Some after;
    explanation =
      Fmt.str
        "allowed by the least repair for %a (%s) but stripped by the actual \
         repair (%s)"
        Token.pp w.Diff.token w.Diff.why_left w.Diff.why_right }

(** Fold the per-repair verdicts: any confirmed Slack wins (the repair
    provably stripped legitimate behaviour); otherwise any [Unknown]
    sticks (fail closed); only all-[Empty] — including the vacuous
    no-repairs case — is [Minimal]. *)
let check_minimality env (repairs : Reconcile.violation list) : minimality =
  let slack = ref [] in
  let unknown = ref None in
  let note_unknown r = if !unknown = None then unknown := Some r in
  List.iter
    (fun (v : Reconcile.violation) ->
      match v.Reconcile.action with
      | Reconcile.Alert_only | Reconcile.Policy_error -> ()
      | Reconcile.Truncated_to_boundary | Reconcile.Truncated_exclusive -> (
        let analyze () =
          match least_repair env v with
          | Error msg -> note_unknown msg
          | Ok least -> (
            match Diff.diff least v.Reconcile.after with
            | Diff.Empty -> ()
            | Diff.Nonempty ws ->
              slack :=
                !slack
                @ List.map (slack_of ~least ~after:v.Reconcile.after) ws
            | Diff.Unknown r -> note_unknown r)
        in
        (* [Diff.diff] never raises, but recomputing the least repair
           ([Env.manifest_of], [Perm_ops.meet]/[subtract]) ticks the
           budget and normalizes filters. *)
        match Budget.absorb analyze with
        | Ok () -> ()
        | Error { reason; _ } -> note_unknown reason))
    repairs;
  match Diff.dedup ~cap:8 !slack with
  | _ :: _ as ws -> Slack ws
  | [] -> (
    match !unknown with
    | Some r -> Unknown_minimality r
    | None -> Minimal)

(* Checker cross-check ------------------------------------------------------- *)

let decision_allows = function Api.Allow -> true | Api.Deny _ -> false

(** What [Filter_eval] says a manifest decides for a call — the
    semantic ground truth the deployed engine is compared against. *)
let expected_decision (m : Perm.manifest) (call : Api.call) : bool =
  match Dispatch.token_of_call call with
  | None -> true
  | Some t ->
    Perm.grants_token m t && eval_f (Perm.filter_of m t) (Attrs.of_call call)

(* The deployed engine for [m], or a note saying why [Engine.create]
   rejected it.  Anything else, budget exhaustion included, propagates:
   [verify] degrades it to an empty, disagreeing cross-check. *)
let build_engine notes (m : Perm.manifest) : Engine.t option =
  match
    Engine.create ~app_name:"verify" m
  with
  | e -> Some e
  | exception Invalid_argument msg ->
    notes := Fmt.str "engine replay skipped: %s" msg :: !notes;
    None

let run_crosscheck ~(apps : (string * Perm.manifest) list)
    ~(obligations : obligation list) ~(extra : witness list) : crosscheck =
  let notes = ref [] in
  let agree = ref true in
  let replayed = ref 0 in
  let replay (m : Perm.manifest) (call : Api.call) =
    let want = expected_decision m call in
    Option.iter
      (fun e ->
        incr replayed;
        let got = decision_allows (Engine.check e call) in
        if got <> want then begin
          agree := false;
          notes :=
            Fmt.str "engine disagrees with Filter_eval on %a (got %s, expected %s)"
              Api.pp_call call
              (if got then "allow" else "deny")
              (if want then "allow" else "deny")
            :: !notes
        end)
      (build_engine notes m)
  in
  (* Every synthesized witness is replayed against the manifest that
     admits it and (for boundary escapes and repair slack) against the
     bound it escapes — a differential test of the deployed engine
     against Filter_eval on exactly the calls verification's verdict
     rests on. *)
  let witnesses =
    extra
    @ List.concat_map
        (fun o ->
          match o.status with
          | Refuted_by cs -> List.concat_map (fun c -> c.witnesses) cs
          | _ -> [])
        obligations
  in
  List.iter
    (fun w ->
      replay w.admitted_by w.call;
      Option.iter (fun bound -> replay bound w.call) w.escapes)
    witnesses;
  (* Least-privilege cross-check: sample calls each app's manifest
     admits, infer a manifest from that trace, and hold Infer to its
     guarantee — the inferred manifest re-admits every recorded call. *)
  let infer_ok = ref true in
  let traced = ref 0 in
  List.iter
    (fun (name, m) ->
      let sample =
        List.filter_map
          (fun (p : Perm.t) ->
            let fl = p.Perm.filter in
            Diff.find_call ~filters:[ fl ] p.Perm.token ~goal:(eval_f fl)
            |> Option.map fst)
          m
      in
      let from_witnesses =
        List.filter_map
          (fun (w : witness) ->
            if expected_decision m w.call then Some w.call else None)
          witnesses
      in
      let trace = sample @ from_witnesses in
      if trace <> [] then begin
        traced := !traced + List.length trace;
        let inferred = Infer.of_trace trace in
        List.iter
          (fun call ->
            if not (expected_decision inferred call) then begin
              infer_ok := false;
              notes :=
                Fmt.str
                  "inferred least-privilege manifest for app %s fails to \
                   re-admit %a"
                  name Api.pp_call call
                :: !notes
            end)
          trace
      end)
    apps;
  { replayed = !replayed;
    checkers_agree = !agree;
    infer_consistent = !infer_ok;
    infer_traced = !traced;
    crosscheck_notes = List.rev !notes }

(* Verdict counters ---------------------------------------------------------- *)

type stats = {
  certified_n : int;
  refuted_n : int;
  unverified_n : int;
  minimal_n : int;
  slack_n : int;
  unknown_minimality_n : int;
}

(* Registry counters, one per verdict and per minimality outcome. *)
let certified_c = M.counter "verify-certified"
let refuted_c = M.counter "verify-refuted"
let unverified_c = M.counter "verify-unverified"
let minimal_c = M.counter "verify-minimal"
let slack_c = M.counter "verify-slack"
let unknown_min_c = M.counter "verify-unknown-minimality"

let count_certificate cert =
  Atomic.incr
    (match cert.verdict with
    | Certified -> certified_c
    | Refuted _ -> refuted_c
    | Unverified _ -> unverified_c);
  Atomic.incr
    (match cert.minimality with
    | Minimal -> minimal_c
    | Slack _ -> slack_c
    | Unknown_minimality _ -> unknown_min_c)

let stats () =
  { certified_n = Atomic.get certified_c;
    refuted_n = Atomic.get refuted_c;
    unverified_n = Atomic.get unverified_c;
    minimal_n = Atomic.get minimal_c;
    slack_n = Atomic.get slack_c;
    unknown_minimality_n = Atomic.get unknown_min_c }

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ certified_c; refuted_c; unverified_c; minimal_c; slack_c; unknown_min_c ]

(* Driver -------------------------------------------------------------------- *)

let empty_crosscheck note =
  { replayed = 0;
    checkers_agree = false;
    infer_consistent = false;
    infer_traced = 0;
    crosscheck_notes = [ note ] }

(* One certificate, inside [b]'s scope: each obligation, the minimality
   check and the cross-check fail closed on their own, so one failing
   analysis leaves the others' results standing. *)
let certify b ~repairs ~apps (policy : Policy.t) () : certificate =
  Budget.set_stage "verify";
  let env = Reconcile.Env.create ~apps policy in
  let guarded check =
    match Budget.absorb check with
    | Ok s -> s
    | Error { reason; _ } -> Unknown reason
  in
  let obligations =
    List.mapi (fun i stmt -> (i, stmt)) policy
    |> List.filter_map (fun (index, stmt) ->
           match stmt with
           | Policy.Let _ -> None
           | Policy.Assert ae ->
             let status =
               guarded (fun () ->
                   match eval3 env stmt ae with
                   | T -> Holds
                   | F c -> Refuted_by c
                   | U r -> Unknown r)
             in
             Some { index; stmt; status }
           | Policy.Assert_exclusive (p1, p2) ->
             let status = guarded (fun () -> check_exclusive env stmt p1 p2) in
             Some { index; stmt; status })
  in
  Budget.set_stage "minimality";
  let minimality =
    match Budget.absorb (fun () -> check_minimality env repairs) with
    | Ok m -> m
    | Error { reason; _ } -> Unknown_minimality reason
  in
  Budget.set_stage "crosscheck";
  let extra = match minimality with Slack ws -> ws | _ -> [] in
  let crosscheck =
    match Budget.absorb (fun () -> run_crosscheck ~apps ~obligations ~extra) with
    | Ok cc -> cc
    | Error { reason; _ } -> empty_crosscheck ("cross-check aborted: " ^ reason)
  in
  let refuted =
    List.concat_map
      (fun o -> match o.status with Refuted_by cs -> cs | _ -> [])
      obligations
  in
  let unknowns =
    List.filter_map
      (fun o ->
        match o.status with
        | Unknown r -> Some (Fmt.str "obligation %d: %s" o.index r)
        | _ -> None)
      obligations
  in
  let verdict =
    if refuted <> [] then Refuted refuted
    else
      match unknowns with
      | r :: _ -> Unverified r
      | [] ->
        if not crosscheck.checkers_agree then
          Unverified "checker cross-check failed (see notes)"
        else if not crosscheck.infer_consistent then
          Unverified "least-privilege inference cross-check failed"
        else Certified
  in
  { verdict;
    minimality;
    obligations;
    crosscheck;
    spent = Budget.spent b;
    notes = Budget.notes b }

let verify ?limits ?(repairs = []) ~(apps : (string * Perm.manifest) list)
    (policy : Policy.t) : certificate =
  let b = Budget.create ?limits () in
  let cert =
    match
      Budget.with_scope b (fun () ->
          Budget.absorb (certify b ~repairs ~apps policy))
    with
    | Ok cert -> cert
    | Error { reason; _ } ->
      { verdict = Unverified reason;
        minimality = Unknown_minimality "verification aborted";
        obligations = [];
        crosscheck = empty_crosscheck "verification aborted";
        spent = Budget.spent b;
        notes = Budget.notes b }
  in
  count_certificate cert;
  cert

let verify_report ?limits (policy : Policy.t) (report : Reconcile.report) :
    certificate =
  let cert =
    verify ?limits ~repairs:report.Reconcile.violations
      ~apps:report.Reconcile.manifests policy
  in
  match report.Reconcile.unresolved_macros with
  | [] -> cert
  | ms ->
    let note =
      Fmt.str "unresolved stub macro(s) in %s: their atoms deny-close under \
               evaluation"
        (String.concat ", " (List.map fst ms))
    in
    { cert with notes = cert.notes @ [ note ] }

let certified cert = cert.verdict = Certified

let verdict_label cert =
  match cert.verdict with
  | Certified -> "certified"
  | Refuted _ -> "refuted"
  | Unverified _ -> "unverified"

let minimality_label cert =
  match cert.minimality with
  | Minimal -> "minimal"
  | Slack _ -> "slack"
  | Unknown_minimality _ -> "unknown"

(* Rendering ----------------------------------------------------------------- *)

let pp_witness ppf (w : witness) =
  Fmt.pf ppf "@[<v2>%a:@,%s@]" Api.pp_call w.call w.explanation

let pp_counterexample ppf (c : counterexample) =
  Fmt.pf ppf "@[<v2>%s%s:@,%a@]" c.detail
    (match c.app with Some a -> Fmt.str " [app %s]" a | None -> "")
    Fmt.(list pp_witness)
    c.witnesses

let status_label = function
  | Holds -> "holds"
  | Refuted_by _ -> "refuted"
  | Unknown _ -> "unknown"

let pp_obligation ppf (o : obligation) =
  Fmt.pf ppf "@[<v2>#%d [%s] %a%a@]" o.index (status_label o.status)
    Policy.pp_stmt o.stmt
    (fun ppf -> function
      | Holds -> ()
      | Unknown r -> Fmt.pf ppf "@,%s" r
      | Refuted_by cs -> Fmt.pf ppf "@,%a" Fmt.(list pp_counterexample) cs)
    o.status

let pp_minimality ppf = function
  | Minimal -> Fmt.pf ppf "minimality: minimal (no repair stripped behaviour \
                           the policy would have allowed)"
  | Slack ws ->
    Fmt.pf ppf "@[<v2>minimality: SLACK — %d call(s) the least repair keeps \
                but the actual repair strips:@,%a@]"
      (List.length ws)
      Fmt.(list pp_witness)
      ws
  | Unknown_minimality r -> Fmt.pf ppf "minimality: unknown (%s)" r

let pp_certificate ppf (cert : certificate) =
  Fmt.pf ppf "@[<v>verdict: %s%a@,%a@,%a@,cross-check: %d replay(s), checkers \
              %s, inference %s (%d call(s))%a%a@]"
    (verdict_label cert)
    (fun ppf -> function
      | Unverified r -> Fmt.pf ppf " (%s)" r
      | _ -> ())
    cert.verdict pp_minimality cert.minimality
    Fmt.(list pp_obligation)
    cert.obligations cert.crosscheck.replayed
    (if cert.crosscheck.checkers_agree then "agree" else "DISAGREE")
    (if cert.crosscheck.infer_consistent then "consistent" else "INCONSISTENT")
    cert.crosscheck.infer_traced
    (fun ppf -> function
      | [] -> ()
      | notes -> Fmt.pf ppf "@,%a" Fmt.(list (fmt "note: %s")) notes)
    (cert.crosscheck.crosscheck_notes @ cert.notes)
    (fun ppf (s : Budget.spent) -> Fmt.pf ppf "@,budget: %a" Budget.pp_spent s)
    cert.spent

let json_of_witness (w : witness) : J.t =
  J.Obj
    [ ("token", J.Str (Token.to_string w.token));
      ("call", J.Str (Fmt.str "%a" Api.pp_call w.call));
      ("explanation", J.Str w.explanation) ]

let json_of_counterexample (c : counterexample) : J.t =
  J.Obj
    [ ("stmt", J.Str (Fmt.str "%a" Policy.pp_stmt c.stmt));
      ("app", match c.app with Some a -> J.Str a | None -> J.Null);
      ("detail", J.Str c.detail);
      ("witnesses", J.Arr (List.map json_of_witness c.witnesses)) ]

let json_of_obligation (o : obligation) : J.t =
  J.Obj
    (( "index", J.Num (float_of_int o.index) )
    :: ("stmt", J.Str (Fmt.str "%a" Policy.pp_stmt o.stmt))
    :: ("status", J.Str (status_label o.status))
    ::
    (match o.status with
    | Holds -> []
    | Unknown r -> [ ("reason", J.Str r) ]
    | Refuted_by cs ->
      [ ("counterexamples", J.Arr (List.map json_of_counterexample cs)) ]))

let json_of_minimality (m : minimality) : J.t =
  J.Obj
    (( "status",
       J.Str
         (match m with
         | Minimal -> "minimal"
         | Slack _ -> "slack"
         | Unknown_minimality _ -> "unknown") )
    ::
    (match m with
    | Minimal -> []
    | Slack ws -> [ ("witnesses", J.Arr (List.map json_of_witness ws)) ]
    | Unknown_minimality r -> [ ("reason", J.Str r) ]))

let json_of_certificate (cert : certificate) : J.t =
  J.Obj
    [ ("verdict", J.Str (verdict_label cert));
      ( "reason",
        match cert.verdict with
        | Unverified r -> J.Str r
        | _ -> J.Null );
      ("minimality", json_of_minimality cert.minimality);
      ("obligations", J.Arr (List.map json_of_obligation cert.obligations));
      ( "counterexamples",
        match cert.verdict with
        | Refuted cs -> J.Arr (List.map json_of_counterexample cs)
        | _ -> J.Arr [] );
      ( "crosscheck",
        J.Obj
          [ ("replayed", J.Num (float_of_int cert.crosscheck.replayed));
            ("checkers_agree", J.Bool cert.crosscheck.checkers_agree);
            ("infer_consistent", J.Bool cert.crosscheck.infer_consistent);
            ("infer_traced", J.Num (float_of_int cert.crosscheck.infer_traced));
            ( "notes",
              J.Arr
                (List.map (fun n -> J.Str n) cert.crosscheck.crosscheck_notes)
            ) ] );
      ( "spent",
        J.Obj
          [ ("steps", J.Num (float_of_int cert.spent.Budget.steps));
            ("clauses", J.Num (float_of_int cert.spent.Budget.clauses));
            ("nodes", J.Num (float_of_int cert.spent.Budget.nodes));
            ("elapsed", J.Num cert.spent.Budget.elapsed) ] );
      ("notes", J.Arr (List.map (fun n -> J.Str n) cert.notes)) ]
