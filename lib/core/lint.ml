(* Shield-lint — semantic static analysis of manifests and policies.

   See lint.mli / docs/LINTING.md for the model.  The pass reuses the
   reconciliation engine's own machinery — Nf normal forms, Inclusion's
   sound singleton/clause comparisons, Infer's least-privilege
   synthesis — so a lint verdict agrees with what enforcement would
   later do; there is no parallel "checking" semantics to drift.

   Fail-degraded discipline: each entry point installs its own
   {!Budget} scope (nested scopes are fine — the vetting pipeline's
   budget is not charged for advisory work), and every rule runs under
   {!Budget.absorb}.  A rule whose analysis fails (a normal-form
   blow-up, an exhausted budget, any stray exception) reports one
   [Info] "unverified" finding naming the reason, and the remaining
   rules still run.  Lint never raises and never rejects. *)

module M = Shield_controller.Metrics
module Json = Shield_controller.Telemetry.Json
module Api = Shield_controller.Api

(* Rule catalogue ------------------------------------------------------------- *)

type rule =
  | Unsatisfiable_filter
  | Vacuous_filter
  | Shadowed_clause
  | Redundant_refinement
  | Over_privilege
  | Dead_binding
  | Self_meet_join
  | Overlapping_exclusive

let all_rules =
  [ Unsatisfiable_filter; Vacuous_filter; Shadowed_clause;
    Redundant_refinement; Over_privilege; Dead_binding; Self_meet_join;
    Overlapping_exclusive ]

let rule_id = function
  | Unsatisfiable_filter -> "unsatisfiable-filter"
  | Vacuous_filter -> "vacuous-filter"
  | Shadowed_clause -> "shadowed-clause"
  | Redundant_refinement -> "redundant-refinement"
  | Over_privilege -> "over-privilege"
  | Dead_binding -> "dead-binding"
  | Self_meet_join -> "self-meet-join"
  | Overlapping_exclusive -> "overlapping-exclusive"

let rule_of_id s =
  List.find_opt (fun r -> rule_id r = s) all_rules

let rule_doc = function
  | Unsatisfiable_filter ->
    "A conjunction demands range-disjoint singletons on one dimension \
     (or complementary literals): no call carrying the dimension can \
     satisfy it."
  | Vacuous_filter ->
    "A non-trivial filter (or one of its CNF clauses) is implied by \
     TRUE — e.g. x OR NOT x — and restricts nothing."
  | Shadowed_clause ->
    "A DNF clause is included by an earlier clause of the same filter: \
     dead syntax that cannot change any decision."
  | Redundant_refinement ->
    "The filter only inspects dimensions the token's calls never \
     carry; under vacuous-pass every call passes, so the grant is \
     effectively unrestricted."
  | Over_privilege ->
    "The manifest strictly exceeds the least-privilege manifest \
     inferred from the supplied behaviour trace."
  | Dead_binding ->
    "A policy LET binding that no statement (and no supplied app \
     manifest) ever references."
  | Self_meet_join ->
    "MEET or JOIN of an expression with itself is a no-op."
  | Overlapping_exclusive ->
    "The two sides of ASSERT EITHER share allowed behaviour; \
     reconciliation would silently truncate the overlap."

(* Findings ------------------------------------------------------------------- *)

type severity = Error | Warn | Info

let severity_label = function Error -> "error" | Warn -> "warn" | Info -> "info"

let severity_of_label = function
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" | "note" -> Some Info
  | _ -> None

type finding = {
  rule : rule;
  severity : severity;
  location : string;
  message : string;
  suggestion : string option;
  witnesses : Diff.witness list;
}

let count sev fs = List.length (List.filter (fun f -> f.severity = sev) fs)

(* CI-gate counting: witness-bearing findings collapse to one per
   rule.  Upgrading a rule from a lattice claim to N confirmed witness
   calls must not inflate the numbers a --deny gate keys on. *)
let gate_count sev fs =
  let at_sev = List.filter (fun f -> f.severity = sev) fs in
  let bare, witnessed = List.partition (fun f -> f.witnesses = []) at_sev in
  let rules =
    List.sort_uniq compare (List.map (fun f -> f.rule) witnessed)
  in
  List.length bare + List.length rules

let severity_rank = function Error -> 2 | Warn -> 1 | Info -> 0

let max_severity = function
  | [] -> None
  | f :: fs ->
    Some
      (List.fold_left
         (fun best g ->
           if severity_rank g.severity > severity_rank best then g.severity
           else best)
         f.severity fs)

let has_rule r fs = List.exists (fun f -> f.rule = r) fs

(* Counters ------------------------------------------------------------------- *)

(* One registry counter per [lint-<severity>:<rule>] pair, created
   when the rule first fires, so only rules that fired appear in the
   telemetry. *)
let count_findings fs =
  List.iter
    (fun f ->
      Atomic.incr
        (M.counter
           (Printf.sprintf "lint-%s:%s" (severity_label f.severity)
              (rule_id f.rule))))
    fs

let lint_counters () =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix:"lint-" name)
    (M.counter_report ())

let stats () = List.filter (fun (_, n) -> n > 0) (lint_counters ())

let reset_counters () =
  List.iter (fun (name, _) -> Atomic.set (M.counter name) 0) (lint_counters ())

(* Small rendering helpers ---------------------------------------------------- *)

let ellipsize ?(max = 120) s =
  if String.length s <= max then s else String.sub s 0 (max - 3) ^ "..."

let singleton_str s = ellipsize (Fmt.to_to_string Filter.pp_singleton s)
let filter_str f = ellipsize (Fmt.to_to_string Filter.pp f)

let clause_str (c : Nf.clause) =
  ellipsize
    (String.concat " AND " (List.map (Fmt.to_to_string Nf.pp_literal) c))

let finding ?suggestion ?(witnesses = []) rule severity location message =
  { rule; severity; location; message; suggestion; witnesses }

let unverified rule location message =
  finding rule Info location ("unverified: " ^ message)

(* The guarded runner --------------------------------------------------------- *)

(* One (rule, fallback-location, check) triple per enabled rule.  An
   exhausted budget aborts the current rule only: the exception is
   converted into the rule's Info finding, and — since the shared
   scope stays exhausted — each remaining rule degrades the same way
   at its first budget tick.  Advisory results, never an escape. *)
let run_rules ~rules ~limits
    (checks : (rule * string * (unit -> finding list)) list) : finding list =
  let b = Budget.create ~limits () in
  let findings =
    Budget.with_scope b (fun () ->
        List.concat_map
          (fun (rule, fallback_loc, check) ->
            if not (List.mem rule rules) then []
            else
              match Budget.absorb check with
              | Ok fs -> fs
              | Error { reason; _ } ->
                [ unverified rule fallback_loc (reason ^ "; rule skipped") ])
          checks)
  in
  count_findings findings;
  findings

(* Per-permission iteration with a per-permission Too_large barrier, so
   one pathological filter degrades its own checks, not its siblings'. *)
let per_perm rule ~label (m : Perm.manifest)
    (f : string -> Perm.t -> finding list) : finding list =
  List.concat_map
    (fun (p : Perm.t) ->
      let loc = label ^ "PERM " ^ Token.to_string p.Perm.token in
      match f loc p with
      | fs -> fs
      | exception Nf.Too_large ->
        [ unverified rule loc
            "normal form too large under the lint budget; permission \
             skipped" ])
    m

(* Literal-level conflict predicates ----------------------------------------- *)

(* First offending pair in a conjunctive clause: complementary
   literals, or two positive singletons that are range-disjoint on the
   same dimension (Inclusion.singleton_disjoint — deliberately NOT
   semantic emptiness; the message spells the caveat out). *)
let conj_conflict (c : Nf.clause) : (Nf.literal * Nf.literal) option =
  let rec go = function
    | [] -> None
    | l :: rest -> (
      match
        List.find_opt
          (fun l' ->
            Nf.complementary l l'
            || (l.Nf.positive && l'.Nf.positive
               && Inclusion.singleton_disjoint l.Nf.atom l'.Nf.atom))
          rest
      with
      | Some l' -> Some (l, l')
      | None -> go rest)
  in
  go c

(* Rule 1: unsatisfiable filter ---------------------------------------------- *)

let unsatisfiable_perm loc (p : Perm.t) =
  let clauses = Nf.dnf p.Perm.filter in
  let many = List.length clauses > 1 in
  List.concat
    (List.mapi
       (fun i c ->
         Budget.step ();
         match conj_conflict c with
         | None -> []
         | Some (a, b) ->
           let loc =
             if many then Printf.sprintf "%s, clause %d" loc (i + 1) else loc
           in
           let lit_str (l : Nf.literal) =
             (if l.Nf.positive then "" else "NOT ") ^ singleton_str l.Nf.atom
           in
           [ finding Unsatisfiable_filter Error loc
               (Printf.sprintf
                  "conjunction requires both %s and %s, which cannot hold \
                   together on the same dimension; only calls lacking the \
                   dimension (vacuous pass) could ever satisfy this clause"
                  (lit_str a) (lit_str b))
               ~suggestion:
                 "remove one of the conflicting singletons or turn the AND \
                  into an OR" ])
       clauses)

(* Rule 2: vacuous filter ----------------------------------------------------- *)

let vacuous_perm loc (p : Perm.t) =
  if Filter.size p.Perm.filter <= 1 then []
  else
    let clauses = Nf.cnf p.Perm.filter in
    if clauses = [] || List.for_all Nf.has_complementary clauses then
      [ finding Vacuous_filter Warn loc
          (Printf.sprintf
             "filter %s is always true after normalisation: the refinement \
              does not restrict the token at all"
             (filter_str p.Perm.filter))
          ~suggestion:
            "drop the LIMITING clause (an unrestricted grant is what it \
             already is) or tighten the filter" ]
    else
      let many = List.length clauses > 1 in
      List.concat
        (List.mapi
           (fun i c ->
             Budget.step ();
             if Nf.has_complementary c then
               let loc =
                 if many then Printf.sprintf "%s, clause %d" loc (i + 1)
                 else loc
               in
               [ finding Vacuous_filter Warn loc
                   (Printf.sprintf
                      "clause (%s) contains complementary literals and is \
                       always true; it contributes nothing to the \
                       conjunction"
                      (clause_str c))
                   ~suggestion:"delete the tautological clause" ]
             else [])
           clauses)

(* Rule 3: shadowed clause ---------------------------------------------------- *)

(** Pairwise shadow analysis is quadratic in the DNF clause count;
    past this cap the rule reports itself unverified instead of
    stalling the pass. *)
let shadow_max_clauses = 128

let shadowed_perm loc (p : Perm.t) =
  let clauses = Nf.dnf p.Perm.filter in
  let n = List.length clauses in
  if n < 2 then []
  else if n > shadow_max_clauses then
    [ unverified Shadowed_clause loc
        (Printf.sprintf
           "%d DNF clauses exceed the shadow-analysis cap (%d); rule \
            skipped for this permission"
           n shadow_max_clauses) ]
  else
    let arr = Array.of_list clauses in
    let out = ref [] in
    for j = 1 to n - 1 do
      Budget.step ();
      let rec first_covering i =
        if i >= j then None
        else if Inclusion.conj_clause_includes arr.(i) arr.(j) then Some i
        else first_covering (i + 1)
      in
      match first_covering 0 with
      | None -> ()
      | Some i ->
        out :=
          finding Shadowed_clause Warn
            (Printf.sprintf "%s, clause %d" loc (j + 1))
            (Printf.sprintf
               "clause (%s) is already covered by clause %d (%s); it can \
                never change the decision"
               (clause_str arr.(j))
               (i + 1)
               (clause_str arr.(i)))
            ~suggestion:"delete the shadowed clause"
          :: !out
    done;
    List.rev !out

(* Rule 4: redundant token refinement ---------------------------------------- *)

(* Which singleton dimensions can calls under a token actually carry?
   Derived from Attrs.of_call / Engine.token_of_call: a singleton on a
   dimension outside this set passes vacuously on every call the token
   admits (§IV-B), so a filter built only from such singletons is an
   unrestricted grant in disguise.  Macros count as relevant — their
   binding is unknown until the policy expands them. *)
let relevant_to_token (token : Token.t) (s : Filter.singleton) =
  let is_flow_token =
    match token with
    | Token.Insert_flow | Token.Delete_flow | Token.Read_flow_table -> true
    | _ -> false
  in
  let is_event_token =
    match token with
    | Token.Pkt_in_event | Token.Flow_event | Token.Topology_event
    | Token.Error_event ->
      true
    | _ -> false
  in
  match s with
  | Filter.Macro _ -> true
  | Filter.Pred { field; _ } | Filter.Wildcard { field; _ } -> (
    match token with
    | Token.Insert_flow | Token.Delete_flow | Token.Read_flow_table
    | Token.Send_pkt_out ->
      true
    | Token.Host_network ->
      field = Filter.F_ip_dst || field = Filter.F_tcp_dst
    | _ -> false)
  | Filter.Action_f _ ->
    (match token with
    | Token.Insert_flow | Token.Delete_flow -> true
    | _ -> false)
  | Filter.Owner _ -> is_flow_token
  | Filter.Max_priority _ | Filter.Min_priority _ ->
    (match token with
    | Token.Insert_flow | Token.Delete_flow -> true
    | _ -> false)
  | Filter.Max_rule_count _ -> token = Token.Insert_flow
  | Filter.Pkt_out _ -> token = Token.Send_pkt_out
  | Filter.Phys_topo _ ->
    is_flow_token || is_event_token
    || (match token with
       | Token.Visible_topology | Token.Modify_topology
       | Token.Read_statistics | Token.Send_pkt_out ->
         true
       | _ -> false)
  | Filter.Virt_topo _ ->
    is_flow_token
    || (match token with
       | Token.Visible_topology | Token.Send_pkt_out -> true
       | _ -> false)
  | Filter.Callback _ -> is_event_token
  | Filter.Stats_level _ -> token = Token.Read_statistics

let redundant_perm loc (p : Perm.t) =
  Budget.step ();
  let atoms = Filter.fold_atoms (fun acc s -> s :: acc) [] p.Perm.filter in
  if atoms = [] then []
  else if List.exists (relevant_to_token p.Perm.token) atoms then []
  else
    let dims =
      List.sort_uniq compare (List.map singleton_str atoms)
    in
    [ finding Redundant_refinement Warn loc
        (Printf.sprintf
           "filter only inspects %s — dimensions %s calls never carry; \
            under the vacuous-pass convention every call passes, so the \
            grant is effectively unrestricted while looking restricted"
           (ellipsize (String.concat ", " dims))
           (Token.to_string p.Perm.token))
        ~suggestion:
          (Printf.sprintf
             "drop the LIMITING clause or refine on a dimension %s calls \
              carry"
             (Token.to_string p.Perm.token)) ]

(* Rule 5: over-privilege audit ---------------------------------------------- *)

(* The lattice claims below are upgraded to confirmed witness calls
   where [Diff] can synthesize one: a witness is a concrete call the
   grant admits that the least-privilege envelope does not — evidence
   an auditor can replay, not just a provable-inclusion assertion.
   [Diff.diff] never raises and fails closed to no-witnesses, so the
   base finding still fires when synthesis degrades. *)
let excess_witnesses token ~(wide : Filter.expr) ~(narrow : Filter.expr) =
  match
    Diff.diff ~max_witnesses:2
      [ { Perm.token; filter = wide } ]
      [ { Perm.token; filter = narrow } ]
  with
  | Diff.Nonempty ws -> Diff.dedup ws
  | Diff.Empty | Diff.Unknown _ -> []

let over_privilege_findings ~label trace (m : Perm.manifest) =
  Budget.step ();
  let inferred = Infer.of_trace trace in
  List.concat_map
    (fun (p : Perm.t) ->
      let loc = label ^ "PERM " ^ Token.to_string p.Perm.token in
      if Filter.has_macros p.Perm.filter then []
      else
        match Perm.find inferred p.Perm.token with
        | None ->
          let witnesses =
            excess_witnesses p.Perm.token ~wide:p.Perm.filter
              ~narrow:Filter.False
          in
          [ finding Over_privilege Warn loc ~witnesses
              (Printf.sprintf
                 "token %s is granted but never used in the supplied \
                  behaviour trace (%d calls)%s"
                 (Token.to_string p.Perm.token)
                 (List.length trace)
                 (match witnesses with
                 | w :: _ ->
                   Printf.sprintf "; the grant admits e.g. %s"
                     (ellipsize (Fmt.to_to_string Api.pp_call w.Diff.call))
                 | [] -> ""))
              ~suggestion:
                (Printf.sprintf "drop PERM %s from the manifest"
                   (Token.to_string p.Perm.token)) ]
        | Some q ->
          if
            Inclusion.filter_includes p.Perm.filter q.Perm.filter
            && not (Inclusion.filter_includes q.Perm.filter p.Perm.filter)
          then
            let witnesses =
              excess_witnesses p.Perm.token ~wide:p.Perm.filter
                ~narrow:q.Perm.filter
            in
            [ finding Over_privilege Warn loc ~witnesses
                (Printf.sprintf
                   "filter strictly exceeds the least-privilege envelope \
                    observed in the trace; the observed behaviour only \
                    needs: %s%s"
                   (filter_str q.Perm.filter)
                   (match witnesses with
                   | w :: _ ->
                     Printf.sprintf
                       " (confirmed: %s is admitted but outside the envelope)"
                       (ellipsize (Fmt.to_to_string Api.pp_call w.Diff.call))
                   | [] -> ""))
                ~suggestion:
                  (Printf.sprintf "narrow to LIMITING %s"
                     (filter_str q.Perm.filter)) ]
          else [])
    m

(* Policy helpers ------------------------------------------------------------- *)

let stmt_head (stmt : Policy.stmt) =
  match stmt with
  | Policy.Let (v, Policy.B_perm _) -> "LET " ^ v ^ " = <perm>"
  | Policy.Let (v, Policy.B_filter _) -> "LET " ^ v ^ " = { <filter> }"
  | Policy.Let (v, Policy.B_app a) -> Printf.sprintf "LET %s = APP %s" v a
  | Policy.Assert_exclusive _ -> "ASSERT EITHER"
  | Policy.Assert _ -> "ASSERT"

let stmt_loc i stmt = Printf.sprintf "statement %d (%s)" (i + 1) (stmt_head stmt)

(* Every filter expression embedded in a perm_expr (P_block filters). *)
let rec perm_expr_filters = function
  | Policy.P_var _ -> []
  | Policy.P_block m -> List.map (fun (p : Perm.t) -> p.Perm.filter) m
  | Policy.P_meet (a, b) | Policy.P_join (a, b) ->
    perm_expr_filters a @ perm_expr_filters b

let rec assert_expr_perm_exprs = function
  | Policy.A_cmp (a, _, b) -> [ a; b ]
  | Policy.A_and (a, b) | Policy.A_or (a, b) ->
    assert_expr_perm_exprs a @ assert_expr_perm_exprs b
  | Policy.A_not a -> assert_expr_perm_exprs a

let stmt_perm_exprs = function
  | Policy.Let (_, Policy.B_perm pe) -> [ pe ]
  | Policy.Let (_, (Policy.B_filter _ | Policy.B_app _)) -> []
  | Policy.Assert_exclusive (a, b) -> [ a; b ]
  | Policy.Assert ae -> assert_expr_perm_exprs ae

let stmt_filters stmt =
  let embedded = List.concat_map perm_expr_filters (stmt_perm_exprs stmt) in
  match stmt with
  | Policy.Let (_, Policy.B_filter f) -> f :: embedded
  | _ -> embedded

(* Rule 6: dead LET binding --------------------------------------------------- *)

let dead_bindings ?manifest_macros (policy : Policy.t) =
  let indexed = List.mapi (fun i s -> (i, s)) policy in
  (* Per-statement reference sets: names used as perm-expr variables,
     and names used as stub macros inside embedded filters. *)
  let refs =
    List.map
      (fun (i, stmt) ->
        Budget.step ();
        let vars = List.concat_map Policy.perm_expr_vars (stmt_perm_exprs stmt) in
        let macros = List.concat_map Filter.macros (stmt_filters stmt) in
        (i, vars @ macros))
      indexed
  in
  let referenced_elsewhere i name =
    List.exists (fun (j, names) -> j <> i && List.mem name names) refs
  in
  List.concat_map
    (fun (i, stmt) ->
      match stmt with
      | Policy.Let (v, rhs) ->
        if referenced_elsewhere i v then []
        else begin
          match rhs with
          | Policy.B_filter _ -> (
            match manifest_macros with
            | Some ms when List.mem v ms -> []
            | Some _ ->
              [ finding Dead_binding Warn (stmt_loc i stmt)
                  (Printf.sprintf
                     "stub macro %s is bound but referenced by no policy \
                      statement and no app manifest"
                     v)
                  ~suggestion:"delete the binding or fix the stub name" ]
            | None ->
              [ finding Dead_binding Info (stmt_loc i stmt)
                  (Printf.sprintf
                     "stub macro %s is referenced by no policy statement \
                      (app manifests were not inspected — pass them to \
                      confirm)"
                     v)
                  ~suggestion:"delete the binding if no manifest uses it" ])
          | Policy.B_perm _ | Policy.B_app _ ->
            [ finding Dead_binding Warn (stmt_loc i stmt)
                (Printf.sprintf
                   "binding %s is never referenced by any later statement" v)
                ~suggestion:"delete the unused LET" ]
        end
      | _ -> [])
    indexed

(* Rule 7: self-MEET/JOIN no-ops --------------------------------------------- *)

let rec perm_expr_equal a b =
  match (a, b) with
  | Policy.P_var x, Policy.P_var y -> x = y
  | Policy.P_block m, Policy.P_block n -> Perm.equal m n
  | Policy.P_meet (a1, a2), Policy.P_meet (b1, b2)
  | Policy.P_join (a1, a2), Policy.P_join (b1, b2) ->
    perm_expr_equal a1 b1 && perm_expr_equal a2 b2
  | _ -> false

let rec self_ops loc pe =
  Budget.step ();
  match pe with
  | Policy.P_var _ | Policy.P_block _ -> []
  | Policy.P_meet (a, b) | Policy.P_join (a, b) ->
    let op = match pe with Policy.P_meet _ -> "MEET" | _ -> "JOIN" in
    (if perm_expr_equal a b then
       [ finding Self_meet_join Warn loc
           (Printf.sprintf
              "%s of an expression with itself is a no-op (%s)"
              op
              (ellipsize (Fmt.to_to_string Policy.pp_perm_expr pe)))
           ~suggestion:"replace the operation with one of its operands" ]
     else [])
    @ self_ops loc a @ self_ops loc b

let self_meet_joins (policy : Policy.t) =
  List.concat
    (List.mapi
       (fun i stmt ->
         List.concat_map (self_ops (stmt_loc i stmt)) (stmt_perm_exprs stmt))
       policy)

(* Rule 8: overlapping ASSERT EITHER sides ----------------------------------- *)

(* Resolve a perm_expr to a concrete manifest using the policy's own
   LET bindings.  App references and filter macros are opaque here
   (their manifests live outside the policy), so expressions touching
   them stay unresolved and the rule stays silent — sound for a lint:
   no claim is made that cannot be shown from the policy text alone. *)
let rec resolve_perm_expr env seen pe : Perm.manifest option =
  Budget.step ();
  match pe with
  | Policy.P_block m -> Some m
  | Policy.P_var v ->
    if List.mem v seen then None
    else (
      match List.assoc_opt v env with
      | Some (Policy.B_perm pe') -> resolve_perm_expr env (v :: seen) pe'
      | _ -> None)
  | Policy.P_meet (a, b) -> (
    match (resolve_perm_expr env seen a, resolve_perm_expr env seen b) with
    | Some ma, Some mb -> Some (Perm_ops.meet ma mb)
    | _ -> None)
  | Policy.P_join (a, b) -> (
    match (resolve_perm_expr env seen a, resolve_perm_expr env seen b) with
    | Some ma, Some mb -> Some (Perm_ops.join ma mb)
    | _ -> None)

let overlap_token (a : Perm.manifest) (b : Perm.manifest) : Token.t option =
  List.find_map
    (fun (pa : Perm.t) ->
      match Perm.find b pa.Perm.token with
      | Some pb
        when Inclusion.filter_satisfiable
               (Filter.conj pa.Perm.filter pb.Perm.filter) ->
        Some pa.Perm.token
      | _ -> None)
    a

let overlapping_exclusives (policy : Policy.t) =
  let env =
    List.filter_map
      (function Policy.Let (v, rhs) -> Some (v, rhs) | _ -> None)
      policy
  in
  List.concat
    (List.mapi
       (fun i stmt ->
         match stmt with
         | Policy.Assert_exclusive (a, b) -> (
           match
             (resolve_perm_expr env [] a, resolve_perm_expr env [] b)
           with
           | Some ma, Some mb -> (
             match overlap_token ma mb with
             | Some t ->
               (* Upgrade the satisfiability claim to confirmed calls
                  where the witness engine finds one; [Diff.overlap]
                  never raises, and a degraded search just leaves the
                  claim witness-less. *)
               let witnesses =
                 match Diff.overlap ~max_witnesses:2 ma mb with
                 | Diff.Nonempty ws -> Diff.dedup ws
                 | Diff.Empty | Diff.Unknown _ -> []
               in
               [ finding Overlapping_exclusive Warn (stmt_loc i stmt)
                   ~witnesses
                   (Printf.sprintf
                      "the two EITHER sides share allowed behaviour (e.g. \
                       under token %s); an app possessing both would have \
                       the overlap silently truncated from the second side \
                       at reconciliation%s"
                      (Token.to_string t)
                      (match witnesses with
                      | w :: _ ->
                        Printf.sprintf " (confirmed: %s is admitted by both)"
                          (ellipsize
                             (Fmt.to_to_string Api.pp_call w.Diff.call))
                      | [] -> ""))
                   ~suggestion:
                     "tighten one side so the sets are disjoint, or drop \
                      the exclusivity constraint" ]
             | None -> [])
           | _ -> [])
         | _ -> [])
       policy)

(* Entry points ---------------------------------------------------------------- *)

let lint_manifest ?(rules = all_rules) ?(limits = Budget.default_limits)
    ?(label = "") ?trace (m : Perm.manifest) : finding list =
  let label = if label = "" then "" else label ^ ": " in
  let fallback = label ^ "manifest" in
  let checks =
    [ ( Unsatisfiable_filter, fallback,
        fun () -> per_perm Unsatisfiable_filter ~label m unsatisfiable_perm );
      ( Vacuous_filter, fallback,
        fun () -> per_perm Vacuous_filter ~label m vacuous_perm );
      ( Shadowed_clause, fallback,
        fun () -> per_perm Shadowed_clause ~label m shadowed_perm );
      ( Redundant_refinement, fallback,
        fun () -> per_perm Redundant_refinement ~label m redundant_perm ) ]
    @
    match trace with
    | None -> []
    | Some trace ->
      [ ( Over_privilege, fallback,
          fun () -> over_privilege_findings ~label trace m ) ]
  in
  run_rules ~rules ~limits checks

let lint_policy ?(rules = all_rules) ?(limits = Budget.default_limits)
    ?manifest_macros (policy : Policy.t) : finding list =
  let checks =
    [ ( Dead_binding, "policy",
        fun () -> dead_bindings ?manifest_macros policy );
      (Self_meet_join, "policy", fun () -> self_meet_joins policy);
      ( Overlapping_exclusive, "policy",
        fun () -> overlapping_exclusives policy ) ]
  in
  run_rules ~rules ~limits checks

(* Rendering ------------------------------------------------------------------- *)

let pp_finding ppf f =
  Fmt.pf ppf "%s[%s] %s: %s"
    (severity_label f.severity)
    (rule_id f.rule) f.location f.message;
  List.iter
    (fun (w : Diff.witness) ->
      Fmt.pf ppf "@,    witness: %a — %s" Api.pp_call w.Diff.call
        w.Diff.why_left)
    f.witnesses;
  match f.suggestion with
  | Some s -> Fmt.pf ppf "@,    suggestion: %s" s
  | None -> ()

let pp_report ppf fs =
  match fs with
  | [] -> Fmt.pf ppf "lint: clean — no findings@."
  | _ ->
    Fmt.pf ppf "@[<v>%a@]@." (Fmt.list pp_finding) fs;
    Fmt.pf ppf "lint: %d error(s), %d warning(s), %d info@." (count Error fs)
      (count Warn fs) (count Info fs)

(* SARIF-shaped JSON.  One run, driver "shield-lint", the full rule
   catalogue as rule metadata, one result per finding.  Built on the
   dependency-free Telemetry JSON writer so round-trips are testable
   with the same parser the observability gate uses. *)
let sarif_level = function Error -> "error" | Warn -> "warning" | Info -> "note"

let to_sarif ?(uri = "<memory>") fs =
  let rule_meta r =
    Json.Obj
      [ ("id", Json.Str (rule_id r));
        ( "shortDescription",
          Json.Obj [ ("text", Json.Str (rule_doc r)) ] ) ]
  in
  let result f =
    let witness_json (w : Diff.witness) =
      Json.Obj
        [ ("token", Json.Str (Token.to_string w.Diff.token));
          ("call", Json.Str (Fmt.to_to_string Api.pp_call w.Diff.call));
          ("admitted", Json.Str w.Diff.why_left);
          ("counterpart", Json.Str w.Diff.why_right) ]
    in
    let property_fields =
      (match f.suggestion with
      | None -> []
      | Some s -> [ ("suggestion", Json.Str s) ])
      @
      match f.witnesses with
      | [] -> []
      | ws -> [ ("witnesses", Json.Arr (List.map witness_json ws)) ]
    in
    let properties =
      match property_fields with
      | [] -> []
      | fields -> [ ("properties", Json.Obj fields) ]
    in
    Json.Obj
      ([ ("ruleId", Json.Str (rule_id f.rule));
         ("level", Json.Str (sarif_level f.severity));
         ("message", Json.Obj [ ("text", Json.Str f.message) ]);
         ( "locations",
           Json.Arr
             [ Json.Obj
                 [ ( "physicalLocation",
                     Json.Obj
                       [ ( "artifactLocation",
                           Json.Obj [ ("uri", Json.Str uri) ] ) ] );
                   ( "logicalLocations",
                     Json.Arr
                       [ Json.Obj
                           [ ("fullyQualifiedName", Json.Str f.location) ]
                       ] ) ] ] ) ]
      @ properties)
  in
  Json.to_string
    (Json.Obj
       [ ("version", Json.Str "2.1.0");
         ( "runs",
           Json.Arr
             [ Json.Obj
                 [ ( "tool",
                     Json.Obj
                       [ ( "driver",
                           Json.Obj
                             [ ("name", Json.Str "shield-lint");
                               ( "informationUri",
                                 Json.Str "docs/LINTING.md" );
                               ( "rules",
                                 Json.Arr (List.map rule_meta all_rules) )
                             ] ) ] );
                   ("results", Json.Arr (List.map result fs)) ] ] ) ])
