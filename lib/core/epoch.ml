(* Epoch-based live update (docs/CHURN.md).

   The design is RCU-shaped.  Writers (lifecycle transactions,
   serialized by [t.mutex]) prepare a complete immutable [record] off
   to the side — reconciled manifest, compiled engine, packaged
   checker — and publish it with one [Atomic.exchange] per app slot.
   Readers never lock: they load the slot once at the start of a
   mediated call and run every phase of that call (check, rewrite,
   result vetting, explanation) against the loaded record.  In-flight
   calls on the old record finish undisturbed because the record is
   immutable and unreferenced slots are simply collected.

   Rollback is by construction: until the publish stage nothing shared
   is mutated, so a failure in vet / reconcile / lint / verify /
   compile aborts by just not publishing.  The publish stage itself
   keeps an undo list — if the k-th swap of a multi-app commit faults,
   the k-1 already-swapped slots are restored before the failure is
   reported, so readers only ever observe the pre- or post-transaction
   epoch.  (Between the fault and the restore a reader can observe a
   prefix of the new records; each is individually consistent, and the
   restore converges to the old epoch.  The global epoch counter only
   advances after the last swap succeeds.) *)

open Shield_net
open Shield_controller

type record = {
  epoch : int;
  app : string;
  manifest : Perm.manifest;
  engine : Engine.t;
  checker : Api.checker;
}

type slot = Active of record | Absent of { epoch : int; reason : string }

(* Delta-reconciliation dependency analysis (docs/CHURN.md).  A
   statement's dependency set is the set of app names its permission
   expressions can reach through the policy's LET bindings.  [Global]
   marks exclusivity constraints, which iterate over every admitted
   app; [Unknown] marks anything the static analysis cannot resolve
   (unbound variables, filter macros in permission position, cyclic
   bindings) and forces whole-policy reconciliation. *)
type deps = Apps of string list | Global | Unknown

type t = {
  policy : Policy.t;
  sdeps : (Policy.stmt * deps) list;  (* policy order, one entry per stmt *)
  limits : Budget.limits option;
  topo : Topology.t option;
  mutex : Mutex.t;  (* serializes transactions; readers never take it *)
  epoch_counter : int Atomic.t;
  slots : (string * slot Atomic.t) list Atomic.t;
      (* Functional assoc list behind an atomic so lock-free readers
         always see a fully-built list; writers replace it under
         [mutex]. *)
  mutable originals : (string * Perm.manifest) list;
      (* Vetted pre-reconciliation manifests of the live apps — the
         inputs whole-policy reconciliation restarts from. *)
  mutable bindings : (string * (Dataplane.t * int)) list;
      (* Per app name, the data plane and cookie a runtime bound its
         checker to: every engine republished for the app is bound the
         same way, so its installed rules keep counting. *)
  delta_runs : int Atomic.t;
  full_runs : int Atomic.t;
}

(* Dependency analysis ------------------------------------------------------ *)

let union a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Global, _ | _, Global -> Global
  | Apps x, Apps y -> Apps (List.sort_uniq compare (x @ y))

let rec expr_deps binds seen (e : Policy.perm_expr) : deps =
  match e with
  | Policy.P_block _ -> Apps []
  | Policy.P_meet (a, b) | Policy.P_join (a, b) ->
    union (expr_deps binds seen a) (expr_deps binds seen b)
  | Policy.P_var v -> (
    if List.mem v seen then Unknown (* cyclic binding: reconcile skips it *)
    else
      match List.assoc_opt v binds with
      | Some (Policy.B_app app) -> Apps [ app ]
      | Some (Policy.B_perm e') -> expr_deps binds (v :: seen) e'
      | Some (Policy.B_filter _) | None -> Unknown)

let stmt_deps binds (s : Policy.stmt) : deps =
  match s with
  (* LETs are replayed in every delta subset (they cost nothing and
     later statements need them), so their own deps never matter. *)
  | Policy.Let _ -> Apps []
  | Policy.Assert_exclusive _ -> Global
  | Policy.Assert ae ->
    let rec go = function
      | Policy.A_cmp (a, _, b) ->
        union (expr_deps binds [] a) (expr_deps binds [] b)
      | Policy.A_and (x, y) | Policy.A_or (x, y) -> union (go x) (go y)
      | Policy.A_not x -> go x
    in
    go ae

let analyze (policy : Policy.t) : (Policy.stmt * deps) list =
  let binds =
    List.filter_map
      (function Policy.Let (n, rhs) -> Some (n, rhs) | _ -> None)
      policy
  in
  List.map (fun s -> (s, stmt_deps binds s)) policy

(* Construction ------------------------------------------------------------- *)

(* The deployment's levels are gauges, its reconcile-run counts
   counters; the names are fixed, like the market's.  A level keeps no
   high-water mark of its own, so it reports its current value as
   both. *)
let register_metrics t =
  let level f () =
    let v = f () in
    { Metrics.depth = v; hwm = v }
  in
  Metrics.register_gauge "market:epoch" (level (fun () -> Atomic.get t.epoch_counter));
  Metrics.register_gauge "market:apps"
    (level (fun () ->
         List.length
           (List.filter
              (fun (_, c) ->
                match Atomic.get c with Active _ -> true | Absent _ -> false)
              (Atomic.get t.slots))));
  Metrics.register_counter "market:reconcile:delta" t.delta_runs;
  Metrics.register_counter "market:reconcile:full" t.full_runs

let close (_ : t) =
  List.iter Metrics.unregister_gauge [ "market:epoch"; "market:apps" ];
  List.iter Metrics.unregister_counter
    [ "market:reconcile:delta"; "market:reconcile:full" ]

let create ?limits ?topo ~policy () : (t, string) result =
  match Vetting.vet_policy ?limits policy with
  | Vetting.Rejected r ->
    Error (Printf.sprintf "policy rejected at %s: %s" r.Vetting.stage r.reason)
  | Vetting.Admitted policy | Vetting.Degraded (policy, _) ->
    Ok
      (let t =
         { policy; sdeps = analyze policy; limits; topo;
           mutex = Mutex.create (); epoch_counter = Atomic.make 0;
           slots = Atomic.make []; originals = []; bindings = [];
           delta_runs = Atomic.make 0; full_runs = Atomic.make 0 }
       in
       register_metrics t;
       t)

(* Slots and readers -------------------------------------------------------- *)

let find_cell t app = List.assoc_opt app (Atomic.get t.slots)

(* Get-or-create an app's slot cell.  [slot_cell_locked] is for
   callers already inside the transaction mutex (it is not
   re-entrant); [slot_cell] takes it for the public [checker] path. *)
let slot_cell_locked t app =
  match find_cell t app with
  | Some c -> c
  | None ->
    let c = Atomic.make (Absent { epoch = 0; reason = "never installed" }) in
    Atomic.set t.slots ((app, c) :: Atomic.get t.slots);
    c

let slot_cell t app =
  match find_cell t app with
  | Some c -> c
  | None ->
    Mutex.lock t.mutex;
    let c = slot_cell_locked t app in
    Mutex.unlock t.mutex;
    c

let epoch t = Atomic.get t.epoch_counter

let apps t =
  List.filter_map
    (fun (name, c) ->
      match Atomic.get c with
      | Active r -> Some (name, r.epoch)
      | Absent _ -> None)
    (Atomic.get t.slots)
  |> List.sort compare

let reconcile_counts t = (Atomic.get t.delta_runs, Atomic.get t.full_runs)

(* The fail-closed checker an [Absent] slot resolves to. *)
let absent_checker reason =
  let msg = "market: " ^ reason in
  { Api.deny_all with
    Api.check = (fun _ -> Api.Deny msg);
    check_transaction =
      (fun calls -> match calls with [] -> Ok () | _ -> Error (0, msg)) }

let pinned = function
  | Active r -> r.checker
  | Absent { reason; _ } -> absent_checker reason

(* Record an app's binding and bind its published engine.  Under the
   transaction mutex, so a concurrent commit either compiles with the
   binding or publishes before it and is bound here. *)
let bind t app cell dataplane ~cookie =
  Mutex.protect t.mutex (fun () ->
      t.bindings <- (app, (dataplane, cookie)) :: List.remove_assoc app t.bindings;
      match Atomic.get cell with
      | Active r -> Engine.bind r.engine dataplane ~cookie
      | Absent _ -> ())

let checker t app : Api.checker =
  let cell = slot_cell t app in
  let resolve () = pinned (Atomic.get cell) in
  { Api.check = (fun call -> (resolve ()).Api.check call);
    check_batch =
      Some
        (fun calls ->
          let c = resolve () in
          match c.Api.check_batch with
          | Some f -> f calls
          | None -> Array.map c.Api.check calls);
    check_transaction = (fun calls -> (resolve ()).Api.check_transaction calls);
    rewrite = (fun call -> (resolve ()).Api.rewrite call);
    combine = (fun call results -> (resolve ()).Api.combine call results);
    vet_result = (fun call r -> (resolve ()).Api.vet_result call r);
    bind = bind t app cell;
    granted = (fun cap -> (resolve ()).Api.granted cap);
    explain =
      Some
        (fun call ->
          let c = resolve () in
          match c.Api.explain with
          | Some f -> f call
          | None -> (c.Api.check call, Api.no_check_info));
    snapshot = Some resolve }

(* Staged transactions ------------------------------------------------------ *)

exception Stage_failed of { stage : string; reason : string }

(* Run one stage: record its wall-clock duration — on failure too, so
   a rolled-back transaction's span still shows where the time went —
   and turn whatever {!Budget.absorb} catches into [Stage_failed]
   carrying this stage's name: a refusal the stage raises with
   [failwith reason], an injected fault, budget exhaustion, a compile
   rejection. *)
let stage stages name f =
  let t0 = Metrics.now () in
  let before = !stages in
  let outcome = Budget.absorb f in
  (* Entries [f] itself pushed (the publish stage's undo walk) stay
     *after* this stage's own entry in execution order, i.e. nearer
     the head of the reversed-accumulation list. *)
  let rec during l =
    if l == before then []
    else match l with [] -> [] | x :: tl -> x :: during tl
  in
  stages := during !stages @ ((name, Metrics.now () -. t0) :: before);
  match outcome with
  | Ok v -> v
  | Error { reason; _ } -> raise (Stage_failed { stage = name; reason })

let published t =
  List.filter_map
    (fun (name, c) ->
      match Atomic.get c with
      | Active r -> Some (name, r.manifest)
      | Absent _ -> None)
    (Atomic.get t.slots)

(* The reconcile stage.  [changed] is the app being installed/upgraded
   ([Some (app, manifest)]) or revoked ([None]); [app] names it either
   way.  Returns the statements that ran (for verification), the
   resulting report, and whether the delta path was committed. *)
let reconcile_stage t ~app ~changed () :
    Policy.t * Reconcile.report * bool =
  let scoped f =
    match t.limits with
    | None -> f ()
    | Some limits -> Budget.with_scope (Budget.create ~limits ()) f
  in
  let full () =
    Atomic.incr t.full_runs;
    let apps =
      let rest = List.remove_assoc app t.originals in
      match changed with Some (a, m) -> (a, m) :: rest | None -> rest
    in
    (t.policy, scoped (fun () -> Reconcile.run ~apps t.policy), false)
  in
  if List.exists (fun (_, d) -> d = Unknown) t.sdeps then full ()
  else
    (* Statements whose dependency set reaches the changed app, plus
       every LET (cheap, and later statements need the bindings) and
       every exclusivity constraint (they range over all apps). *)
    let subset =
      List.filter
        (fun (s, d) ->
          match (s, d) with
          | Policy.Let _, _ -> true
          | _, Global -> true
          | _, Apps l -> List.mem app l
          | _, Unknown -> true)
        t.sdeps
    in
    let is_constraint = function Policy.Let _ -> false | _ -> true in
    let sub_constraints =
      List.length (List.filter (fun (s, _) -> is_constraint s) subset)
    in
    let all_constraints =
      List.length (List.filter (fun (s, _) -> is_constraint s) t.sdeps)
    in
    if sub_constraints = all_constraints then full ()
    else
      let policy' = List.map fst subset in
      let others = List.remove_assoc app (published t) in
      let delta_apps =
        match changed with Some (a, m) -> (a, m) :: others | None -> others
      in
      let report = scoped (fun () -> Reconcile.run ~apps:delta_apps policy') in
      (* The delta contract (docs/CHURN.md): commit the delta result
         only when it touches nothing but the changed app.  A run that
         would repair any *other* app falls back to whole-policy
         reconciliation from the originals, which computes the exact
         fixed point (delta evaluates others at their published values
         and so cannot re-expand a previously tightened manifest). *)
      let cross_repair =
        List.exists
          (fun (name, m) ->
            name <> app
            &&
            match List.assoc_opt name others with
            | Some cur -> not (Perm.equal cur m)
            | None -> true)
          report.Reconcile.manifests
      in
      if cross_repair then full ()
      else begin
        Atomic.incr t.delta_runs;
        (policy', report, true)
      end

let verify_stage t stages policy' report () =
  Faults.point Faults.Swap_verify;
  let cert = Verify.verify_report ?limits:t.limits policy' report in
  (* Advisory: record the certificate's least-repair dimension as a
     zero-duration pseudo-stage, so the transaction span (and the
     lat:stage:* histograms behind it) names whether this commit's
     truncations were provably minimal — even when the stage then
     fails on the verdict. *)
  stages := ("verify:minimality:" ^ Verify.minimality_label cert, 0.) :: !stages;
  match cert.Verify.verdict with
  | Verify.Certified -> ()
  | Verify.Refuted ces ->
    failwith
      (Printf.sprintf "certificate refuted (%d counterexample%s)"
         (List.length ces)
         (if List.length ces = 1 then "" else "s"))
  | Verify.Unverified _ -> ()

(* Build the records for every app whose manifest the transaction
   publishes.  Nothing shared is touched: a failure here (including an
   injected [Swap_compile] fault) aborts with all slots intact. *)
let compile_stage t ~next_epoch to_publish () =
  List.map
    (fun (name, manifest) ->
      Faults.point Faults.Swap_compile;
      let engine = Engine.create ?topo:t.topo ~app_name:name manifest in
      (match List.assoc_opt name t.bindings with
      | Some (dataplane, cookie) -> Engine.bind engine dataplane ~cookie
      | None -> ());
      ( name,
        Active
          { epoch = next_epoch; app = name; manifest; engine;
            checker = Engine.checker engine } ))
    to_publish

(* Swap the prepared slots in, keeping an undo list: a fault mid-way
   (site [Swap_publish], armed before *each* swap) restores every
   already-swapped slot, so the commit is all-or-nothing.  The global
   epoch only advances after the last swap.  The undo walk is timed
   into a ["rollback-undo"] stage entry so a rolled-back transaction's
   span accounts for the restore, not just the stages that ran. *)
let publish_stage t ~next_epoch ~stages entries () =
  let swapped = ref [] in
  (try
     List.iter
       (fun (cell, slot) ->
         Faults.point Faults.Swap_publish;
         let old = Atomic.exchange cell slot in
         swapped := (cell, old) :: !swapped)
       entries
   with exn ->
     let u0 = Metrics.now () in
     List.iter (fun (cell, old) -> Atomic.set cell old) !swapped;
     stages := ("rollback-undo", Metrics.now () -. u0) :: !stages;
     raise exn);
  Atomic.set t.epoch_counter next_epoch

let republished ~app records =
  List.filter_map
    (fun (name, _) -> if name = app then None else Some name)
    records
  |> List.sort compare

(* The tail every lifecycle transaction shares: verify the reconciled
   result, compile the records it publishes, swap them in and commit.
   [admitted] is the vetted manifest of an install or upgrade, [None]
   for a revoke.  The changed app republishes unless revoked, when its
   slot goes [Absent] instead; every other live app republishes exactly
   when its reconciled manifest moved. *)
let commit t stages ~app ~admitted (policy', report, delta) =
  stage stages "verify" (verify_stage t stages policy' report);
  let next_epoch = Atomic.get t.epoch_counter + 1 in
  let to_publish =
    List.filter
      (fun (name, m) ->
        if name = app then Option.is_some admitted
        else
          match List.assoc_opt name (published t) with
          | Some cur -> not (Perm.equal cur m)
          | None -> false (* not live: nothing to republish *))
      report.Reconcile.manifests
  in
  let records = stage stages "compile" (compile_stage t ~next_epoch to_publish) in
  let entries = List.map (fun (name, s) -> (slot_cell_locked t name, s)) records in
  let entries =
    match admitted with
    | Some _ -> entries
    | None ->
      (slot_cell_locked t app, Absent { epoch = next_epoch; reason = "revoked" })
      :: entries
  in
  stage stages "publish" (publish_stage t ~next_epoch ~stages entries);
  let others = List.remove_assoc app t.originals in
  t.originals <-
    (match admitted with Some m -> (app, m) :: others | None -> others);
  Market.Committed
    { epoch = next_epoch; delta; republished = republished ~app records;
      stages = List.rev !stages }

(* Install / upgrade. *)
let apply_admit t ~upgrade ~app ~src stages =
  let manifest =
    stage stages "vet" (fun () ->
        (match (upgrade, List.mem_assoc app t.originals) with
        | false, true -> failwith ("already installed: " ^ app)
        | true, false -> failwith ("not installed: " ^ app)
        | _ -> ());
        match Vetting.vet_manifest ?limits:t.limits src with
        | Vetting.Rejected r ->
          failwith
            (Printf.sprintf "manifest rejected at %s: %s" r.Vetting.stage
               r.reason)
        | Vetting.Admitted m | Vetting.Degraded (m, _) -> m)
  in
  let ((_, report, _) as reconciled) =
    stage stages "reconcile" (fun () ->
        let ((_, report, _) as r) =
          reconcile_stage t ~app ~changed:(Some (app, manifest)) ()
        in
        (match List.assoc_opt app report.Reconcile.unresolved_macros with
        | Some (_ :: _ as stubs) ->
          failwith ("unresolved developer stubs: " ^ String.concat ", " stubs)
        | _ -> ());
        r)
  in
  (* The admission's one lint run, over the manifest it publishes.
     Advisory: findings never block the commit, but the stage is timed
     and the findings feed the [lint-*] counters. *)
  let _findings =
    stage stages "lint" (fun () ->
        Lint.lint_manifest ?limits:t.limits ~label:("app " ^ app)
          (List.assoc app report.Reconcile.manifests))
  in
  commit t stages ~app ~admitted:(Some manifest) reconciled

(* Revoke: publish a fail-closed [Absent] slot for the app (in-flight
   calls finish on the old record they already hold) and re-reconcile
   the survivors — bounds that referenced the revoked app's manifest
   now resolve it to the empty manifest. *)
let apply_revoke t ~app stages =
  stage stages "vet" (fun () ->
      if not (List.mem_assoc app t.originals) then
        failwith ("not installed: " ^ app));
  commit t stages ~app ~admitted:None
    (stage stages "reconcile" (reconcile_stage t ~app ~changed:None))

let apply t (req : Market.request) : Market.outcome =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let stages = ref [] in
      try
        match req.Market.kind with
        | Market.Install ->
          apply_admit t ~upgrade:false ~app:req.Market.app
            ~src:req.Market.manifest_src stages
        | Market.Upgrade ->
          apply_admit t ~upgrade:true ~app:req.Market.app
            ~src:req.Market.manifest_src stages
        | Market.Revoke -> apply_revoke t ~app:req.Market.app stages
      with Stage_failed { stage; reason } ->
        Market.Rolled_back
          { stage; reason; epoch = Atomic.get t.epoch_counter;
            stages = List.rev !stages })

let market ?sandbox ?trace ?health ?flight t =
  Market.create ?sandbox ?trace ?health ?flight ~exec:(apply t) ()

(* Invariants --------------------------------------------------------------- *)

let consistent t =
  let g = Atomic.get t.epoch_counter in
  let slots = Atomic.get t.slots in
  let records_ok =
    List.for_all
      (fun (name, c) ->
        match Atomic.get c with
        | Absent { epoch; _ } -> epoch >= 0 && epoch <= g
        | Active r ->
          r.epoch > 0 && r.epoch <= g && r.app = name
          && Perm.macros r.manifest = [])
      slots
  in
  let live =
    List.filter_map
      (fun (name, c) ->
        match Atomic.get c with Active _ -> Some name | Absent _ -> None)
      slots
    |> List.sort compare
  in
  let installed = List.sort compare (List.map fst t.originals) in
  records_ok && live = installed
