(* Market tests: the generic controller-side half of the live-update
   subsystem (docs/CHURN.md).  The executor here is a toy — the full
   staged pipeline is exercised in test_epoch.ml — so these tests pin
   the market's own contract: serialization, the ledger,
   commit/rollback accounting, the exception barrier, audit
   notifications and shutdown semantics. *)

open Shield_controller

let commit epoch =
  Market.Committed { epoch; delta = false; republished = []; stages = [] }

(* Four domains submit at once.  The executor is race-detectable: two
   transactions inside it at the same time would both see [inside]
   raised.  The ledger must hold every submission once, ids 1..n in
   ledger order, in the order the executor ran them. *)
let test_concurrent_submitters () =
  let submitters = 4 and per_submitter = 10 in
  let inside = Atomic.make 0 and overlapped = Atomic.make false in
  let ran = ref [] in
  let exec (req : Market.request) =
    if Atomic.fetch_and_add inside 1 > 0 then Atomic.set overlapped true;
    ran := req.Market.app :: !ran;
    for _ = 1 to 1_000 do Domain.cpu_relax () done;
    Atomic.decr inside;
    commit (List.length !ran)
  in
  let m = Market.create ~exec () in
  let domains =
    List.init submitters (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_submitter do
              ignore (Market.submit m (Market.install (Printf.sprintf "%d-%d" d i) ""))
            done))
  in
  List.iter Domain.join domains;
  let n = submitters * per_submitter in
  Alcotest.(check bool) "executor calls never overlapped" false
    (Atomic.get overlapped);
  let h = Market.history m in
  Alcotest.(check (list int)) "ids 1..n in ledger order"
    (List.init n (fun i -> i + 1))
    (List.map (fun (t : Market.txn) -> t.Market.id) h);
  let apps = List.map (fun (t : Market.txn) -> t.Market.request.Market.app) h in
  Alcotest.(check (list string)) "the ledger is the order the executor ran"
    (List.rev !ran) apps;
  Alcotest.(check (list string)) "every submission landed once"
    (List.sort compare
       (List.concat
          (List.init submitters (fun d ->
               List.init per_submitter (fun i -> Printf.sprintf "%d-%d" d (i + 1))))))
    (List.sort compare apps);
  Alcotest.(check int) "all committed" n (Market.stats m).Market.commits;
  Market.shutdown m;
  match Market.submit m (Market.install "late" "") with
  | Market.Rolled_back { stage; _ } ->
    Alcotest.(check string) "a submit after shutdown is refused at the queue"
      "queue" stage;
    Alcotest.(check (list int)) "the refusal lands in the ledger with the next id"
      [ n + 1 ]
      (List.filter_map
         (fun (t : Market.txn) ->
           if t.Market.request.Market.app = "late" then Some t.Market.id
           else None)
         (Market.history m))
  | Market.Committed _ -> Alcotest.fail "submit after shutdown must refuse"

let test_stats_and_outcomes () =
  let exec (req : Market.request) =
    match req.Market.kind with
    | Market.Install -> commit 1
    | Market.Upgrade ->
      Market.Rolled_back { stage = "verify"; reason = "refuted"; epoch = 1; stages = [] }
    | Market.Revoke -> failwith "executor crashed"
  in
  let m = Market.create ~exec () in
  Alcotest.(check bool) "install commits" true
    (Market.committed (Market.submit m (Market.install "a" "")));
  (match Market.submit m (Market.upgrade "a" "") with
  | Market.Rolled_back { stage; epoch; _ } ->
    Alcotest.(check string) "stage reported" "verify" stage;
    Alcotest.(check int) "pre-transaction epoch reported" 1 epoch
  | Market.Committed _ -> Alcotest.fail "expected rollback");
  (* The market's exception barrier: a raising executor is contained as
     a stage-"apply" rollback and the market keeps serving. *)
  (match Market.submit m (Market.revoke "a") with
  | Market.Rolled_back { stage; _ } ->
    Alcotest.(check string) "barrier stage" "apply" stage
  | Market.Committed _ -> Alcotest.fail "expected contained crash");
  Alcotest.(check bool) "the market survived the crash" true
    (Market.committed (Market.submit m (Market.install "b" "")));
  let s = Market.stats m in
  Alcotest.(check int) "submitted" 4 s.Market.submitted;
  Alcotest.(check int) "commits" 2 s.Market.commits;
  Alcotest.(check int) "rollbacks" 2 s.Market.rollbacks;
  Market.shutdown m

let test_audit_notifications () =
  let sandbox = Sandbox.create () in
  let exec (req : Market.request) =
    if req.Market.kind = Market.Revoke then
      Market.Rolled_back { stage = "publish"; reason = "injected"; epoch = 3; stages = [] }
    else commit 4
  in
  let m = Market.create ~sandbox ~exec () in
  ignore (Market.submit m (Market.install "good" ""));
  ignore (Market.submit m (Market.revoke "bad"));
  Market.shutdown m;
  let log = Sandbox.audit_log sandbox in
  let find action =
    List.find_opt (fun (e : Sandbox.audit_entry) -> e.Sandbox.action = action) log
  in
  (match find "market-commit" with
  | Some e -> Alcotest.(check bool) "commit audited as allowed" true e.Sandbox.allowed
  | None -> Alcotest.fail "no market-commit audit entry");
  (match find "market-rollback" with
  | Some e ->
    Alcotest.(check bool) "rollback audited as denied" false e.Sandbox.allowed;
    Alcotest.(check string) "attributed to the app" "bad" e.Sandbox.app_name
  | None -> Alcotest.fail "no market-rollback audit entry");
  (* The rollback notification is part of the forensic fault log. *)
  Alcotest.(check bool) "forensics surfaces the rollback" true
    (List.exists
       (fun (e : Sandbox.audit_entry) -> e.Sandbox.action = "market-rollback")
       (Forensics.fault_log sandbox))

let test_shutdown_semantics () =
  let m = Market.create ~exec:(fun _ -> commit 1) () in
  ignore (Market.submit m (Market.install "a" ""));
  Market.shutdown m;
  Market.shutdown m (* idempotent *);
  match Market.submit m (Market.install "b" "") with
  | Market.Rolled_back { stage; _ } ->
    Alcotest.(check string) "refused at the queue" "queue" stage;
    Alcotest.(check int) "refusal not in stats as submitted-lost" 2
      (Market.stats m).Market.submitted
  | Market.Committed _ -> Alcotest.fail "submit after shutdown must refuse"

(* The transaction span is built only for a trace store or a flight
   recorder; a market wired to a health monitor alone must still feed
   it every rollback and stage latency. *)
let test_health_alone () =
  let health = Health.create () in
  let exec (req : Market.request) =
    match req.Market.kind with
    | Market.Install ->
      Market.Committed
        { epoch = 1; delta = false; republished = [];
          stages = [ ("vet", 0.002); ("publish", 0.001) ] }
    | _ ->
      Market.Rolled_back
        { stage = "verify"; reason = "refuted"; epoch = 1;
          stages = [ ("vet", 0.001); ("verify", 0.004) ] }
  in
  let m = Market.create ~health ~exec () in
  ignore (Market.submit m (Market.install "a" ""));
  ignore (Market.submit m (Market.upgrade "a" ""));
  ignore (Market.submit m (Market.revoke "a"));
  Market.shutdown m;
  let totals = (Health.verdict health).Health.totals in
  Alcotest.(check (float 0.)) "both rollbacks recorded" 2.
    (List.assoc "rollbacks" totals);
  Alcotest.(check (float 1e-12)) "the slowest stage recorded" 0.004
    (List.assoc "stage-max-s" totals)

let suite =
  [ Alcotest.test_case "concurrent submitters, one ledger" `Quick
      test_concurrent_submitters;
    Alcotest.test_case "stats and outcome reporting" `Quick
      test_stats_and_outcomes;
    Alcotest.test_case "audit notifications" `Quick test_audit_notifications;
    Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
    Alcotest.test_case "health alone sees rollbacks and stages" `Quick
      test_health_alone ]
