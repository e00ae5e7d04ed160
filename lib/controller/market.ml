(* The app-market update ledger (docs/CHURN.md).

   Lifecycle requests (install / upgrade / revoke) run one at a time,
   each as one staged transaction via the pluggable executor, in the
   submitting thread under the market's mutex.  The module is
   deliberately generic — requests are app names and manifest source
   text, outcomes are epoch numbers — so the controller library stays
   independent of the SDNShield core, exactly as [Runtime] is generic
   over [Api.checker].  The core-side half ([Sdnshield.Epoch]) supplies
   the executor and the epoch stores it publishes into.

   Serialization is the point, not a limitation: with one writer, the
   executor's prepare-then-swap publication needs no cross-transaction
   locking, and the rollback invariant ("the deployment is always on
   exactly the pre- or the post-transaction epoch") has a single
   writer to reason about. *)

type kind = Install | Upgrade | Revoke

let kind_to_string = function
  | Install -> "install"
  | Upgrade -> "upgrade"
  | Revoke -> "revoke"

type request = { kind : kind; app : string; manifest_src : string }

let install app manifest_src = { kind = Install; app; manifest_src }
let upgrade app manifest_src = { kind = Upgrade; app; manifest_src }
let revoke app = { kind = Revoke; app; manifest_src = "" }

type outcome =
  | Committed of {
      epoch : int;
      delta : bool;
      republished : string list;
      stages : (string * float) list;
    }
  | Rolled_back of {
      stage : string;
      reason : string;
      epoch : int;
      stages : (string * float) list;
    }

let committed = function Committed _ -> true | Rolled_back _ -> false

let stages_of = function
  | Committed { stages; _ } | Rolled_back { stages; _ } -> stages

type txn = { id : int; request : request; outcome : outcome }

type stats = { submitted : int; commits : int; rollbacks : int }

type t = {
  exec : request -> outcome;
  sandbox : Sandbox.t option;
  trace : Trace.t option;
      (** Transaction spans land here (docs/OBSERVABILITY.md), along
          with the [lat:stage:*] histograms. *)
  health : Health.t option;  (** Rollbacks and stage latencies feed it. *)
  flight : Forensics.Flight.t option;
      (** Commit boundaries and rollback captures. *)
  mutex : Mutex.t;
      (** Held for a whole transaction: serializes them, and guards
          [shut].  [ledger] and [submitted] are written under it and
          read without it, so a reader never waits for an admission. *)
  ledger : txn list Atomic.t;  (** Newest first. *)
  submitted : int Atomic.t;  (** Also the last id handed out. *)
  commits : int Atomic.t;
  rollbacks : int Atomic.t;
  mutable shut : bool;
}

(* Counter names are fixed: one market per process is the deployment
   shape, and registration replaces, so sequential markets — the bench
   pattern — don't grow the registry. *)
let counters = [ "market:committed"; "market:rolled-back" ]

let audit t (req : request) (outcome : outcome) =
  match t.sandbox with
  | None -> ()
  | Some sandbox -> (
    let subject = kind_to_string req.kind ^ " " ^ req.app in
    match outcome with
    | Committed { epoch; delta; republished; _ } ->
      Sandbox.record_audit sandbox ~app:req.app ~action:"market-commit"
        ~allowed:true
        ~detail:
          (Printf.sprintf "%s -> epoch %d%s%s" subject epoch
             (if delta then " (delta)" else "")
             (match republished with
             | [] -> ""
             | apps -> " republished " ^ String.concat "," apps))
    | Rolled_back { stage; reason; epoch; _ } ->
      (* Fail-closed notification (docs/CHURN.md): the app was denied
         admission; forensics surfaces these via [fault_actions]. *)
      Sandbox.record_audit sandbox ~app:req.app ~action:"market-rollback"
        ~allowed:false
        ~detail:
          (Printf.sprintf "%s failed at %s (%s); still on epoch %d" subject
             stage reason epoch))

(* One parent transaction span per completed request.  Stage offsets
   are synthesized cumulatively from the measured durations (the
   executor times each stage; inter-stage overhead folds into the
   parent), so children sum to at most the parent total. *)
let txn_span_of id (req : request) outcome ~start ~dur : Trace.txn_span =
  let verdict, epoch_before, epoch_after =
    match outcome with
    | Committed { epoch; delta; republished; _ } ->
      (* The epoch counter advances by exactly one per commit
         (docs/CHURN.md), so the pre-transaction epoch is derivable. *)
      (Trace.Txn_committed { delta; republished }, epoch - 1, epoch)
    | Rolled_back { stage; reason; epoch; _ } ->
      (Trace.Txn_rolled_back { stage; reason }, epoch, epoch)
  in
  let _, rev_stages =
    List.fold_left
      (fun (off, acc) (stage, d) ->
        (off +. d, { Trace.stage; offset = off; dur = d } :: acc))
      (0., []) (stages_of outcome)
  in
  { Trace.tseq = 0; id; kind = kind_to_string req.kind; txn_app = req.app;
    verdict; epoch_before; epoch_after; txn_start = start; txn_total = dur;
    stages = List.rev rev_stages }

(* The span is built only for a consumer that takes it: the trace
   store, or the flight recorder's capture of a rollback. *)
let observe t id req outcome ~timing =
  let tspan =
    match timing with
    | Some (start, dur)
      when Option.is_some t.trace
           || (Option.is_some t.flight && not (committed outcome)) ->
      Some (txn_span_of id req outcome ~start ~dur)
    | _ -> None
  in
  (match (t.trace, tspan) with
  | Some tr, Some tspan ->
    Trace.record_txn tr tspan;
    List.iter
      (fun (stage, d) ->
        Metrics.Histogram.record (Metrics.hist ("lat:stage:" ^ stage)) d;
        match outcome with
        | Committed { delta; _ } when stage = "reconcile" ->
          Metrics.Histogram.record
            (Metrics.hist
               ("lat:stage:reconcile:" ^ if delta then "delta" else "full"))
            d
        | _ -> ())
      (stages_of outcome)
  | _ -> ());
  (match t.health with
  | Some h ->
    (match outcome with
    | Rolled_back _ -> Health.rollback h
    | Committed _ -> ());
    List.iter (fun (_, d) -> Health.stage_latency h d) (stages_of outcome)
  | None -> ());
  match t.flight with
  | None -> ()
  | Some fl -> (
    match outcome with
    | Committed { epoch; _ } -> Forensics.Flight.boundary fl ~epoch
    | Rolled_back { stage; reason; _ } ->
      ignore
        (Forensics.Flight.capture fl ?txn:tspan
           ~reason:
             (Printf.sprintf "txn %d (%s %s) rolled back at %s: %s" id
                (kind_to_string req.kind) req.app stage reason)
           ()))

let create ?sandbox ?trace ?health ?flight ~exec () : t =
  let t =
    { exec; sandbox; trace; health; flight; mutex = Mutex.create ();
      ledger = Atomic.make []; submitted = Atomic.make 0;
      commits = Atomic.make 0; rollbacks = Atomic.make 0; shut = false }
  in
  List.iter2 Metrics.register_counter counters [ t.commits; t.rollbacks ];
  t

let refused =
  Rolled_back
    { stage = "queue"; reason = "market shut down"; epoch = -1; stages = [] }

let submit t req =
  Mutex.protect t.mutex (fun () ->
      let id = Atomic.fetch_and_add t.submitted 1 + 1 in
      let outcome, timing =
        if t.shut then (refused, None)
        else
          let t0 = Metrics.now () in
          let outcome =
            (* The market's exception barrier: an executor that raises
               outside its own stage handling must not kill the market —
               the transaction reports as rolled back and the market
               keeps serving.  (Staged failures never get here: the
               executor converts them to [Rolled_back] itself, with the
               real stage and the still-current epoch.) *)
            try t.exec req
            with exn ->
              Rolled_back
                { stage = "apply"; reason = Printexc.to_string exn;
                  epoch = -1; stages = [] }
          in
          (outcome, Some (t0, Metrics.now () -. t0))
      in
      Atomic.incr (if committed outcome then t.commits else t.rollbacks);
      audit t req outcome;
      observe t id req outcome ~timing;
      Atomic.set t.ledger
        ({ id; request = req; outcome } :: Atomic.get t.ledger);
      outcome)

let history t = List.rev (Atomic.get t.ledger)

let stats t =
  { submitted = Atomic.get t.submitted; commits = Atomic.get t.commits;
    rollbacks = Atomic.get t.rollbacks }

let shutdown t =
  let first =
    Mutex.protect t.mutex (fun () ->
        let first = not t.shut in
        t.shut <- true;
        first)
  in
  if first then List.iter Metrics.unregister_counter counters

let pp_outcome ppf = function
  | Committed { epoch; delta; republished; stages } ->
    Fmt.pf ppf "committed epoch=%d%s%s (%a)" epoch
      (if delta then " delta" else "")
      (match republished with
      | [] -> ""
      | apps -> " republished=" ^ String.concat "," apps)
      Fmt.(list ~sep:(any " ") (fun ppf (s, d) -> pf ppf "%s:%.1fms" s (d *. 1e3)))
      stages
  | Rolled_back { stage; reason; epoch; stages } ->
    Fmt.pf ppf "ROLLED BACK at %s (%s); epoch=%d%s" stage reason epoch
      (match stages with
      | [] -> ""
      | stages ->
        Fmt.str " (%a)"
          Fmt.(
            list ~sep:(any " ") (fun ppf (s, d) ->
                pf ppf "%s:%.1fms" s (d *. 1e3)))
          stages)

let pp_txn ppf { id; request = { kind; app; _ }; outcome } =
  Fmt.pf ppf "#%d %s %s: %a" id (kind_to_string kind) app pp_outcome outcome
