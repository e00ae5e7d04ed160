(* The scenarios the smoke gates prove and the CLI demos show, each
   held once: the bench labs wrap a drill in their checks, volumes and
   JSON artifacts, the `sdnshield` demo commands in flag parsing and
   printing.  A change to a drill changes what both the gate and the
   demo run.

   - {e Fault run}: the supervised isolated runtime with the checker,
     kernel and deputy fault sites armed (`faults-smoke`,
     `sdnshield faults-demo`; docs/RUNTIME.md).
   - {e Traced calls}: an engine-guarded app whose every fourth call
     breaches its MAX_PRIORITY bound, so traces carry explained
     denials (`obs-smoke`, `sdnshield telemetry` and `timeline`).
   - {e Churn}: seeded lifecycle scripts through an epoch deployment's
     market, the epoch invariants checked after every transaction and
     only injected faults allowed to roll a valid entry back;
     observed, with a span trail, a manual-clock health monitor and a
     flight recorder (`market-smoke`, `health-smoke`, `sdnshield
     market-demo` and `health`; docs/CHURN.md, docs/OBSERVABILITY.md). *)

open Shield_openflow
open Shield_net
open Shield_controller
open Sdnshield

(** The [i]th packet-in of a run: switches 1–4 of a linear topology in
    turn. *)
let pkt_in i =
  Events.Packet_in
    { Message.dpid = 1 + (i mod 4); in_port = 1;
      packet = Packet.arp ~src:0xA ~dst:0xB (); reason = Message.No_match;
      buffer_id = None }

(** Feed [n] packet-ins and wait until every app has handled them. *)
let feed rt n =
  for i = 1 to n do
    Runtime.feed rt (pkt_in i)
  done;
  Runtime.drain rt

let linear_kernel () = Kernel.create (Dataplane.create (Topology.linear 4))

(* The checks below collect what they find with [flag]: newest first,
   reversed on return. *)
let flag found fmt = Printf.ksprintf (fun s -> found := s :: !found) fmt

(** [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Fault run ---------------------------------------------------------------- *)

let mode_name = function
  | Runtime.Monolithic -> "monolithic"
  | Runtime.Isolated { ksd_threads } ->
    Printf.sprintf "isolated (%d KSD threads)" ksd_threads

type fault_run = {
  mode : Runtime.mode;
  apps : int;
  events : int;  (** Packet-ins fed; every app subscribes to each. *)
  handled : int;  (** Handler invocations started. *)
  done_ : int;
  denied : int;
  failed : int;
  calls : int;
  denials : int;
  delivered : int;
  suppressed : int;
  report : Runtime.fault_report;
  injected : (string * int) list;  (** {!Faults.report} after the run. *)
  gauges : (string * Metrics.gauge) list;
  violations : string list;  (** Liveness invariants the run broke. *)
}

(** Drive [events] packet-ins through four apps under [mode] with
    the checker, kernel and deputy fault sites armed (schedule
    [seed]), and check the liveness invariants of docs/RUNTIME.md:
    every handled event's call got a reply (Done, Denied or Failed,
    including "deadline"), every dispatch was handled or suppressed,
    and killed deputies were restarted.  [drain] and [shutdown]
    returning is the fourth invariant. *)
let fault_run ~seed ~mode ~events =
  let apps = 4 in
  let handled = Atomic.make 0 and done_ = Atomic.make 0 in
  let denied = Atomic.make 0 and failed = Atomic.make 0 in
  (* Each app installs a small rotating set of flows, so the calls
     exercise the checker, the kernel and the reply path.  A reply is
     tallied the moment [ctx.call] returns, which the failure model
     guarantees it always does. *)
  let app i =
    App.make
      ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx ev ->
        match ev with
        | Events.Packet_in pi ->
          Atomic.incr handled;
          let fm =
            Flow_mod.add
              ~match_:
                (Match_fields.make
                   ~tp_dst:(1024 + ((Atomic.get handled + i) mod 64))
                   ())
              ~actions:[ Action.Output 1 ] ()
          in
          (match ctx.App.call (Api.Install_flow (pi.Message.dpid, fm)) with
          | Api.Denied _ -> Atomic.incr denied
          | Api.Failed _ -> Atomic.incr failed
          | _ -> Atomic.incr done_)
        | _ -> ())
      (Printf.sprintf "faulty-%d" i)
  in
  let config =
    { Runtime.default_config with
      Runtime.call_deadline = Some 0.1;
      restart_budget = 1_000;
      ev_capacity = Some 256;
      ev_policy = Channel.Block;
      req_capacity = Some 1_024 }
  in
  (* Checker faults also fire on the implicit Receive_event check, so
     a slice of events is suppressed fail-closed; the accounting below
     is per handled event, which stays exact. *)
  let pairs =
    List.init apps (fun i -> (app i, Faults.wrap_checker Api.allow_all))
  in
  Faults.reset_counts ();
  Faults.configure ~seed ~checker:0.02 ~kernel:0.02 ~deputy:0.002 ();
  let rt =
    Fun.protect ~finally:Faults.disarm (fun () ->
        let rt = Runtime.create ~config ~mode (linear_kernel ()) pairs in
        feed rt events;
        rt)
  in
  (* Faults disarmed: queue gauges and reports reflect the run. *)
  let gauges = Metrics.gauge_report () in
  let report = Runtime.fault_report rt in
  Runtime.shutdown rt;
  let calls, denials, delivered, suppressed = Runtime.stats rt in
  let handled = Atomic.get handled in
  let done_ = Atomic.get done_ and denied = Atomic.get denied in
  let failed = Atomic.get failed in
  let name = mode_name mode in
  let found = ref [] in
  if handled <> done_ + denied + failed then
    flag found "%s: %d handled events but %d replies — a call hung or was lost"
      name handled (done_ + denied + failed);
  if handled + suppressed < events * apps then
    flag found "%s: handled(%d) + suppressed(%d) < dispatched(%d)" name handled
      suppressed (events * apps);
  if Faults.injected Faults.Deputy > 0 && report.Runtime.restarts = 0 then
    flag found "%s: deputies were killed but never restarted" name;
  { mode; apps; events; handled; done_; denied; failed; calls; denials;
    delivered; suppressed; report; injected = Faults.report (); gauges;
    violations = List.rev !found }

let pp_fault_run ppf r =
  Fmt.pf ppf "events fed: %d x %d apps; delivered=%d suppressed=%d@." r.events
    r.apps r.delivered r.suppressed;
  Fmt.pf ppf
    "handled=%d replies: done=%d denied=%d failed=%d (runtime: calls=%d \
     denials=%d)@."
    r.handled r.done_ r.denied r.failed r.calls r.denials;
  Runtime.pp_fault_report ppf r.report;
  List.iter
    (fun (name, n) -> Fmt.pf ppf "faults injected: %-12s %d@." name n)
    r.injected;
  List.iter
    (fun (name, g) ->
      Fmt.pf ppf "%-24s depth=%d high-water=%d@." name g.Metrics.depth
        g.Metrics.hwm)
    r.gauges

(* Traced calls ------------------------------------------------------------- *)

(* MAX_PRIORITY 400 makes every fourth call (priority 1000) a denial,
   so traces carry explained denials. *)
let calls_manifest =
  "PERM insert_flow LIMITING MAX_PRIORITY 400 AND OWN_FLOWS\n\
   PERM pkt_in_event\nPERM read_payload"

(** A runtime in [mode] hosting one app [tag], guarded by an engine on
    {!calls_manifest}: on every packet-in it installs a flow, at a
    priority over the bound every fourth time.  [trace] and [health]
    go into the runtime's config. *)
let calls_runtime ?trace ?health ~mode ~tag () =
  let handled = ref 0 in
  let app =
    App.make
      ~subscriptions:[ Api.E_packet_in ]
      ~handle:(fun ctx ev ->
        match ev with
        | Events.Packet_in pi ->
          incr handled;
          let priority = if !handled mod 4 = 0 then 1_000 else 100 in
          let fm =
            Flow_mod.add ~priority
              ~match_:(Match_fields.make ~tp_dst:(1024 + (!handled mod 16)) ())
              ~actions:[ Action.Output 1 ] ()
          in
          ignore (ctx.App.call (Api.Install_flow (pi.Message.dpid, fm)))
        | _ -> ())
      tag
  in
  let engine =
    Engine.create
      ~ownership:(Ownership.create ())
      ~app_name:tag ~cookie:1
      (Perm_parser.manifest_exn calls_manifest)
  in
  let config = { Runtime.default_config with Runtime.trace; health } in
  Runtime.create ~config ~mode (linear_kernel ()) [ (app, Engine.checker engine) ]

(** [events] packet-ins through the app ["demo"] on an isolated
    runtime with two deputies, recording into [trace]; the runtime's
    telemetry snapshot once they are handled. *)
let traced_calls ~trace ?health ~events () =
  let rt =
    calls_runtime ~trace ?health
      ~mode:(Runtime.Isolated { ksd_threads = 2 })
      ~tag:"demo" ()
  in
  feed rt events;
  let snap = Runtime.telemetry rt in
  Runtime.shutdown rt;
  snap

(* Churn -------------------------------------------------------------------- *)

(** An epoch deployment behind its market. *)
type market = {
  epoch : Epoch.t;
  queue : Market.t;
  mutable inconsistent : int list;
      (** Transactions after which {!Epoch.consistent} failed, newest
          first. *)
  mutable unexplained : string list;
      (** Valid entries that rolled back for a reason other than an
          injected fault, newest first. *)
}

(** A deployment of [policy] (default none) whose market is wired to
    whichever of [sandbox], [trace], [health] and [flight] are
    given. *)
let market ?(policy = "") ?sandbox ?trace ?health ?flight () =
  match Epoch.create ~policy () with
  | Error e -> failwith ("drill: policy rejected: " ^ e)
  | Ok epoch ->
    { epoch; queue = Epoch.market ?sandbox ?trace ?health ?flight epoch;
      inconsistent = []; unexplained = [] }

(** Submit one entry and return its outcome, checking the deployment's
    epoch invariants after the transaction and noting a valid entry
    that rolled back for any reason but an injected fault. *)
let submit_entry m (e : Churn_gen.entry) =
  let id = (Market.stats m.queue).Market.submitted + 1 in
  let outcome = Market.submit m.queue e.Churn_gen.request in
  if not (Epoch.consistent m.epoch) then m.inconsistent <- id :: m.inconsistent;
  (match outcome with
  | Market.Rolled_back { stage; reason; _ }
    when e.Churn_gen.valid
         && not (String.starts_with ~prefix:"injected fault at " reason) ->
    let req = e.Churn_gen.request in
    m.unexplained <-
      Printf.sprintf "valid txn %d (%s %s) rolled back at %s: %s" id
        (Market.kind_to_string req.Market.kind)
        req.Market.app stage reason
      :: m.unexplained
  | _ -> ());
  outcome

(** Submit [entries] one at a time, as {!submit_entry}. *)
let submit m entries = List.iter (fun e -> ignore (submit_entry m e)) entries

let live_apps m = List.map fst (Epoch.apps m.epoch)

(** [txns] transactions of [seed]'s script over [apps] apps, starting
    from the apps the deployment holds, an [invalid] fraction of them
    built to roll back.  When an injected fault rolls back a valid
    entry, the generator's model resyncs to the deployment, so later
    entries target the apps actually live. *)
let churn m ~seed ~apps ?(invalid = 0.) ~txns () =
  let gen =
    Churn_gen.create ~seed ~apps ~live:(live_apps m) ~invalid_fraction:invalid
      ()
  in
  for _ = 1 to txns do
    let e = Churn_gen.next gen in
    let committed = Market.committed (submit_entry m e) in
    if e.Churn_gen.valid && not committed then
      Churn_gen.resync gen (live_apps m)
  done

let close m =
  Market.shutdown m.queue;
  Epoch.close m.epoch

(** Run [f] with the mid-swap fault sites armed at the given
    probabilities (schedule [seed], injection counts reset), and
    disarm them after. *)
let with_swap_faults ~seed ~verify ~compile ~publish f =
  Faults.reset_counts ();
  Faults.configure ~seed ~swap_verify:verify ~swap_compile:compile
    ~swap_publish:publish ();
  Fun.protect ~finally:Faults.disarm f

(** The ledger's epoch trace: a commit advances the global epoch by
    exactly one, a rollback reports the unchanged pre-transaction
    epoch and names its failed stage. *)
let epoch_trace_violations (ledger : Market.txn list) =
  let found = ref [] in
  let fail fmt = flag found fmt in
  ignore
    (List.fold_left
       (fun prev (t : Market.txn) ->
         match t.Market.outcome with
         | Market.Committed { epoch; _ } ->
           if epoch <> prev + 1 then
             fail "txn %d committed epoch %d after epoch %d" t.Market.id epoch
               prev;
           epoch
         | Market.Rolled_back { stage; epoch; _ } ->
           if epoch <> prev then
             fail "txn %d rolled back (%s) but the epoch moved %d -> %d"
               t.Market.id stage prev epoch;
           if stage = "" then fail "txn %d rollback names no stage" t.Market.id;
           prev)
       0 ledger);
  List.rev !found

(** The span trail is the ledger re-derived from the trace ring: the
    same transactions, each with the same commit or rollback verdict,
    the same failed stage and the same epoch. *)
let span_trail_mismatches trace (ledger : Market.txn list) =
  let trail = Trace.txn_spans trace in
  let by_id = Hashtbl.create (List.length trail) in
  List.iter (fun (s : Trace.txn_span) -> Hashtbl.replace by_id s.Trace.id s) trail;
  let length =
    if List.length trail <> List.length ledger then
      [ Printf.sprintf "span trail has %d entries, ledger %d"
          (List.length trail) (List.length ledger) ]
    else []
  in
  length
  @ List.filter_map
      (fun (txn : Market.txn) ->
        let id = txn.Market.id in
        match Hashtbl.find_opt by_id id with
        | None -> Some (Printf.sprintf "transaction %d has no span" id)
        | Some s -> (
          match (txn.Market.outcome, s.Trace.verdict) with
          | Market.Committed { epoch; _ }, Trace.Txn_committed _ ->
            if s.Trace.epoch_after <> epoch then
              Some
                (Printf.sprintf "txn %d: span epoch %d <> ledger epoch %d" id
                   s.Trace.epoch_after epoch)
            else None
          | Market.Rolled_back { stage; _ }, Trace.Txn_rolled_back v ->
            if v.stage <> stage then
              Some
                (Printf.sprintf "txn %d: span stage %s <> ledger stage %s" id
                   v.stage stage)
            else None
          | _ ->
            Some
              (Printf.sprintf
                 "txn %d: span and ledger disagree on commit/rollback" id)))
      ledger

(* Observed churn ------------------------------------------------------------ *)

(** A market wired to a sandbox, a span store, a health monitor on a
    manual clock and a flight recorder, with the fault sites' observer
    feeding the monitor. *)
type observed = {
  market : market;
  trace : Trace.t;
  sandbox : Sandbox.t;
  clock : float ref;  (** The health monitor's clock. *)
  health : Health.t;
  flight : Forensics.Flight.t;
}

(** [flight_capacity] bounds the bundles the recorder keeps (default
    16). *)
let observe ?flight_capacity trace =
  let clock = ref 0. in
  let health = Health.create ~clock:(fun () -> !clock) () in
  let flight = Forensics.Flight.create ?capacity:flight_capacity ~trace () in
  let sandbox = Sandbox.create () in
  Faults.set_observer (fun _ -> Health.fault health);
  { market = market ~sandbox ~trace ~health ~flight (); trace; sandbox; clock;
    health; flight }

(** Move the monitor's clock past its window: every incident so far
    ages out. *)
let slide o = o.clock := !(o.clock) +. Health.window o.health +. 1.

(** The swap fault rate of a faulted health phase, at every swap
    site. *)
let incident_rate = 0.08

(** One health phase: [txns] transactions of [seed]'s script, all
    valid; with [faulted], the swap sites armed at {!incident_rate}
    under schedule [seed].  Returns the verdict after it.  Only an
    injected fault may roll a transaction back ({!violations}). *)
let phase o ?(faulted = false) ~seed ~apps ~txns () =
  let run () = churn o.market ~seed ~apps ~txns () in
  if faulted then
    with_swap_faults ~seed ~verify:incident_rate ~compile:incident_rate
      ~publish:incident_rate run
  else run ();
  Health.verdict o.health

(** What an observed run whose armed faults fired must show: the
    verdict [during] the run is not healthy and names a [faults]
    cause; the verdict [after] the window slid past is healthy again;
    rollbacks left flight bundles, and each bundle holds a rolled-back
    transaction span whose failed stage its reason names. *)
let incident_violations o ~(during : Health.verdict) ~(after : Health.verdict) =
  let found = ref [] in
  let fail fmt = flag found fmt in
  if during.Health.status = Health.Healthy then
    fail "health stayed healthy under injected faults";
  if
    not
      (List.exists
         (fun (c : Health.cause) -> c.Health.cause_signal = "faults")
         during.Health.causes)
  then fail "the verdict under injected faults has no 'faults' cause";
  if after.Health.status <> Health.Healthy then
    fail "verdict still %s after the window slid past the faults"
      (Health.status_to_string after.Health.status);
  let rollbacks =
    List.length
      (List.filter
         (fun (txn : Market.txn) -> not (Market.committed txn.Market.outcome))
         (Market.history o.market.queue))
  in
  let bundles = Forensics.Flight.bundles o.flight in
  if bundles = [] && rollbacks > 0 then
    fail "%d rollbacks left no flight bundle" rollbacks;
  List.iter
    (fun (b : Forensics.Flight.bundle) ->
      match b.Forensics.Flight.txn with
      | None -> fail "flight bundle #%d has no transaction span" b.bseq
      | Some { Trace.verdict = Trace.Txn_committed _; _ } ->
        fail "flight bundle #%d captured a committed transaction" b.bseq
      | Some { Trace.verdict = Trace.Txn_rolled_back { stage; _ }; _ } ->
        if not (contains ~sub:stage b.Forensics.Flight.reason) then
          fail "bundle #%d reason %S does not name stage %s" b.bseq
            b.Forensics.Flight.reason stage)
    bundles;
  List.rev !found

(** Every check of an observed market's run but the incident's: the
    epoch invariants after each transaction, the ledger's epoch trace,
    the span trail, and no valid entry rolled back but by an injected
    fault. *)
let violations o =
  let ledger = Market.history o.market.queue in
  List.rev_map
    (Printf.sprintf "epoch invariants violated after transaction %d")
    o.market.inconsistent
  @ epoch_trace_violations ledger
  @ span_trail_mismatches o.trace ledger
  @ List.rev o.market.unexplained

let close_observed o =
  Faults.disarm ();
  Faults.clear_observer ();
  close o.market
