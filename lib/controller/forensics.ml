(* Forensic analysis over the reference monitor's activity logs.

   §VII (Scenario 2): even where permissions cannot block an action
   outright — a routing app must be able to insert rules — "SDNShield
   can provide activity logging, which enables forensic analysis after
   the attack happens."  The sandbox audit log and the kernel's
   per-app delivery counts are that activity record; this module is
   the analysis layer:

   - per-app activity summaries (calls, denials, syscalls, deliveries);
   - suspicion heuristics keyed to the four attack classes of §II;
   - an incident report combining both. *)

open Shield_openflow

type app_summary = {
  app : string;
  actions : int;
  denials : int;
  runtime_faults : int;
      (** Mediation-path failures attributed to this app's calls: deputy
          barrier conversions ("ksd-exception"), crashed handlers and
          observer faults.  High counts mark an app whose inputs keep
          tripping the enforcement machinery — a distinct signal from
          denials. *)
  net_connections : int;
  distinct_net_destinations : string list;
  packets_delivered : int;
  rst_packets_delivered : int;
}

(** Audit actions the fault-tolerance layer records (docs/RUNTIME.md):
    per-request barrier conversions, app handler crashes, observer
    faults, and deputy lifecycle events (the latter logged under the
    pseudo-app ["<ksd>"]).  The live-update market (docs/CHURN.md)
    adds ["market-rollback"]: a lifecycle transaction that failed
    mid-swap and was rolled back to the prior epoch — the fail-closed
    denial notification the churn pipeline owes forensics. *)
let fault_actions =
  [ "ksd-exception"; "handler-exception"; "observer-exception";
    "deputy-crash"; "deputy-retired"; "market-rollback" ]

let is_fault_entry (e : Sandbox.audit_entry) =
  List.mem e.Sandbox.action fault_actions

(** Every fault-class entry in the activity record, oldest first —
    the raw material for a post-incident runtime-health review. *)
let fault_log (sandbox : Sandbox.t) : Sandbox.audit_entry list =
  List.filter is_fault_entry (Sandbox.audit_log sandbox)

type suspicion = {
  suspect : string;
  attack_class : int;  (** Threat-model class (§II), 1-4. *)
  evidence : string;
}

let summarize_app ~(sandbox : Sandbox.t) ~(kernel : Kernel.t) app : app_summary
    =
  let audit =
    List.filter (fun (e : Sandbox.audit_entry) -> e.Sandbox.app_name = app)
      (Sandbox.audit_log sandbox)
  in
  let conns = Sandbox.connections_by sandbox ~app in
  let packets_delivered, rst_packets_delivered = Kernel.delivered kernel ~app in
  { app;
    actions = List.length audit;
    denials = List.length (List.filter (fun (e : Sandbox.audit_entry) -> not e.Sandbox.allowed) audit);
    runtime_faults = List.length (List.filter is_fault_entry audit);
    net_connections = List.length conns;
    distinct_net_destinations =
      List.sort_uniq compare
        (List.map
           (fun (r : Sandbox.net_record) -> Types.ipv4_to_string r.Sandbox.dst)
           conns);
    packets_delivered;
    rst_packets_delivered }

(** Heuristic indicators for the §II attack classes, evaluated over the
    activity record.  [allowed_destinations] is the administrator's
    collector allow-list for Class-2 analysis. *)
let suspicions ?(allowed_destinations = []) ~(sandbox : Sandbox.t)
    ~(kernel : Kernel.t) (apps : string list) : suspicion list =
  List.concat_map
    (fun app ->
      let s = summarize_app ~sandbox ~kernel app in
      let class1 =
        if s.rst_packets_delivered > 0 then
          [ { suspect = app; attack_class = 1;
              evidence =
                Printf.sprintf "%d TCP RST packet(s) injected into sessions"
                  s.rst_packets_delivered } ]
        else []
      in
      let class2 =
        let rogue =
          List.filter
            (fun dst -> not (List.mem dst allowed_destinations))
            s.distinct_net_destinations
        in
        if rogue <> [] then
          [ { suspect = app; attack_class = 2;
              evidence =
                "host-network connections to non-allowlisted destinations: "
                ^ String.concat ", " rogue } ]
        else []
      in
      let repeated_denials =
        (* Many denials = an app probing the boundary of its grants. *)
        if s.denials >= 3 then
          [ { suspect = app; attack_class = 3;
              evidence =
                Printf.sprintf
                  "%d denied actions (probing beyond granted permissions)"
                  s.denials } ]
        else []
      in
      class1 @ class2 @ repeated_denials)
    apps
  @
  (* Class 3/4 rule-level signatures come from the data-plane analyzer
     in Shield_apps.Defenses; here we surface cross-app shadowing from
     the audit trail: denied install_flow entries indicate attempted
     overrides when OWN_FLOWS gated them. *)
  List.filter_map
    (fun (e : Sandbox.audit_entry) ->
      if
        (not e.Sandbox.allowed)
        && String.length e.Sandbox.action >= 12
        && String.sub e.Sandbox.action 0 12 = "install_flow"
      then
        Some
          { suspect = e.Sandbox.app_name; attack_class = 4;
            evidence = "denied flow-mod: " ^ e.Sandbox.action }
      else None)
    (Sandbox.audit_log sandbox)

(* Flight recorder ------------------------------------------------------------

   Post-mortems should not need a re-run: when a lifecycle transaction
   rolls back (or a fault site trips), capture everything the process
   knows about the incident *now*, into a bounded {!Trace.ring}.  A
   bundle carries the transaction span (stage timings included), the
   last few call spans around the incident, and a diff of the
   telemetry snapshot against the last epoch boundary — what moved
   since the deployment was last known-good. *)

module Flight = struct
  type bundle = {
    bseq : int;  (** Monotone capture number. *)
    reason : string;
    txn : Trace.txn_span option;
        (** The failed transaction, with its stage spans. *)
    calls : Trace.span list;
        (** The most recent call spans at capture time (newest last). *)
    baseline_epoch : int;
        (** Epoch at the last {!boundary}; [-1] = never marked. *)
    diff : (string * float) list;
        (** Telemetry movement since the baseline: the registry
            counters, gauge depths and histogram sample counts that
            changed, as [(name, delta)]. *)
  }

  (* The call spans copied into each bundle. *)
  let calls_around = 8

  type t = {
    trace : Trace.t option;
    ring : bundle Trace.ring;
    mutable baseline : (int * Telemetry.snapshot) option;
    mutex : Mutex.t;  (** Guards [ring] and [baseline]. *)
  }

  (** [create ()] — a recorder keeping the last [capacity] (default
      16) incident bundles, each with the last 8 call spans.  [trace],
      when given, supplies both the surrounding call spans and (via the
      caller) transaction spans. *)
  let create ?(capacity = 16) ?trace () =
    if capacity <= 0 then
      invalid_arg "Flight.create: capacity must be > 0";
    { trace;
      ring = Trace.ring capacity;
      baseline = None;
      mutex = Mutex.create () }

  (** Mark an epoch boundary: the next captures diff against the
      telemetry snapshot taken here.  The market calls this after
      every commit, so a bundle's diff covers exactly the window since
      the last known-good epoch. *)
  let boundary t ~epoch =
    let snap = Telemetry.snapshot () in
    Mutex.lock t.mutex;
    t.baseline <- Some (epoch, snap);
    Mutex.unlock t.mutex

  (* What moved since the baseline snapshot: registry counters, gauge
     depths, histogram sample counts.  Counts only — the point is a
     small, skimmable "what changed" list, not a second snapshot. *)
  let snapshot_diff (old_s : Telemetry.snapshot) (new_s : Telemetry.snapshot)
      =
    let moved prefix now before =
      List.filter_map
        (fun (k, v) ->
          let d = v - Option.value ~default:0 (List.assoc_opt k before) in
          if d <> 0 then Some (prefix ^ k, float_of_int d) else None)
        now
    in
    let depths (s : Telemetry.snapshot) =
      List.map (fun (k, (g : Metrics.gauge)) -> (k, g.Metrics.depth)) s.gauges
    in
    let hist_counts (s : Telemetry.snapshot) =
      List.map
        (fun (k, (h : Metrics.Histogram.export)) ->
          (k ^ ":n", h.Metrics.Histogram.n))
        s.histograms
    in
    moved "counter:" new_s.registry_counters old_s.registry_counters
    @ moved "gauge:" (depths new_s) (depths old_s)
    @ moved "hist:" (hist_counts new_s) (hist_counts old_s)

  (** Capture an incident bundle now.  [txn], when given, is the
      rolled-back transaction's span. *)
  let capture t ?txn ~reason () =
    let now = Telemetry.snapshot () in
    let calls =
      match t.trace with
      | None -> []
      | Some tr ->
        let all = Trace.spans tr in
        let n = List.length all in
        if n <= calls_around then all
        else List.filteri (fun i _ -> i >= n - calls_around) all
    in
    Mutex.lock t.mutex;
    let baseline_epoch, diff =
      match t.baseline with
      | None -> (-1, [])
      | Some (epoch, snap) -> (epoch, snapshot_diff snap now)
    in
    let b =
      { bseq = t.ring.Trace.written; reason; txn; calls; baseline_epoch; diff }
    in
    Trace.push t.ring b;
    Mutex.unlock t.mutex;
    b

  (** Captured bundles, oldest first (bounded by the ring). *)
  let bundles t = Mutex.protect t.mutex (fun () -> Trace.contents t.ring)

  let captured t = Mutex.protect t.mutex (fun () -> t.ring.Trace.written)

  let pp_bundle ppf (b : bundle) =
    Fmt.pf ppf "@[<v>incident #%d: %s (baseline epoch %d)" b.bseq b.reason
      b.baseline_epoch;
    (match b.txn with
    | None -> ()
    | Some txn -> Fmt.pf ppf "@,  %a" Trace.pp_txn_span txn);
    List.iter (fun s -> Fmt.pf ppf "@,  call %a" Trace.pp_span s) b.calls;
    List.iter (fun (k, d) -> Fmt.pf ppf "@,  %+g %s" d k) b.diff;
    Fmt.pf ppf "@]"
end

(* Incident reports ---------------------------------------------------------- *)

type incident_report = {
  summaries : app_summary list;
  suspicions : suspicion list;
  faults : Sandbox.audit_entry list;
  explained_denials : Trace.span list;
      (** Denied spans from the trace store, each carrying the
          decision explanation (which token / filter clause denied) —
          the "why" the audit log's flat denial entries lack. *)
}

(** The full §VII analysis product: per-app summaries, the suspicion
    heuristics, the runtime-fault log, and — when the runtime ran with
    a trace store — every denied call with its decision explanation. *)
let incident_report ?allowed_destinations ?trace ~(sandbox : Sandbox.t)
    ~(kernel : Kernel.t) (apps : string list) : incident_report =
  { summaries = List.map (summarize_app ~sandbox ~kernel) apps;
    suspicions = suspicions ?allowed_destinations ~sandbox ~kernel apps;
    faults = fault_log sandbox;
    explained_denials =
      (match trace with
      | None -> []
      | Some tr ->
        List.filter
          (fun (s : Trace.span) -> s.Trace.decision = Trace.Denied)
          (Trace.spans tr)) }

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<h>%s: actions=%d denials=%d faults=%d net=%d(%d dsts) delivered=%d \
     rst=%d@]"
    s.app s.actions s.denials s.runtime_faults s.net_connections
    (List.length s.distinct_net_destinations)
    s.packets_delivered s.rst_packets_delivered

let pp_suspicion ppf s =
  Fmt.pf ppf "@[<h>[class %d] %s: %s@]" s.attack_class s.suspect s.evidence

let pp_incident_report ppf (r : incident_report) =
  Fmt.pf ppf "activity summaries:@.";
  List.iter (fun s -> Fmt.pf ppf "  %a@." pp_summary s) r.summaries;
  (match r.suspicions with
  | [] -> Fmt.pf ppf "no suspicions raised@."
  | ss ->
    Fmt.pf ppf "suspicions:@.";
    List.iter (fun s -> Fmt.pf ppf "  %a@." pp_suspicion s) ss);
  (match r.faults with
  | [] -> ()
  | faults ->
    Fmt.pf ppf "runtime faults (%d):@." (List.length faults);
    List.iter
      (fun (e : Sandbox.audit_entry) ->
        Fmt.pf ppf "  %s: %s (%s)@." e.Sandbox.app_name e.Sandbox.action
          e.Sandbox.detail)
      faults);
  match r.explained_denials with
  | [] -> ()
  | denials ->
    Fmt.pf ppf "explained denials (%d):@." (List.length denials);
    List.iter (fun s -> Fmt.pf ppf "  %a@." Trace.pp_span s) denials
