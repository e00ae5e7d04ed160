(** Unified telemetry export (docs/OBSERVABILITY.md).

    {!snapshot} gathers one consistent view of everything the process
    measures — the {!Metrics} counter/gauge/histogram registries, plus
    caller-supplied runtime counters and a {!Trace} store — and renders
    it as JSON ({!to_json}) or Prometheus text exposition format
    ({!to_prometheus}).  [Runtime.telemetry] is the usual entry point;
    this module itself never depends on the runtime. *)

type snapshot = {
  counters : (string * int) list;
      (** Caller-supplied monotone counters, in the caller's order. *)
  registry_counters : (string * int) list;
      (** The {!Metrics} counter registry, sorted by name. *)
  histograms : (string * Metrics.Histogram.export) list;
  gauges : (string * Metrics.gauge) list;
  trace : Trace.stats option;
  health : Health.verdict option;
      (** The sliding-window monitor's judgment at snapshot time. *)
}

val snapshot :
  ?counters:(string * int) list ->
  ?trace:Trace.t ->
  ?health:Health.t ->
  unit ->
  snapshot
(** Read the {!Metrics} registries now.  Each entry is internally
    consistent; the snapshot as a whole is not a stop-the-world cut. *)

(** A minimal JSON value — writer and parser — so round-trips are
    testable without external dependencies.  Non-finite floats
    serialize as [null]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** Parses what {!to_string} emits (and ordinary JSON: whitespace,
      escapes; [\u] escapes outside ASCII are kept verbatim). *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] otherwise. *)
end

val to_json_value : snapshot -> Json.t
val to_json : snapshot -> string

val to_prometheus : snapshot -> string
(** Text exposition format 0.0.4: runtime and registry counters as
    [sdnshield_<name>_total] counter families (the name's [-] and [:]
    turned to [_]), queue gauges ([queue:*]) as
    [sdnshield_queue_depth] / [_high_water] with the registry name in
    the [queue] label, any other gauge as [sdnshield_<name>],
    histograms as cumulative [sdnshield_latency_seconds] bucket series
    (registry names in the [stage] label), trace accounting as
    [sdnshield_trace_spans_total] / [sdnshield_trace_txn_spans_total]
    counters by state with [_stored] gauges beside them, and the
    health verdict as [sdnshield_health_status] (0/1/2),
    [sdnshield_health_window_seconds],
    [sdnshield_health_signal{signal=…}] and, for crossed rules,
    [sdnshield_health_cause_level{signal=…}]. *)

val validate_prometheus : string -> (unit, string) result
(** Shape-check exposition text: every non-comment line must be
    [name[{labels}] value] with a parseable value, and every sample
    must belong to a preceding [# TYPE] family — exactly for counters
    and gauges, via the [_bucket]/[_sum]/[_count] suffixes for
    histograms.  Counter families must end [_total], gauge families
    must not, and [sdnshield_health_status] must read 0, 1 or 2.
    Used by the obs-smoke and health-smoke gates; not a full scrape
    parser. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable report (what [Runtime.pp_report] prints). *)
