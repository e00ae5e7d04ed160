(** Latency/throughput measurement and the process-wide observability
    registries.

    Three layers, from exact to constant-memory:

    - {!t} records every sample (growable array behind a mutex) and
      {!summarize} computes exact percentiles — right for bounded
      benchmark runs (the paper's Figures 6–8 medians with 10/90
      error bars);
    - {!Histogram} is the bounded log-linear companion for long-running
      processes: constant memory, 6.25% relative resolution over
      1µs–10s, mergeable across domains;
    - the registries ({!counter}, {!register_gauge}, {!hist}) are how
      producers all over the process surface monotone counts, levels
      and latency histograms to {!Telemetry} without dependency
      cycles.

    All timing uses {!now}, a monotonic clock: wall-clock steps cannot
    produce negative spans. *)

val now : unit -> float
(** Monotonic time in seconds (CLOCK_MONOTONIC).  The epoch is
    arbitrary: only differences are meaningful, and they are
    non-negative for causally ordered reads.  Never compare against
    [Unix.gettimeofday]. *)

(** {1 Exact sample sets} *)

type t
(** A thread-safe growable set of float samples (seconds). *)

val create : unit -> t

val record : t -> float -> unit
(** O(1) amortised; safe from any thread or domain. *)

val count : t -> int

val samples : t -> float list
(** A consistent copy of the recorded samples, in {b recording order}
    (oldest first).  Historical note: the original list-backed
    implementation returned newest-first; recording order is now the
    contract. *)

val percentile_sorted : float -> float array -> float
(** [percentile_sorted p arr] with [arr] ascending and [p] in [0,100],
    by linear interpolation between the two closest ranks (NumPy
    "linear", NOT nearest-rank: p50 of [[|1.; 2.|]] is 1.5).

    NaN behaviour: the empty array yields [nan]; a single sample is
    returned for every [p]; if [arr] contains NaN the result is
    unspecified (sort order of NaN is total but meaningless — filter
    NaNs before calling). *)

val percentile : float -> float list -> float
(** List-based variant of {!percentile_sorted} for callers already
    holding a sorted list. *)

type summary = {
  n : int;
  median : float;
  p10 : float;
  p90 : float;
  mean : float;
  min : float;
  max : float;
}

val summarize : t -> summary
(** Exact summary of everything recorded so far.  With [n = 0] every
    float field is [nan] (check [n], not the floats: [nan <> nan]).
    Sorting uses [Float.compare] (monomorphic, total over NaN). *)

val summarize_list : float list -> summary

val time : t -> (unit -> 'a) -> 'a
(** Run the thunk, recording its duration on the monotonic clock. *)

(** {1 Bounded log-linear histograms} *)

(** Constant-memory latency histograms (HDR-histogram style): each
    power-of-two octave of 1µs..2{^24}µs (≈16.8s, covering the 10s
    design ceiling) splits into 16 linear sub-buckets, so relative
    resolution is 1/16 of an octave everywhere.  Samples below/above
    the range land in dedicated underflow/overflow cells and are
    answered from the exact observed min/max.  Histograms merge by
    adding counts — associative and commutative, so per-domain
    histograms fold in any order. *)
module Histogram : sig
  type t

  val sub : int
  (** Sub-buckets per octave (16): the relative bucket width is
      [1/sub] of an octave. *)

  val buckets : int
  (** In-range cell count. *)

  val create : unit -> t

  val record : t -> float -> unit
  (** Record a duration in seconds.  Negative and non-finite values
      count as underflow. *)

  val count : t -> int

  val merge : t -> t -> t
  (** Fresh histogram holding both datasets. *)

  val percentile : t -> float -> float
  (** Nearest-rank estimate: the representative (bucket midpoint,
      clamped into the observed [min..max]) of the bucket holding the
      ⌈p/100·n⌉-th smallest sample — within one bucket width of the
      exact nearest-rank sample by construction.  [nan] when empty;
      [p] is clamped to [0,100]. *)

  val bucket_index : float -> int
  (** [-1] = underflow, {!buckets} = overflow, else the in-range cell.
      Exposed for the accuracy property tests. *)

  val bucket_bounds : int -> float * float
  (** Closed-open [(lo, hi)] bounds of an in-range cell, seconds. *)

  val bucket_mid : int -> float

  (** Exporter snapshot: totals plus non-empty cells ascending. *)
  type export = {
    n : int;
    sum : float;
    min : float;  (** [nan] when empty. *)
    max : float;  (** [nan] when empty. *)
    underflow : int;
    overflow : int;
    cells : (float * float * int) list;  (** (lo, hi, count). *)
  }

  val export : t -> export
  val pp : Format.formatter -> t -> unit
end

(** {1 Registries}

    Three process-wide name tables, one per kind of reading, each
    snapshotted sorted by name.  A count that only grows is a
    {e counter}, never a gauge: exporters type it as one (a Prometheus
    [counter] family ending [_total]).  A gauge is a level that can go
    down again — a queue's depth — with its high-water mark. *)

val counter : string -> int Atomic.t
(** The counter registered under [name], created at zero on first use
    (so instrumentation sites need no setup order).  Count with
    [Atomic.incr]; resolve the name once where the count is hot. *)

val register_counter : string -> int Atomic.t -> unit
(** Register (or replace) a count an object owns — a market's commits,
    an epoch deployment's reconcile runs — under a fixed name.
    Re-registration replaces, so sequential owners do not grow the
    registry; {!unregister_counter} at shutdown keeps reports scoped to
    live owners. *)

val unregister_counter : string -> unit

val counter_report : unit -> (string * int) list
(** Every registered counter's current value, sorted by name. *)

type gauge = {
  depth : int;  (** Current level. *)
  hwm : int;  (** High-water mark since creation. *)
}

val register_gauge : string -> (unit -> gauge) -> unit
(** Register (or replace) the reading source for gauge [name]; it is
    called outside the registry's lock at every report. *)

val unregister_gauge : string -> unit

val gauge_report : unit -> (string * gauge) list
(** Snapshot every registered gauge, sorted by name. *)

val hist : string -> Histogram.t
(** The histogram registered under [name], created empty on first use
    (so instrumentation sites need no setup order). *)

val unregister_hist : string -> unit

val hist_report : unit -> (string * Histogram.t) list
(** Every registered histogram, sorted by name. *)
