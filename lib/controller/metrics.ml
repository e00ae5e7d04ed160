(* Latency/throughput sample collection with percentile summaries, plus
   the process-wide registries of counters, gauges and histograms.

   The end-to-end experiments (Figures 6–8) report medians with 10/90
   percentile error bars; this module computes exactly those.  Samples
   live in a growable flat array behind the mutex, so recording is O(1)
   amortised with no per-sample allocation and summaries are one
   array copy + sort — no list-to-array conversions on the hot path
   under domain parallelism.

   The registries are how producers all over the process (the memo
   tables and admission stages in [lib/core], the runtimes, the
   market) surface what they count, what level their queues are at
   and how long their stages take to the telemetry exporters, without
   a dependency cycle. *)

(* Monotonic time -------------------------------------------------------- *)

(* All latency measurement in the runtime goes through [now]: a
   monotonic clock (CLOCK_MONOTONIC via the bechamel stub, already a
   build dependency of the bench harness) whose epoch is arbitrary but
   which never jumps backwards — an NTP step during a measured interval
   cannot produce a negative span.  Only durations ([now () -. start])
   are meaningful; never compare these values to wall-clock time. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  mutable buf : float array;  (** Seconds; first [count] slots valid. *)
  mutable count : int;
  mutex : Mutex.t;
}

let initial_capacity = 64

let create () =
  { buf = Array.make initial_capacity 0.; count = 0; mutex = Mutex.create () }

let record t v =
  Mutex.lock t.mutex;
  if t.count = Array.length t.buf then begin
    let bigger = Array.make (2 * Array.length t.buf) 0. in
    Array.blit t.buf 0 bigger 0 t.count;
    t.buf <- bigger
  end;
  t.buf.(t.count) <- v;
  t.count <- t.count + 1;
  Mutex.unlock t.mutex

let count t =
  Mutex.lock t.mutex;
  let n = t.count in
  Mutex.unlock t.mutex;
  n

(** A consistent copy of the recorded samples, in recording order
    (oldest first).  The list representation this module once used
    exposed newest-first; that inversion leaked into the interface and
    callers treated the result as recording order anyway, so the
    recording order is now the documented contract. *)
let samples t =
  Mutex.lock t.mutex;
  let arr = Array.sub t.buf 0 t.count in
  Mutex.unlock t.mutex;
  Array.to_list arr

(** [percentile_sorted p arr] with [arr] ascending and [p] in [0,100],
    by linear interpolation between the two closest ranks (the
    convention NumPy calls "linear" — NOT nearest-rank: p50 of
    [|1.; 2.|] is 1.5, where nearest-rank would give 1. or 2.).
    Edge cases: the empty array yields [nan]; a single sample is
    returned for every [p]. *)
let percentile_sorted p (arr : float array) =
  let n = Array.length arr in
  if n = 0 then nan
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then arr.(lo)
    else
      let frac = rank -. float_of_int lo in
      (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
  end

(** List-based variant of {!percentile_sorted}, kept for callers that
    already hold a sorted list. *)
let percentile p sorted = percentile_sorted p (Array.of_list sorted)

type summary = {
  n : int;
  median : float;
  p10 : float;
  p90 : float;
  mean : float;
  min : float;
  max : float;
}

let summarize t =
  Mutex.lock t.mutex;
  let arr = Array.sub t.buf 0 t.count in
  Mutex.unlock t.mutex;
  let n = Array.length arr in
  if n = 0 then
    { n = 0; median = nan; p10 = nan; p90 = nan; mean = nan; min = nan;
      max = nan }
  else begin
    (* [Float.compare], not polymorphic [compare]: same order on
       ordinary floats, but monomorphic (no generic-compare dispatch
       per element) and with a total, documented NaN order instead of
       the polymorphic comparator's unspecified NaN behaviour. *)
    Array.sort Float.compare arr;
    { n;
      median = percentile_sorted 50. arr;
      p10 = percentile_sorted 10. arr;
      p90 = percentile_sorted 90. arr;
      mean = Array.fold_left ( +. ) 0. arr /. float_of_int n;
      min = arr.(0);
      max = arr.(n - 1) }
  end

let summarize_list values =
  let t = create () in
  List.iter (record t) values;
  summarize t

(** Time an action on the monotonic clock, recording the elapsed
    seconds. *)
let time t f =
  let start = now () in
  let r = f () in
  record t (now () -. start);
  r

(* Bounded log-linear latency histograms ------------------------------------ *)

(* [t] above keeps every sample, which is exact but unbounded: a
   production runtime serving millions of calls cannot afford a float
   per call just to answer "what is p90 latency?".  [Histogram] is the
   constant-memory companion (HDR-histogram style): each power-of-two
   octave of the 1µs..10s range is split into [sub] linear sub-buckets,
   so the relative resolution is 1/sub (6.25%) everywhere and the whole
   structure is one int array.  Histograms with the same geometry merge
   by adding counts (the geometry is fixed per process), so per-domain
   histograms can be combined without locks on the recording path of
   other domains. *)
module Histogram = struct
  let sub_bits = 4
  let sub = 1 lsl sub_bits  (** Linear sub-buckets per octave: 16. *)

  let octaves = 24
  (** 2^24 µs ≈ 16.8 s ≥ the 10 s design ceiling. *)

  let buckets = octaves * sub

  type t = {
    counts : int array;  (** [buckets] in-range cells. *)
    mutable underflow : int;  (** Samples below 1 µs. *)
    mutable overflow : int;  (** Samples at or above 2^24 µs. *)
    moments : float array;
        (** [| sum; min; max |]: a flat float array, so recording a
            sample allocates nothing. *)
    hmutex : Mutex.t;
  }

  let sum t = t.moments.(0)
  let vmin t = t.moments.(1)
  let vmax t = t.moments.(2)

  let create () =
    { counts = Array.make buckets 0; underflow = 0; overflow = 0;
      moments = [| 0.; infinity; neg_infinity |]; hmutex = Mutex.create () }

  (** Bucket index of a duration [v] in seconds: [-1] = underflow,
      [buckets] = overflow, else the in-range cell.  Non-finite and
      negative values are treated as underflow (they cannot perturb
      percentiles upward). *)
  let bucket_index v =
    let u = v *. 1e6 in
    if not (Float.is_finite u) || u < 1. then -1
    else begin
      (* u >= 1 is normal: u = 1.f * 2^oct, read off its bits without
         [Float.frexp]'s allocation.  The octave is the unbiased
         exponent, the sub-bucket the top [sub_bits] of the fraction. *)
      let bits = Int64.bits_of_float u in
      let oct =
        (Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff) - 1023
      in
      if oct >= octaves then buckets
      else
        (oct * sub)
        + (Int64.to_int (Int64.shift_right_logical bits (52 - sub_bits))
          land (sub - 1))
    end

  (** Closed-open bounds [(lo, hi)] of in-range bucket [i], seconds. *)
  let bucket_bounds i =
    let oct = i / sub and j = i mod sub in
    let base = Float.ldexp 1e-6 oct in
    ( base *. (1. +. (float_of_int j /. float_of_int sub)),
      base *. (1. +. (float_of_int (j + 1) /. float_of_int sub)) )

  (** Midpoint representative of bucket [i], seconds. *)
  let bucket_mid i =
    let lo, hi = bucket_bounds i in
    (lo +. hi) /. 2.

  let record t v =
    Mutex.lock t.hmutex;
    (match bucket_index v with
    | -1 -> t.underflow <- t.underflow + 1
    | i when i >= buckets -> t.overflow <- t.overflow + 1
    | i -> t.counts.(i) <- t.counts.(i) + 1);
    t.moments.(0) <- sum t +. v;
    if v < vmin t then t.moments.(1) <- v;
    if v > vmax t then t.moments.(2) <- v;
    Mutex.unlock t.hmutex

  let count t =
    Mutex.lock t.hmutex;
    let n =
      t.underflow + t.overflow + Array.fold_left ( + ) 0 t.counts
    in
    Mutex.unlock t.hmutex;
    n

  (** [merge a b] — a fresh histogram holding both datasets.  Merging
      is associative and commutative (counts add, min/max combine), so
      per-domain histograms fold into one in any order. *)
  let merge a b =
    let m = create () in
    let add src =
      Mutex.lock src.hmutex;
      Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c) src.counts;
      m.underflow <- m.underflow + src.underflow;
      m.overflow <- m.overflow + src.overflow;
      m.moments.(0) <- sum m +. sum src;
      if vmin src < vmin m then m.moments.(1) <- vmin src;
      if vmax src > vmax m then m.moments.(2) <- vmax src;
      Mutex.unlock src.hmutex
    in
    add a;
    add b;
    m

  (** Nearest-rank percentile estimate: the representative of the
      bucket holding the ⌈p/100·n⌉-th smallest sample, clamped to the
      observed min/max so under/overflow samples answer exactly.  The
      true nearest-rank sample lies in the returned bucket, so the
      estimate is within one bucket width (1/16 of an octave, 6.25%
      relative) of it.  [nan] on an empty histogram; [p] outside
      [0,100] is clamped. *)
  let percentile t p =
    Mutex.lock t.hmutex;
    let in_range = Array.fold_left ( + ) 0 t.counts in
    let n = t.underflow + t.overflow + in_range in
    let r =
      if n = 0 then nan
      else begin
        let p = Float.max 0. (Float.min 100. p) in
        let rank =
          Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float_of_int n)))
        in
        if rank <= t.underflow then vmin t
        else begin
          let rec walk i acc =
            if i >= buckets then vmax t
            else
              let acc = acc + t.counts.(i) in
              if acc >= rank then
                (* Clamp into the observed range: a bucket midpoint can
                   overshoot the true max when the top sample sits low
                   in its bucket. *)
                Float.max (vmin t) (Float.min (vmax t) (bucket_mid i))
              else walk (i + 1) acc
          in
          walk 0 t.underflow
        end
      end
    in
    Mutex.unlock t.hmutex;
    r

  (** A consistent snapshot for exporters: totals plus the non-empty
      buckets as [(lo, hi, count)] in ascending order. *)
  type export = {
    n : int;
    sum : float;
    min : float;  (** [nan] when empty. *)
    max : float;  (** [nan] when empty. *)
    underflow : int;
    overflow : int;
    cells : (float * float * int) list;
  }

  let export t : export =
    Mutex.lock t.hmutex;
    let cells = ref [] in
    for i = buckets - 1 downto 0 do
      if t.counts.(i) > 0 then begin
        let lo, hi = bucket_bounds i in
        cells := (lo, hi, t.counts.(i)) :: !cells
      end
    done;
    let in_range = Array.fold_left ( + ) 0 t.counts in
    let n = t.underflow + t.overflow + in_range in
    let e =
      { n; sum = sum t;
        min = (if n = 0 then nan else vmin t);
        max = (if n = 0 then nan else vmax t);
        underflow = t.underflow; overflow = t.overflow; cells = !cells }
    in
    Mutex.unlock t.hmutex;
    e

  let pp ppf t =
    let e = export t in
    if e.n = 0 then Fmt.pf ppf "empty"
    else
      Fmt.pf ppf "n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus"
        e.n
        (e.sum /. float_of_int e.n *. 1e6)
        (percentile t 50. *. 1e6) (percentile t 90. *. 1e6)
        (percentile t 99. *. 1e6) (e.max *. 1e6)
end

(* Registries ------------------------------------------------------------------ *)

(* One name table per kind of reading, each behind its own mutex.
   Producers register under stable names; exporters snapshot every
   entry, sorted by name. *)
module Registry = struct
  type 'a t = { table : (string, 'a) Hashtbl.t; mutex : Mutex.t }

  let create () = { table = Hashtbl.create 16; mutex = Mutex.create () }

  (** Register (or replace) [v] under [name]: re-registration
      replaces, so short-lived producers do not grow the table. *)
  let replace r name v =
    Mutex.protect r.mutex (fun () -> Hashtbl.replace r.table name v)

  let remove r name = Mutex.protect r.mutex (fun () -> Hashtbl.remove r.table name)

  (** The entry under [name], created by [make] on first use, so
      instrumentation sites need no setup order. *)
  let find_or_add r name make =
    Mutex.protect r.mutex (fun () ->
        match Hashtbl.find_opt r.table name with
        | Some v -> v
        | None ->
          let v = make () in
          Hashtbl.add r.table name v;
          v)

  let sorted r =
    Mutex.protect r.mutex (fun () ->
        Hashtbl.fold (fun name v acc -> (name, v) :: acc) r.table [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

(* Counters: monotone counts — memo hits, admission verdicts, lint
   findings, market commits.  A counter is a bare [int Atomic.t], so
   counting is one [Atomic.incr] and needs no lock. *)

let counters : int Atomic.t Registry.t = Registry.create ()
let counter name = Registry.find_or_add counters name (fun () -> Atomic.make 0)
let register_counter name c = Registry.replace counters name c
let unregister_counter name = Registry.remove counters name

let counter_report () =
  List.map (fun (name, c) -> (name, Atomic.get c)) (Registry.sorted counters)

(* Gauges: levels — queue depths with their high-water marks, the
   market's epoch and live-app count.  The runtimes register a reading
   thunk per channel, so reports show where backpressure is building
   without reaching into runtime internals. *)

type gauge = {
  depth : int;  (** Current level. *)
  hwm : int;  (** High-water mark since creation. *)
}

let gauges : (unit -> gauge) Registry.t = Registry.create ()
let register_gauge name read = Registry.replace gauges name read
let unregister_gauge name = Registry.remove gauges name

(* The thunks run outside the registry's lock. *)
let gauge_report () =
  List.map (fun (name, read) -> (name, read ())) (Registry.sorted gauges)

(* Histograms: the runtimes record per-stage and per-app latencies
   under stable names (["lat:check"], ["lat:app:<name>"], …). *)

let hists : Histogram.t Registry.t = Registry.create ()
let hist name = Registry.find_or_add hists name Histogram.create
let unregister_hist name = Registry.remove hists name
let hist_report () = Registry.sorted hists
