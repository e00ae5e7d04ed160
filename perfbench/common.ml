(* Measurement helpers shared by the workloads: the clock, exact
   percentiles over recorded samples, process counters, and the result
   line the benchmark prints last. *)

open Shield_controller

let now = Metrics.now

(** Exact percentile ([p] in 0..100, linear interpolation) of a copy of
    [xs]; [nan] when empty. *)
let percentile p (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  Metrics.percentile_sorted p a

let median xs = percentile 50. xs

(** Growable sample buffer with one writing thread. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = b.a.(i)
  let to_array b = Array.sub b.a 0 b.n
end

(** Collect and compact before a boot or a timed phase, so the GC's
    work on earlier garbage does not land in what is timed. *)
let settle () = Gc.compact ()

(** Process-wide counters read at phase boundaries. *)
type counters = {
  minor_words : float;
  major_collections : int;
  cpu_s : float;  (** User + system time of every thread. *)
}

let counters () =
  let g = Gc.quick_stat () in
  let t = Unix.times () in
  { minor_words = g.Gc.minor_words;
    major_collections = g.Gc.major_collections;
    cpu_s = t.Unix.tms_utime +. t.Unix.tms_stime }

(** [x] rounded to four significant digits. *)
let round4 x =
  if x = 0. then 0.
  else
    let scale = 10. ** (3. -. Float.floor (Float.log10 (Float.abs x))) in
    Float.round (x *. scale) /. scale

(** The GC and CPU metrics of a phase that ran [ops] operations.
    Allocation is rounded to four significant digits per op: thread
    scheduling moves a few tens of words in a run of millions, and the
    rounded figure repeats exactly between two runs with one seed. *)
let process_metrics ~ops (c0 : counters) (c1 : counters) =
  let per_op x = x /. float_of_int ops in
  [ ("gc.minor_words_per_op",
      round4 (per_op (c1.minor_words -. c0.minor_words)), "words");
    ("gc.major_collections",
      float_of_int (c1.major_collections - c0.major_collections), "count");
    ("cpu_us_per_op", per_op (c1.cpu_s -. c0.cpu_s) *. 1e6, "us") ]

(** Largest major heap the process has had, in MiB. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

type metric = string * float * string

(** A timed phase: each op's latency, and the times the phase started
    and ended. *)
type timed = { lat : float array; start : float; stop : float }

(** Windows of consecutive ops that [op_p99_us] is taken over. *)
let windows = 20

(** The end-to-end metrics of a timed phase.  The p50 and the rate are
    those of all its ops.  The p99 is the median over [windows] runs of
    consecutive ops of each run's own p99: a stall that recurs through
    the phase, or a cost that grows with run length, moves most windows
    and so the figure; one slow stretch of the machine that covers the
    phase's worst percent does not. *)
let e2e (t : timed) : metric list =
  let n = Array.length t.lat in
  let edge k = k * n / windows in
  let p99 k = percentile 99. (Array.sub t.lat (edge k) (edge (k + 1) - edge k)) in
  [ ("op_p50_us", median t.lat *. 1e6, "us");
    ("op_p99_us", median (Array.init windows p99) *. 1e6, "us");
    ("op_rate", float_of_int n /. (t.stop -. t.start), "1/s");
    ("heap_mb", heap_mb (), "MiB") ]

(** Print the result object as the last line of standard output.  A
    non-finite value cannot be written as JSON; it marks the run
    incorrect and is written as 0. *)
let emit ~correct ~attempted ~failed (metrics : metric list) =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let field (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite v then v else 0.)
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite) attempted failed
    (String.concat ", " (List.map field metrics))

(** Print a metric table, one row per metric. *)
let print_table title (metrics : metric list) =
  Printf.printf "--- %s ---\n" title;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-32s %14.3f %s\n" name v unit)
    metrics
