(* Shared helpers for the benchmark harness: section headers, table
   printing, and a thin wrapper over Bechamel for the
   microbenchmarks. *)

open Bechamel
open Toolkit

let hr title =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "==================================================================@."

let subhr title = Fmt.pr "@.--- %s ---@." title

(** Print an aligned table: [header] row then [rows]. *)
let table header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell -> Fmt.pr "%-*s  " (List.nth widths c) cell)
      row;
    Fmt.pr "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(** Run a Bechamel test group; returns (name, ns/run) per test. *)
let run_bechamel ?(quota = 1.0) (test : Test.t) : (string * float) list =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:3000 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let ns_to_ops ns = 1e9 /. ns

let fmt_ops ns = Printf.sprintf "%.2f M ops/s" (ns_to_ops ns /. 1e6)
let fmt_ns ns = Printf.sprintf "%.0f ns" ns
let fmt_us s = Printf.sprintf "%.1f us" (s *. 1e6)

(** Wall-clock one thunk. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(** Persist a lab's measurements as a BENCH_*.json artifact, so the
    perf trajectory is part of the tree, not just of a terminal
    scrollback.  [path] is relative to the directory the bench was
    launched from — the repo root for `dune exec bench/main.exe`. *)
let write_json path (j : Shield_controller.Telemetry.Json.t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Shield_controller.Telemetry.Json.to_string j);
      output_char oc '\n');
  Fmt.pr "@.wrote %s@." path

(* Gate harness -------------------------------------------------------------

   Every correctness gate has one shape: a watchdog, the failures its
   checks record, and a tail that prints the gate's [ok] line or its
   [FAILURE] lines. *)

(** Exit 3, naming [gate], if the process still runs after [seconds]:
    a hang is the bug most gates exist to catch, and a loud exit beats
    a stuck CI job.  The thread dies with the process on success. *)
let arm_watchdog gate seconds =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay seconds;
         Fmt.epr "%s WATCHDOG: still running after %.0fs@." gate seconds;
         exit 3)
       ())

(** The running gate's failures, newest first. *)
let failures : string list ref = ref []

let fail fmt = Shield_workload.Drill.flag failures fmt

(** Open a gate: print [title], arm the watchdog, clear the failures. *)
let start_gate ~title gate seconds =
  hr title;
  arm_watchdog gate seconds;
  failures := []

(** Close a gate: [gate ok] followed by [detail] when no check failed;
    otherwise one [gate FAILURE: …] line per failure, in the order the
    checks recorded them, and exit 1. *)
let report ?(detail = "") gate =
  match List.rev !failures with
  | [] -> Fmt.pr "%s ok%s@." gate detail
  | fs ->
    List.iter (Fmt.epr "%s FAILURE: %s@." gate) fs;
    exit 1

(* Example corpora ------------------------------------------------------------ *)

(** The text of [examples/<dir>/<name>].  The runtest rule runs from
    _build/default/bench; `dune exec bench/main.exe` usually runs from
    the repo root, so both are tried.  A missing file is a failure of
    the running gate, and reads as [""]. *)
let read_example ~dir name =
  let candidates =
    List.map
      (fun root -> Filename.concat (Filename.concat root dir) name)
      [ "examples"; "../examples" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None ->
    fail "corpus file %s not found (tried: %s)" name
      (String.concat ", " candidates);
    ""
  | Some path -> In_channel.with_open_bin path In_channel.input_all

(** Parse a manifest; a parse error is a failure of the running gate,
    naming [what], and reads as the empty manifest. *)
let manifest_of ~what src =
  match Sdnshield.Perm_parser.manifest_of_string src with
  | Ok m -> m
  | Error e ->
    fail "%s: manifest does not parse: %s" what e;
    []

(** {!manifest_of} for policies. *)
let policy_of ~what src =
  match Sdnshield.Policy_parser.of_string src with
  | Ok p -> p
  | Error e ->
    fail "%s: policy does not parse: %s" what e;
    []
