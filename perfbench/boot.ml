(* The seeded market deployment every workload starts from.

   A boot admits the l2switch, the policy-bounded [monitor] app and a
   pool of background Medium apps through the market pipeline
   (vet -> reconcile -> lint -> verify -> compile -> publish) under the
   site policy, then starts the l2switch on the paper's Isolated
   runtime with its live [Epoch.checker].  Every component is built
   with library defaults (no strategy, no cache size), so a change of
   default is measured. *)

open Shield_net
open Shield_controller
open Shield_apps
open Shield_workload
open Sdnshield

(* One boundary, on [monitor]: an upgrade of [monitor] reaches every
   constraint and takes the whole-policy reconcile path, every other
   app takes the delta path.  The boundary admits [insert_flow], so
   the monitor's grants are never truncated. *)
let policy =
  "LET watched = APP monitor\n\
   ASSERT watched <= { PERM read_statistics PERM insert_flow }"

let monitor = "monitor"

(** The monitor's grant: flow inserts into 10.[o].0.0/16. *)
let monitor_grant o =
  Printf.sprintf "PERM insert_flow LIMITING IP_DST 10.%d.0.0 MASK 255.255.0.0" o

let pool_apps = 40
let switches = 4
let hosts_per_switch = 2
let ksd_threads = 2

(** One admission transaction as its submitter saw it. *)
type txn = {
  request : Market.request;
  outcome : Market.outcome;
  submit_s : float;  (** [Market.submit] call to return. *)
  apply_s : float;  (** [Epoch.apply] inside the market worker. *)
}

type t = {
  epoch : Epoch.t;
  market : Market.t;
  last_apply : float Atomic.t;
      (** Duration of the latest [Epoch.apply], written by the market
          worker before it fills the submitter's reply. *)
}

(** A market over [epoch] whose executor times each [Epoch.apply]. *)
let market epoch last_apply =
  Market.create
    ~exec:(fun req ->
      let t0 = Common.now () in
      let outcome = Epoch.apply epoch req in
      Atomic.set last_apply (Common.now () -. t0);
      outcome)
    ()

let submit d request =
  let t0 = Common.now () in
  let outcome = Market.submit d.market request in
  let submit_s = Common.now () -. t0 in
  { request; outcome; submit_s; apply_s = Atomic.get d.last_apply }

(** The pool: [pool_apps] Medium manifests drawn from [seed]. *)
let pool_requests ~seed =
  let rng = Prng.of_int seed in
  List.init pool_apps (fun i ->
      let focus = if Prng.bool rng then `Insert else `Stats in
      let m =
        Perm_gen.generate ~seed:(Prng.int rng 1_000_000)
          ~complexity:Perm_gen.Medium ~focus ()
      in
      Market.install (Printf.sprintf "pool-%03d" i) (Perm.to_string m))

let admissions ~seed =
  Market.install "l2switch" L2_switch.manifest_src
  :: Market.install monitor (monitor_grant 1)
  :: pool_requests ~seed

let deploy ~seed =
  let epoch =
    match Epoch.create ~policy () with
    | Ok e -> e
    | Error e -> failwith ("site policy rejected: " ^ e)
  in
  let last_apply = Atomic.make 0. in
  let d = { epoch; market = market epoch last_apply; last_apply } in
  let txns = List.map (submit d) (admissions ~seed) in
  List.iter
    (fun t ->
      if not (Market.committed t.outcome) then
        failwith
          (Fmt.str "boot admission of %s did not commit: %a"
             t.request.Market.app Market.pp_outcome t.outcome))
    txns;
  (d, txns)

(** A data plane and an l2switch instance hosted on the Isolated
    runtime.  [wrap_app] / [wrap_checker] let the traced run put its
    timers around the app and the checker. *)
type host = {
  runtime : Runtime.t;
  kernel : Kernel.t;
  l2 : L2_switch.t;
}

let host ?(config = Runtime.default_config) ?(wrap_app = Fun.id)
    ?(wrap_checker = Fun.id) d =
  let kernel =
    Kernel.create (Dataplane.create (Topology.linear ~hosts_per_switch switches))
  in
  let l2 = L2_switch.create () in
  let runtime =
    Runtime.create ~config ~mode:(Runtime.Isolated { ksd_threads }) kernel
      [ (wrap_app (L2_switch.app l2), wrap_checker (Epoch.checker d.epoch "l2switch")) ]
  in
  { runtime; kernel; l2 }

let teardown d h =
  Runtime.shutdown h.runtime;
  Market.shutdown d.market;
  Epoch.close d.epoch

type booted = {
  dep : t;
  hosted : host;
  boot_txns : txn list;  (** Admissions of the last boot. *)
  boot_s : float list;  (** Time of each boot. *)
  admit_s : float;  (** Admission part of the last boot. *)
  runtime_start_s : float;  (** [Runtime.create] part of the last boot. *)
}

(** Boot the deployment of [seed] [boots] times and keep the last one.
    Each boot starts cold: the normal-form and inclusion memos, the
    library's only caches shared across deployments, are dropped first.
    So every boot of one seed does the same work. *)
let boot ?wrap_app ~boots ~seed () =
  let rec go i times =
    Nf.clear_memo ();
    Inclusion.clear_memo ();
    Common.settle ();
    let t0 = Common.now () in
    let dep, txns = deploy ~seed in
    let t1 = Common.now () in
    let hosted = host ?wrap_app dep in
    let t2 = Common.now () in
    let times = (t2 -. t0) :: times in
    if i + 1 < boots then begin
      teardown dep hosted;
      go (i + 1) times
    end
    else
      { dep; hosted; boot_txns = txns; boot_s = List.rev times;
        admit_s = t1 -. t0; runtime_start_s = t2 -. t1 }
  in
  go 0 []

(** The times of [boots] more cold boots of [seed], each torn down. *)
let boot_times ~boots ~seed =
  let b = boot ~boots ~seed () in
  teardown b.dep b.hosted;
  b.boot_s

(* Admission-layer metrics ---------------------------------------------------- *)

let stages = [ "vet"; "reconcile"; "lint"; "verify"; "compile"; "publish" ]

(** The admission-layer metrics of the last boot's transactions. *)
let admission_metrics (b : booted) =
  let txns = Array.of_list b.boot_txns in
  let n = float_of_int (Array.length txns) in
  let stage_total t name =
    List.fold_left
      (fun acc (s, dt) -> if s = name then acc +. dt else acc)
      0. (Market.stages_of t.outcome)
  in
  let per_txn f = Array.fold_left (fun acc t -> acc +. f t) 0. txns /. n in
  let deltas, fulls = Epoch.reconcile_counts b.dep.epoch in
  let rollbacks =
    Array.fold_left
      (fun acc t -> if Market.committed t.outcome then acc else acc + 1)
      0 txns
  in
  let republished t =
    match t.outcome with
    | Market.Committed { republished; _ } -> float_of_int (List.length republished)
    | Market.Rolled_back _ -> 0.
  in
  [ ("market.queue_us",
      Common.median (Array.map (fun t -> t.submit_s -. t.apply_s) txns) *. 1e6, "us");
    ("epoch.apply_ms", Common.median (Array.map (fun t -> t.apply_s) txns) *. 1e3, "ms") ]
  @ List.map
      (fun s -> ("stage." ^ s ^ "_ms", per_txn (fun t -> stage_total t s) *. 1e3, "ms"))
      stages
  @ [ ("epoch.unattributed_ms",
        per_txn (fun t ->
            t.apply_s
            -. List.fold_left (fun acc (_, dt) -> acc +. dt) 0. (Market.stages_of t.outcome))
        *. 1e3, "ms");
      ("epoch.delta_share", float_of_int deltas /. float_of_int (deltas + fulls), "ratio");
      ("epoch.republished_per_txn", per_txn republished, "count");
      ("market.rollback_share", float_of_int rollbacks /. n, "ratio");
      ("setup.admit_ms_per_app", b.admit_s /. n *. 1e3, "ms");
      ("setup.runtime_start_ms", b.runtime_start_s *. 1e3, "ms") ]
