(* Shared helpers for the test suites. *)

open Shield_openflow
open Shield_net
open Shield_controller

let ip = Types.ipv4_of_string
let mac = Types.mac_of_int

(** Busy-wait [us] microseconds of the monotonic clock, holding the
    domain. *)
let busy_us us =
  let until = Metrics.now () +. (float_of_int us *. 1e-6) in
  while Metrics.now () < until do
    ()
  done

(** A linear topology of [n] switches, one host per switch, with its
    dataplane and kernel. *)
let linear_setup ?(hosts_per_switch = 1) n =
  let topo = Topology.linear ~hosts_per_switch n in
  let dp = Dataplane.create topo in
  let kernel = Kernel.create dp in
  (topo, dp, kernel)

let host topo name =
  match Topology.host_by_name topo name with
  | Some h -> h
  | None -> Alcotest.failf "no host %s" name

(** Build a runtime over a fresh kernel with the given (app, checker)
    pairs; returns (topo, dataplane, kernel, runtime). *)
let runtime_setup ?(mode = Runtime.Monolithic) ?(switches = 3)
    ?(hosts_per_switch = 1) apps =
  let topo, dp, kernel = linear_setup ~hosts_per_switch switches in
  let rt = Runtime.create ~mode kernel apps in
  (topo, dp, kernel, rt)

(** An SDNShield engine for [manifest_src] (parsed), unbound: a runtime
    hosting its checker binds it. *)
let engine_of ?topo ~name manifest_src =
  let manifest = Sdnshield.Perm_parser.manifest_exn manifest_src in
  Sdnshield.Engine.create ?topo ~app_name:name manifest

let checker_of ?topo ~name manifest_src =
  Sdnshield.Engine.checker (engine_of ?topo ~name manifest_src)

(* Alcotest helpers. *)

let check_allow what (d : Api.decision) =
  match d with
  | Api.Allow -> ()
  | Api.Deny why -> Alcotest.failf "%s: expected Allow, got Deny (%s)" what why

let check_deny what (d : Api.decision) =
  match d with
  | Api.Deny _ -> ()
  | Api.Allow -> Alcotest.failf "%s: expected Deny, got Allow" what

let manifest_exn = Sdnshield.Perm_parser.manifest_exn

let filter_exn src =
  match Sdnshield.Perm_parser.filter_of_string src with
  | Ok f -> f
  | Error e -> Alcotest.failf "filter parse error: %s" e

let policy_exn = Sdnshield.Policy_parser.of_string_exn

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(** Probe expectation helper. *)
let check_probe what expected (p : Dataplane.probe) =
  let to_str = function
    | Dataplane.Delivered_to (h, _) -> "delivered-to " ^ h
    | Dataplane.Punted_at d -> Printf.sprintf "punted-at s%d" d
    | Dataplane.Dropped_ -> "dropped"
    | Dataplane.Looped_ -> "looped"
  in
  Alcotest.(check string) what expected (to_str p)
