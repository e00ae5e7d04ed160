(* The northbound API-call model.

   Every action an app can take — SDN API calls, event receipt and host
   system calls — is reified as an [Api.call] value.  The permission
   engine mediates this single type, which is what makes the permission
   abstractions controller-independent (the paper's standalone
   permission engine reads "permission checking objects" carrying the
   caller identity, required permission and parameters; this type is
   that object). *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net

type event_kind =
  | E_packet_in
  | E_flow
  | E_topology
  | E_error
  | E_stats
  | E_app of string  (** Inter-app publication channel, e.g. "alto". *)

let event_kind_to_string = function
  | E_packet_in -> "packet_in"
  | E_flow -> "flow"
  | E_topology -> "topology"
  | E_error -> "error"
  | E_stats -> "stats"
  | E_app tag -> "app:" ^ tag

type topo_change =
  | Add_link of Topology.endpoint * Topology.endpoint
  | Remove_link of Topology.endpoint * Topology.endpoint
  | Add_switch of dpid
  | Remove_switch of dpid

type syscall =
  | Net_connect of { dst : ipv4; dst_port : int; payload : string }
  | File_open of { path : string; write : bool }
  | Spawn_process of string

type call =
  | Install_flow of dpid * Flow_mod.t
      (** Add/Modify/Delete per the flow-mod command; the permission
          engine distinguishes insert_flow vs delete_flow from it. *)
  | Read_flow_table of { dpid : dpid option; pattern : Match_fields.t option }
  | Read_topology
  | Modify_topology of topo_change
  | Read_stats of Stats.request
  | Send_packet_out of {
      dpid : dpid;
      port : port_no;  (** -1 = flood. *)
      packet : Packet.t;
      from_pkt_in : bool;  (** Replay of a buffered packet-in payload. *)
    }
  | Receive_event of event_kind
      (** Implicit call checked by the runtime before delivering an
          event to a listener. *)
  | Read_payload_access
      (** Implicit call checked before handing an app the payload bytes
          of a packet-in. *)
  | Publish_event of { tag : string; payload : string }
      (** Publish on an inter-app channel. *)
  | Syscall of syscall

type topology_view = {
  switches : dpid list;
  links : (Topology.endpoint * Topology.endpoint) list;
  hosts : Topology.host list;
}

type result =
  | Done
  | Flow_entries of (dpid * Stats.flow_stat list) list
  | Topology_of of topology_view
  | Stats_result of Stats.reply
  | Payload of string
  | Denied of string
  | Failed of string

(* Decisions produced by a permission checker. *)
type decision = Allow | Deny of string

(* Decision provenance (docs/OBSERVABILITY.md).  A checker that can
   explain itself reports, in prose, which permission token and filter
   clause granted or denied the call — so traces and forensic reports
   can show *why*, not just *what*. *)

type check_info = {
  explain : string option;
      (** Which token and top-level filter clause decided, e.g.
          ["token insert_flow: clause 2/3 failed: nw_dst 10.0.0.0 MASK
          255.0.0.0"]. *)
}

let no_check_info = { explain = None }

(** Coarse capabilities an app consumes, declared on the app and
    verified at load time (the paper's OSGi-level check, §VIII-B: when
    the app lacks the required tokens entirely, it is caught before any
    runtime checking is needed). *)
type capability =
  | Cap_flow_write
  | Cap_flow_read
  | Cap_topology_read
  | Cap_topology_write
  | Cap_stats
  | Cap_packet_out
  | Cap_payload
  | Cap_host_network
  | Cap_file_system
  | Cap_process

let capability_to_string = function
  | Cap_flow_write -> "flow-write"
  | Cap_flow_read -> "flow-read"
  | Cap_topology_read -> "topology-read"
  | Cap_topology_write -> "topology-write"
  | Cap_stats -> "statistics"
  | Cap_packet_out -> "packet-out"
  | Cap_payload -> "payload"
  | Cap_host_network -> "host-network"
  | Cap_file_system -> "file-system"
  | Cap_process -> "process"

(** A pluggable permission checker.  The controller libraries never
    depend on the SDNShield core: the runtimes accept any checker, with
    [allow_all] reproducing an unprotected (baseline) controller.

    Beyond allow/deny, a checker may rewrite an approved call into
    several concrete calls (virtual-topology translation, §VI-B1),
    combine their results, and vet the final result (visibility
    filtering of flow tables, topology and statistics). *)
type checker = {
  check : call -> decision;
  check_batch : (call array -> decision array) option;
      (** Batched variant of [check] for event storms and replayed
          traces: one verdict per call, in order, each decided exactly
          as [check] would decide it at that position (a batch is not a
          snapshot or a transaction).  [None] means the checker has no
          batch fast path; callers then loop over [check].
          Implementations amortize per-call overhead (dispatch,
          counter bookkeeping) across the array — see
          {!Sdnshield.Automaton.check_batch}. *)
  check_transaction : call list -> (unit, int * string) Stdlib.result;
      (** All-or-nothing pre-check of a call group; [Error (i, why)]
          identifies the first offending call. *)
  rewrite : call -> call list;
      (** Translate an approved abstract call to the concrete calls to
          execute.  Defaults to the identity singleton. *)
  combine : call -> result list -> result;
      (** Merge the results of the rewritten calls back into one result
          for the original call. *)
  vet_result : call -> result -> result;
      (** Filter the response before it reaches the app. *)
  bind : Dataplane.t -> cookie:int -> unit;
      (** Load-time hook: the runtime calls it once per hosted app,
          before the app's first call, naming the data plane its calls
          run against and the cookie the kernel stamps on every rule
          the app installs.  A stateful checker answers ownership and
          rule budgets (OWN_FLOWS, MAX_RULE_COUNT) from those flow
          tables, the one record of who owns which rule.  Most
          checkers ignore it. *)
  granted : capability -> bool;
      (** Load-time token-presence test: does the policy grant the
          token(s) behind this capability at all?  Used by the
          runtime's load-time access control (§VIII-B). *)
  explain : (call -> decision * check_info) option;
      (** Explained variant of [check]: same decision, plus
          provenance for traces and forensic reports.  [None] means
          the checker cannot explain itself; traced runtimes then
          fall back to [check] with {!no_check_info}.  Implementations
          MUST decide exactly as [check] would — the traced and
          untraced runtimes must be behaviourally identical. *)
  snapshot : (unit -> checker) option;
      (** Epoch pinning for hot-swappable checkers (docs/CHURN.md).  A
          live-update deployment republishes an app's checker while
          traffic flows; a mediated call that consulted [check] from
          one epoch but [rewrite]/[vet_result] from the next would mix
          two manifests.  When set, the runtime calls [snapshot ()]
          once per mediated call and uses the returned checker — which
          must be immutable, with every entry point deciding against
          one consistent epoch — for all phases of that call.  The
          returned checker's own [snapshot] is ignored (no recursive
          resolution).  [None] means the checker is not swappable and
          is used directly.  Implementations must be cheap (one atomic
          load): this sits on the per-call hot path. *)
}

let default_combine _call = function
  | [ r ] -> r
  | [] -> Failed "rewrite produced no calls"
  | r :: _ -> r

let allow_all =
  { check = (fun _ -> Allow);
    (* Deliberately [None]: checkers built with [{ allow_all with
       check = … }] must not inherit a batch path that contradicts
       their overridden [check]. *)
    check_batch = None;
    check_transaction = (fun _ -> Ok ());
    rewrite = (fun call -> [ call ]);
    combine = default_combine;
    vet_result = (fun _ r -> r);
    bind = (fun _ ~cookie:_ -> ());
    granted = (fun _ -> true);
    explain = None;
    snapshot = None }

let deny_all =
  { allow_all with
    check = (fun _ -> Deny "deny-all checker");
    check_transaction = (fun calls ->
      match calls with [] -> Ok () | _ -> Error (0, "deny-all checker"));
    granted = (fun _ -> false) }

(* Pretty-printing --------------------------------------------------------- *)

let pp_syscall ppf = function
  | Net_connect { dst; dst_port; _ } ->
    Fmt.pf ppf "net_connect %a:%d" pp_ipv4 dst dst_port
  | File_open { path; write } ->
    Fmt.pf ppf "file_open %s (%s)" path (if write then "w" else "r")
  | Spawn_process cmd -> Fmt.pf ppf "spawn %s" cmd

let pp_call ppf = function
  | Install_flow (d, fm) -> Fmt.pf ppf "install_flow s%d %a" d Flow_mod.pp fm
  | Read_flow_table { dpid; _ } ->
    Fmt.pf ppf "read_flow_table %a" Fmt.(option ~none:(any "all") int) dpid
  | Read_topology -> Fmt.string ppf "read_topology"
  | Modify_topology _ -> Fmt.string ppf "modify_topology"
  | Read_stats r -> Fmt.pf ppf "read_stats %a" Stats.pp_level r.level
  | Send_packet_out { dpid; port; _ } ->
    Fmt.pf ppf "packet_out s%d p%d" dpid port
  | Receive_event k -> Fmt.pf ppf "receive_event %s" (event_kind_to_string k)
  | Read_payload_access -> Fmt.string ppf "read_payload"
  | Publish_event { tag; _ } -> Fmt.pf ppf "publish_event %s" tag
  | Syscall s -> pp_syscall ppf s

(** Constant-string class of a call — the span label recorded on the
    traced hot path, where pretty-printing the full call would cost
    more than the mediation itself. *)
let call_kind = function
  | Install_flow _ -> "install_flow"
  | Read_flow_table _ -> "read_flow_table"
  | Read_topology -> "read_topology"
  | Modify_topology _ -> "modify_topology"
  | Read_stats _ -> "read_stats"
  | Send_packet_out _ -> "packet_out"
  | Receive_event _ -> "receive_event"
  | Read_payload_access -> "read_payload"
  | Publish_event _ -> "publish_event"
  | Syscall _ -> "syscall"

let pp_result ppf = function
  | Done -> Fmt.string ppf "done"
  | Flow_entries l -> Fmt.pf ppf "flow-entries(%d switches)" (List.length l)
  | Topology_of v -> Fmt.pf ppf "topology(%d switches)" (List.length v.switches)
  | Stats_result r -> Fmt.pf ppf "stats %a" Stats.pp_reply r
  | Payload p -> Fmt.pf ppf "payload(%d bytes)" (String.length p)
  | Denied why -> Fmt.pf ppf "DENIED: %s" why
  | Failed why -> Fmt.pf ppf "FAILED: %s" why
