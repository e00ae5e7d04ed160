(* The permission engine (PE, §VI-B).

   One engine instance guards one app.  It holds the app's reconciled
   manifest, compiled at load time into an [Automaton] decision DAG
   that answers allow/deny for every API call, tracks the stateful
   dimensions (ownership, rule budgets) in a store shared with the
   other apps' engines, enforces transactional call groups with
   rollback, translates virtual-topology calls, and vets read results
   for visibility.  [checker] packages all of it as the controller's
   pluggable [Api.checker]. *)

open Shield_openflow
open Shield_net
open Shield_controller

type t = {
  cookie : int;
  manifest : Perm.manifest;
  ownership : Ownership.t;
  vtopo : Vtopo.t option;
  record_state : bool;
      (** When false, approved flow-mods are not recorded in the
          ownership store: pure stateless checking, as the paper
          characterises the permission engine for its Figure-5
          microbenchmark. *)
  env : Filter_eval.env;
  automaton : Automaton.t;
      (** The manifest compiled once, at load time, into a decision
          DAG over [env]: every token decision goes through it. *)
  mutex : Mutex.t;  (** Guards stateful check/record sequences. *)
  confined : int Atomic.t;
      (** Calls denied by virtual-topology confinement, which the
          automaton never sees; bumped on lock-free check paths. *)
}

(* Manifest compilation ----------------------------------------------------- *)

let find_virt_members (manifest : Perm.manifest) =
  (* A virtual big switch is requested by a Virt_topo atom on
     visible_topology; its member set defaults to the switches of a
     Phys_topo atom on the same permission, else the whole network. *)
  match Perm.find manifest Token.Visible_topology with
  | None -> None
  | Some p ->
    let has_virt =
      Filter.fold_atoms
        (fun acc s ->
          acc || match s with Filter.Virt_topo _ -> true | _ -> false)
        false p.Perm.filter
    in
    if not has_virt then None
    else
      Some
        (Filter.fold_atoms
           (fun acc s ->
             match s with
             | Filter.Phys_topo { switches; _ } ->
               Filter.Int_set.union acc switches
             | _ -> acc)
           Filter.Int_set.empty p.Perm.filter)

(** Build an engine for [app_name].  [ownership] must be shared across
    all engines of one deployment; [topo] enables virtual-topology
    translation when the manifest requests it.  Manifests containing
    unexpanded macros are rejected: reconciliation must run first. *)
let create ?topo ?(record_state = true) ~ownership ~app_name ~cookie
    (manifest : Perm.manifest) : t =
  (match Perm.macros manifest with
  | [] -> ()
  | ms ->
    invalid_arg
      (Printf.sprintf "engine: manifest of %s has unresolved macros: %s"
         app_name (String.concat ", " ms)));
  let vtopo =
    match (find_virt_members manifest, topo) with
    | Some members, Some topo -> Some (Vtopo.create ~members topo)
    | Some _, None ->
      invalid_arg
        (Printf.sprintf
           "engine: %s requests a virtual topology but no physical topology \
            was supplied"
           app_name)
    | None, _ -> None
  in
  let env = Dispatch.env_of_ownership ~ownership ~cookie in
  { cookie; manifest; ownership; vtopo; record_state; env;
    automaton = Automaton.of_manifest ~env manifest;
    mutex = Mutex.create (); confined = Atomic.make 0 }

(* Token resolution --------------------------------------------------------- *)

(** Which token a call requires (see {!Dispatch.token_of_call};
    re-exported here because the engine is where most callers already
    look for it). *)
let token_of_call = Dispatch.token_of_call

(* Checking ------------------------------------------------------------------

   The automaton decides every token; the engine adds what the
   automaton does not do: virtual-topology confinement in front, and
   ownership recording behind an approved flow-mod. *)

let record_state t (call : Api.call) =
  if t.record_state then
    match call with
    | Api.Install_flow (dpid, fm) ->
      Ownership.record t.ownership ~dpid fm ~cookie:t.cookie
    | _ -> ()

(** When a virtual topology is active, the app's entire view is the
    big switch: any call addressing a physical datapath directly is
    outside the abstraction and denied, whichever token it rides on.
    [Attrs.of_call] runs only when a virtual topology is active, so the
    common physical deployment keeps the hot path free of it. *)
let escapes_vtopo t (call : Api.call) =
  match t.vtopo with
  | None -> false
  | Some vt -> (
    match (Attrs.of_call call).Attrs.dpid with
    | Some d -> d <> vt.Vtopo.vdpid
    | None -> false)

let confinement_denial =
  Api.Deny "virtual topology: physical switches are not addressable"

let confinement_info =
  { Api.explain =
      Some
        "virtual-topology confinement: the call addresses a physical \
         datapath outside the app's big-switch view" }

let confine t r =
  Atomic.incr t.confined;
  r

let check_unlocked t call =
  if escapes_vtopo t call then confine t confinement_denial
  else begin
    let d = Automaton.check t.automaton call in
    (match d with Api.Allow -> record_state t call | Api.Deny _ -> ());
    d
  end

let check_explained_unlocked t call =
  if escapes_vtopo t call then
    confine t (confinement_denial, confinement_info)
  else begin
    let ((d, _) as r) = Automaton.check_explained t.automaton call in
    (match d with Api.Allow -> record_state t call | Api.Deny _ -> ());
    r
  end

(** Check one call; approved flow-mods update the ownership store.  The
    lock serializes the check-then-record sequence of stateful calls;
    with [record_state:false] there is no record step to keep atomic,
    so pure checking runs lock-free. *)
let check t call =
  if t.record_state && Dispatch.is_stateful_call call then begin
    Mutex.lock t.mutex;
    let d = check_unlocked t call in
    Mutex.unlock t.mutex;
    d
  end
  else check_unlocked t call

(** Batched checking: one verdict per call, in order, each decided as
    {!check} would at that position.  A burst with nothing to confine
    or record goes through {!Automaton.check_batch} in one pass;
    otherwise each element takes the ordinary {!check} path. *)
let check_batch t (calls : Api.call array) : Api.decision array =
  if
    t.vtopo = None
    && not (t.record_state && Array.exists Dispatch.is_stateful_call calls)
  then Automaton.check_batch t.automaton calls
  else Array.map (check t) calls

(** Transactional check (§VI-B2): every call in the group must pass;
    state updates from earlier calls in the group are visible to later
    ones and roll back entirely when any call is denied. *)
let check_transaction t (calls : Api.call list) :
    (unit, int * string) Stdlib.result =
  Mutex.lock t.mutex;
  let snap = Ownership.snapshot t.ownership in
  let rec go i = function
    | [] -> Ok ()
    | call :: rest -> (
      match check_unlocked t call with
      | Api.Allow -> go (i + 1) rest
      | Api.Deny why ->
        Ownership.restore t.ownership snap;
        Error (i, why))
  in
  let r = go 0 calls in
  Mutex.unlock t.mutex;
  r

(** {!check} with provenance: the same decision (including ownership
    recording and counters) plus a prose account of the deciding token
    and filter clause, read off the same automaton walk. *)
let check_explained t call =
  if t.record_state && Dispatch.is_stateful_call call then begin
    Mutex.lock t.mutex;
    let r = check_explained_unlocked t call in
    Mutex.unlock t.mutex;
    r
  end
  else check_explained_unlocked t call

(* Virtual-topology call translation ---------------------------------------- *)

let rewrite t (call : Api.call) : Api.call list =
  match t.vtopo with
  | None -> [ call ]
  | Some vt -> (
    let vdpid = vt.Vtopo.vdpid in
    match call with
    | Api.Install_flow (d, fm) when d = vdpid ->
      List.map
        (fun (pd, pfm) -> Api.Install_flow (pd, pfm))
        (Vtopo.translate_flow_mod vt fm)
    | Api.Read_flow_table { dpid = Some d; pattern } when d = vdpid ->
      List.map
        (fun m -> Api.Read_flow_table { dpid = Some m; pattern })
        (Filter.Int_set.elements vt.Vtopo.members)
    | Api.Read_flow_table { dpid = None; pattern } ->
      (* Whole-view read = the member switches. *)
      List.map
        (fun m -> Api.Read_flow_table { dpid = Some m; pattern })
        (Filter.Int_set.elements vt.Vtopo.members)
    | Api.Read_stats req
      when req.Stats.dpid_filter = Some vdpid || req.Stats.dpid_filter = None ->
      List.map
        (fun m -> Api.Read_stats { req with Stats.dpid_filter = Some m })
        (Filter.Int_set.elements vt.Vtopo.members)
    | Api.Send_packet_out ({ dpid = d; port; _ } as po) when d = vdpid -> (
      match Vtopo.endpoint_of_vport vt port with
      | Some ep ->
        [ Api.Send_packet_out
            { po with dpid = ep.Topology.dpid; port = ep.Topology.port } ]
      | None -> [])
    | _ -> [ call ])

let merge_results (call : Api.call) (results : Api.result list) : Api.result =
  match results with
  | [] -> Api.Failed "virtual-topology translation produced no calls"
  | [ r ] -> r
  | rs -> (
    match List.find_opt (function Api.Failed _ | Api.Denied _ -> true | _ -> false) rs with
    | Some bad -> bad
    | None -> (
      match call with
      | Api.Read_flow_table _ ->
        Api.Flow_entries
          (List.concat_map
             (function Api.Flow_entries l -> l | _ -> [])
             rs)
      | Api.Read_stats _ ->
        let flow, port, sw =
          List.fold_left
            (fun (f, p, s) -> function
              | Api.Stats_result (Stats.Flow_stats l) -> (f @ l, p, s)
              | Api.Stats_result (Stats.Port_stats l) -> (f, p @ l, s)
              | Api.Stats_result (Stats.Switch_stats l) -> (f, p, s @ l)
              | _ -> (f, p, s))
            ([], [], []) rs
        in
        if flow <> [] then Api.Stats_result (Stats.Flow_stats flow)
        else if port <> [] then Api.Stats_result (Stats.Port_stats port)
        else Api.Stats_result (Stats.Switch_stats sw)
      | _ -> List.hd rs))

(* Result vetting (visibility filtering) ------------------------------------ *)

let filter_for t token =
  match Perm.find t.manifest token with
  | Some p -> p.Perm.filter
  | None -> Filter.False

let entry_visible t expr ~dpid (fs : Stats.flow_stat) =
  let attrs =
    { (Attrs.base Attrs.K_read_flow_table) with
      Attrs.match_ = Some fs.Stats.match_;
      priority = Some fs.Stats.priority;
      dpid = Some dpid;
      cookie = Some fs.Stats.cookie }
  in
  Filter_eval.eval t.env expr attrs

let switch_visible t expr ~kind d =
  Filter_eval.eval t.env expr { (Attrs.base kind) with Attrs.dpid = Some d }

let vet_flow_entries t expr l =
  let vetted =
    List.filter_map
      (fun (dpid, entries) ->
        if not (switch_visible t expr ~kind:Attrs.K_read_flow_table dpid) then
          None
        else
          match List.filter (entry_visible t expr ~dpid) entries with
          | [] -> None
          | kept -> Some (dpid, kept))
      l
  in
  match t.vtopo with
  | Some vt when vetted <> [] -> Vtopo.aggregate_flow_stats vt vetted
  | _ -> vetted

let vet_topology t expr (view : Api.topology_view) : Api.topology_view =
  match t.vtopo with
  | Some vt -> Vtopo.translate_topology_view vt view
  | None ->
    let vis d = switch_visible t expr ~kind:Attrs.K_read_topology d in
    { Api.switches = List.filter vis view.Api.switches;
      links =
        List.filter
          (fun ((a : Topology.endpoint), (b : Topology.endpoint)) ->
            vis a.Topology.dpid && vis b.Topology.dpid)
          view.Api.links;
      hosts =
        List.filter
          (fun (h : Topology.host) -> vis h.Topology.attachment.Topology.dpid)
          view.Api.hosts }

let vet_stats t expr (reply : Stats.reply) : Stats.reply =
  let vis d = switch_visible t expr ~kind:Attrs.K_read_stats d in
  let vetted =
    match reply with
    | Stats.Flow_stats l ->
      Stats.Flow_stats
        (List.filter_map
           (fun (d, entries) ->
             if not (vis d) then None
             else Some (d, List.filter (entry_visible t expr ~dpid:d) entries))
           l)
    | Stats.Port_stats l -> Stats.Port_stats (List.filter (fun (d, _) -> vis d) l)
    | Stats.Switch_stats l ->
      Stats.Switch_stats (List.filter (fun (s : Stats.switch_stat) -> vis s.Stats.dpid) l)
  in
  match t.vtopo with
  | Some vt -> Vtopo.aggregate_stats vt vetted
  | None -> vetted

let vet_result t (call : Api.call) (result : Api.result) : Api.result =
  match (call, result) with
  | Api.Read_flow_table _, Api.Flow_entries l ->
    Api.Flow_entries (vet_flow_entries t (filter_for t Token.Read_flow_table) l)
  | Api.Read_topology, Api.Topology_of view ->
    Api.Topology_of (vet_topology t (filter_for t Token.Visible_topology) view)
  | Api.Read_stats _, Api.Stats_result reply ->
    Api.Stats_result (vet_stats t (filter_for t Token.Read_statistics) reply)
  | _ -> result

(* Packaging ----------------------------------------------------------------- *)

(** React to controller state changes: a switch-expired rule leaves the
    ownership store so OWN_FLOWS / MAX_RULE_COUNT reflect reality. *)
let observe t (change : Api.state_change) =
  match change with
  | Api.Flow_expired { dpid; match_; cookie } ->
    Ownership.forget t.ownership ~dpid ~match_ ~cookie

(** Load-time capability test (§VIII-B): is the token behind the
    capability granted at all, whatever its filters? *)
let granted t (cap : Api.capability) : bool =
  let has tok = Perm.grants_token t.manifest tok in
  match cap with
  | Api.Cap_flow_write -> has Token.Insert_flow || has Token.Delete_flow
  | Api.Cap_flow_read -> has Token.Read_flow_table
  | Api.Cap_topology_read -> has Token.Visible_topology
  | Api.Cap_topology_write -> has Token.Modify_topology
  | Api.Cap_stats -> has Token.Read_statistics
  | Api.Cap_packet_out -> has Token.Send_pkt_out
  | Api.Cap_payload -> has Token.Read_payload
  | Api.Cap_host_network -> has Token.Host_network
  | Api.Cap_file_system -> has Token.File_system
  | Api.Cap_process -> has Token.Process_runtime

(** The engine as a controller-pluggable checker. *)
let checker (t : t) : Api.checker =
  { Api.check = (fun call -> check t call);
    check_batch = Some (fun calls -> check_batch t calls);
    check_transaction = (fun calls -> check_transaction t calls);
    rewrite = (fun call -> rewrite t call);
    combine = (fun call results -> merge_results call results);
    vet_result = (fun call result -> vet_result t call result);
    observe = (fun change -> observe t change);
    granted = (fun cap -> granted t cap);
    explain = Some (fun call -> check_explained t call);
    snapshot = None }

let stats t =
  let checks, denials = Automaton.stats t.automaton in
  let confined = Atomic.get t.confined in
  (checks + confined, denials + confined)
