(* The permission engine (PE, §VI-B).

   One engine instance guards one app.  It holds the app's reconciled
   manifest, compiled at load time into an [Automaton] decision DAG
   that answers allow/deny for every API call, answers the stateful
   dimensions (ownership, rule budgets) from the flow tables of the
   data plane it is bound to, checks transactional call groups,
   translates virtual-topology calls, and vets read results for
   visibility.  [checker] packages all of it as the controller's
   pluggable [Api.checker]. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_net
open Shield_controller

(* What the stateful atoms read.  The ownership filter "keeps track of
   the issuers of all the existing flows" (§IV-B); here the flows are
   that record: the kernel stamps every rule with its issuer's cookie,
   so the bound data plane's tables answer OWN_FLOWS and
   MAX_RULE_COUNT, and no check records anything. *)
type tables = {
  mutable bound : binding option;
      (** Set by {!bind}.  [None]: an empty network, with no cookie of
          its own. *)
  mutable scratch : (dpid * Flow_table.t) list;
      (** A transaction's copies of the switches it has touched, read in
          front of the bound tables; empty outside
          {!check_transaction}. *)
}

and binding = { dataplane : Dataplane.t; cookie : int }

type t = {
  manifest : Perm.manifest;
  vtopo : Vtopo.t option;
  tables : tables;
  env : Filter_eval.env;
  automaton : Automaton.t;
      (** The manifest compiled once, at load time, into a decision
          DAG over [env]: every token decision goes through it. *)
  confined : int Atomic.t;
      (** Calls denied by virtual-topology confinement, which the
          automaton never sees; bumped on lock-free check paths. *)
}

(* The stateful environment --------------------------------------------------- *)

(* [dpid]'s table as a check sees it: the transaction's scratch copy if
   it has one, else the bound switch's. *)
let table_at tables (b : binding) dpid =
  match List.assoc_opt dpid tables.scratch with
  | Some _ as copy -> copy
  | None -> (
    match Dataplane.switch_opt b.dataplane dpid with
    | Some sw -> Some sw.Switch.table
    | None -> None)

(* The OWN_FLOWS test on one table: an Add must not overlap another
   app's rule (the anti-shadowing, anti-tunnel property of §VII
   Scenario 2); a Modify or Delete must target only the app's own. *)
let owns_all table ~cookie ~(command : Flow_mod.command) ~match_ =
  let foreign (e : Flow_table.entry) =
    e.cookie <> cookie
    &&
    match command with
    | Flow_mod.Add -> Match_fields.compatible e.match_ match_
    | Flow_mod.Modify | Flow_mod.Delete ->
      Match_fields.subsumes ~outer:match_ ~inner:e.match_
  in
  Flow_table.fold (fun e ok -> ok && not (foreign e)) table true

let count table ~cookie =
  Flow_table.fold
    (fun (e : Flow_table.entry) n -> if e.cookie = cookie then n + 1 else n)
    table 0

(* A call on a virtual big switch has no table to read, so under a
   virtual topology the stateful atoms deny; an entry being vetted is
   physical and carries its owner's cookie either way. *)
let env_of ~virtual_ tables : Filter_eval.env =
  { Filter_eval.owns_all_targeted =
      (fun attrs ->
        match (attrs.Attrs.cookie, tables.bound) with
        | Some c, Some b -> c = b.cookie
        | Some _, None -> false
        | None, _ when virtual_ -> false
        | None, None -> true
        | None, Some b -> (
          match (attrs.Attrs.dpid, attrs.Attrs.match_, attrs.Attrs.flow_command) with
          | Some dpid, Some match_, Some command -> (
            match table_at tables b dpid with
            | Some table -> owns_all table ~cookie:b.cookie ~command ~match_
            | None -> true)
          | _ -> true));
    rule_count =
      (fun dpid ->
        match tables.bound with
        | _ when virtual_ -> max_int
        | None -> 0
        | Some b -> (
          match dpid with
          | Some d -> (
            match table_at tables b d with
            | Some table -> count table ~cookie:b.cookie
            | None -> 0)
          | None ->
            Hashtbl.fold
              (fun d _ n ->
                match table_at tables b d with
                | Some table -> n + count table ~cookie:b.cookie
                | None -> n)
              b.dataplane.Dataplane.switches 0)) }

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

(** Build an engine for [app_name].  [topo] enables virtual-topology
    translation when the manifest requests it.  Manifests containing
    unexpanded macros are rejected: reconciliation must run first. *)
let create ?topo ~app_name (manifest : Perm.manifest) : t =
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
  let tables = { bound = None; scratch = [] } in
  let env = env_of ~virtual_:(vtopo <> None) tables in
  { manifest; vtopo; tables; env;
    automaton = Automaton.of_manifest ~env manifest;
    confined = Atomic.make 0 }

(** Bind the engine to the data plane its calls run against, and the
    cookie its app's rules carry there. *)
let bind t dataplane ~cookie = t.tables.bound <- Some { dataplane; cookie }

(* Token resolution --------------------------------------------------------- *)

(** Which token a call requires (see {!Dispatch.token_of_call};
    re-exported here because the engine is where most callers already
    look for it). *)
let token_of_call = Dispatch.token_of_call

(* Checking ------------------------------------------------------------------

   The automaton decides every token; the engine adds what the
   automaton does not do: virtual-topology confinement in front. *)

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

(** Check one call.  A flow-mod's verdict reads the bound tables, so a
    caller that executes it must hold those tables still from check to
    execution, as the runtime does under its kernel lock. *)
let check t call =
  if escapes_vtopo t call then confine t confinement_denial
  else Automaton.check t.automaton call

(** Batched checking: one verdict per call, in order, each decided as
    {!check} would at that position.  Without a virtual topology the
    burst goes through {!Automaton.check_batch} in one pass; with one,
    each element takes the ordinary {!check} path. *)
let check_batch t (calls : Api.call array) : Api.decision array =
  if t.vtopo = None then Automaton.check_batch t.automaton calls
  else Array.map (check t) calls

(* Apply an allowed flow-mod of a transaction to a scratch copy of its
   switch, stamped as the kernel will stamp it, so the group's later
   calls see it.  [Flow_table.apply] is the one place the replace and
   subsume rules live.  A switch the data plane lacks gets no copy: the
   kernel will refuse the flow-mod, so nothing lands there. *)
let stage t (call : Api.call) =
  match (call, t.tables.bound) with
  | Api.Install_flow (dpid, fm), Some b -> (
    (match Dataplane.switch_opt b.dataplane dpid with
    | Some sw when not (List.mem_assoc dpid t.tables.scratch) ->
      t.tables.scratch <- (dpid, Flow_table.copy sw.Switch.table) :: t.tables.scratch
    | _ -> ());
    match List.assoc_opt dpid t.tables.scratch with
    | Some copy -> ignore (Flow_table.apply copy { fm with cookie = b.cookie })
    | None -> ())
  | _ -> ()

(** Transactional check (§VI-B2): every call in the group must pass,
    and each later call sees the earlier calls' flow-mods.  Nothing is
    executed here, so a denied group has nothing to undo; the scratch
    copies are dropped either way. *)
let check_transaction t (calls : Api.call list) :
    (unit, int * string) Stdlib.result =
  let rec go i = function
    | [] -> Ok ()
    | call :: rest -> (
      match check t call with
      | Api.Allow ->
        stage t call;
        go (i + 1) rest
      | Api.Deny why -> Error (i, why))
  in
  Fun.protect ~finally:(fun () -> t.tables.scratch <- []) (fun () -> go 0 calls)

(** {!check} with provenance: the same decision (and counters) plus a
    prose account of the deciding token and filter clause, read off
    the same automaton walk. *)
let check_explained t call =
  if escapes_vtopo t call then confine t (confinement_denial, confinement_info)
  else Automaton.check_explained t.automaton call

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
    bind = (fun dataplane ~cookie -> bind t dataplane ~cookie);
    granted = (fun cap -> granted t cap);
    explain = Some (fun call -> check_explained t call);
    snapshot = None }

let stats t =
  let checks, denials = Automaton.stats t.automaton in
  let confined = Atomic.get t.confined in
  (checks + confined, denials + confined)
