(* The comparison defenses of Table I.

   The paper compares SDNShield's attack coverage against two existing
   approach families:

   - *Traffic isolation* (network slicing, FlowVisor-style): each app
     is confined to a slice of flowspace/switches.  It stops
     cross-slice attacks but "delivers no security to apps deployed on
     one network slice that collaboratively process the same set of
     traffic" — an attacker sharing the victim's slice is unconstrained.

   - *Network state analysis* (header-space/veriflow-style): verifies
     global invariants over installed rules.  It can flag rule
     manipulation (route deviations, header-rewrite tunnels) but cannot
     see traffic sniffing/injection or host-side information leakage.

   Both are implemented here at the fidelity Table I needs: slicing as
   an [Api.checker], state analysis as a rule auditor over the
   simulated data plane. *)

open Shield_openflow
open Shield_openflow.Types
open Shield_controller
open Shield_net

(* Traffic isolation ---------------------------------------------------------- *)

type slice = {
  switches : int list;  (** Switches the slice spans; [] = all. *)
  flowspace : Match_fields.t;  (** Flowspace the app may program. *)
}

let full_slice = { switches = []; flowspace = Match_fields.wildcard_all }

(** A slicing reference monitor: write-type calls must stay within the
    slice's switches and flowspace.  Note what it does NOT check:
    reads, events, payload access, and host syscalls all pass — slicing
    isolates slices from each other, not apps within a slice. *)
let slicing_checker (slice : slice) : Api.checker =
  let switch_ok d = slice.switches = [] || List.mem d slice.switches in
  let check (call : Api.call) : Api.decision =
    match call with
    | Api.Install_flow (d, fm) ->
      if not (switch_ok d) then Api.Deny "slicing: switch outside slice"
      else if
        not
          (Match_fields.subsumes ~outer:slice.flowspace
             ~inner:fm.Flow_mod.match_)
      then Api.Deny "slicing: flowspace violation"
      else Api.Allow
    | Api.Send_packet_out { dpid; _ } | Api.Modify_topology (Api.Add_switch dpid)
    | Api.Modify_topology (Api.Remove_switch dpid) ->
      if switch_ok dpid then Api.Allow else Api.Deny "slicing: switch outside slice"
    | _ -> Api.Allow
  in
  { Api.allow_all with
    check;
    check_transaction =
      (fun calls ->
        let rec go i = function
          | [] -> Ok ()
          | c :: rest -> (
            match check c with
            | Api.Allow -> go (i + 1) rest
            | Api.Deny why -> Error (i, why))
        in
        go 0 calls) }

(* Network state analysis ------------------------------------------------------ *)

type invariant_violation = {
  dpid : dpid;
  kind : [ `Header_rewrite_pair | `Shadowing | `Blackhole ];
  detail : string;
}

(** Audit the installed rules for classic control-plane-attack
    signatures:
    - [`Header_rewrite_pair]: complementary port/address rewrites at
      two switches — the dynamic-flow-tunnel signature;
    - [`Shadowing]: a rule from one issuer overriding (higher priority,
      overlapping match) a rule from another issuer;
    - [`Blackhole]: a high-priority rule dropping traffic another rule
      would have forwarded. *)
let analyze_rules (dp : Dataplane.t) : invariant_violation list =
  let tables =
    List.map
      (fun d -> (d, Flow_table.entries (Dataplane.switch dp d).Switch.table))
      (Topology.switches dp.Dataplane.topo)
  in
  let rewrites =
    List.concat_map
      (fun (d, entries) ->
        List.filter_map
          (fun (e : Flow_table.entry) ->
            let sets =
              List.filter_map
                (function Action.Set f -> Some f | _ -> None)
                e.actions
            in
            if sets = [] then None else Some (d, e, sets))
          entries)
      tables
  in
  let rewrite_pairs =
    (* A set-field at one switch whose inverse field appears at another:
       the tunnel signature. *)
    List.concat_map
      (fun (d1, (e1 : Flow_table.entry), sets1) ->
        List.filter_map
          (fun (d2, (e2 : Flow_table.entry), sets2) ->
            if d1 >= d2 then None
            else if
              List.exists
                (fun s1 ->
                  List.exists
                    (fun s2 ->
                      Action.set_field_name s1 = Action.set_field_name s2
                      && s1 <> s2)
                    sets2)
                sets1
            then
              Some
                { dpid = d1; kind = `Header_rewrite_pair;
                  detail =
                    Fmt.str "complementary rewrites at s%d/s%d (cookies %d,%d)"
                      d1 d2 e1.cookie e2.cookie }
            else None)
          rewrites)
      rewrites
  in
  let shadowing =
    List.concat_map
      (fun (d, entries) ->
        List.concat_map
          (fun (hi : Flow_table.entry) ->
            List.filter_map
              (fun (lo : Flow_table.entry) ->
                if
                  hi.priority > lo.priority
                  && hi.cookie <> lo.cookie && lo.cookie <> 0
                  && Match_fields.compatible hi.match_ lo.match_
                then
                  Some
                    { dpid = d; kind = `Shadowing;
                      detail =
                        Fmt.str
                          "cookie %d rule (prio %d) shadows cookie %d rule \
                           (prio %d)"
                          hi.cookie hi.priority lo.cookie lo.priority }
                else None)
              entries)
          entries)
      tables
  in
  let blackholes =
    List.concat_map
      (fun (d, entries) ->
        List.concat_map
          (fun (hi : Flow_table.entry) ->
            if hi.actions <> [] then []
            else
              List.filter_map
                (fun (lo : Flow_table.entry) ->
                  if
                    hi.priority > lo.priority && hi.cookie <> lo.cookie
                    && Action.forwards lo.actions
                    && Match_fields.compatible hi.match_ lo.match_
                  then
                    Some
                      { dpid = d; kind = `Blackhole;
                        detail =
                          Fmt.str "drop rule (cookie %d) blackholes cookie %d"
                            hi.cookie lo.cookie }
                  else None)
                entries)
          entries)
      tables
  in
  rewrite_pairs @ shadowing @ blackholes

let has_violation kind violations =
  List.exists (fun v -> v.kind = kind) violations
