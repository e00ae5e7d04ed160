(* Shared check-path plumbing.

   Every decision answers the same question before it evaluates a
   single filter: which token does this call require?  This module
   holds the answer, so the [Engine], its [Automaton] and the
   [Filter_eval] oracle's callers share one call→token mapping instead
   of drifting copies. *)

open Shield_openflow
open Shield_controller

(** Which token a call requires.  [None] = no permission needed
    (inter-app publications and their receipt are governed by
    subscription, not tokens). *)
let token_of_call (call : Api.call) : Token.t option =
  match call with
  | Api.Install_flow (_, fm) -> (
    match fm.Flow_mod.command with
    | Flow_mod.Add | Flow_mod.Modify -> Some Token.Insert_flow
    | Flow_mod.Delete -> Some Token.Delete_flow)
  | Api.Read_flow_table _ -> Some Token.Read_flow_table
  | Api.Read_topology -> Some Token.Visible_topology
  | Api.Modify_topology _ -> Some Token.Modify_topology
  | Api.Read_stats _ -> Some Token.Read_statistics
  | Api.Send_packet_out _ -> Some Token.Send_pkt_out
  | Api.Receive_event k -> (
    match k with
    | Api.E_packet_in -> Some Token.Pkt_in_event
    | Api.E_flow -> Some Token.Flow_event
    | Api.E_topology -> Some Token.Topology_event
    | Api.E_error -> Some Token.Error_event
    | Api.E_stats -> Some Token.Read_statistics
    | Api.E_app _ -> None)
  | Api.Read_payload_access -> Some Token.Read_payload
  | Api.Publish_event _ -> None
  | Api.Syscall (Api.Net_connect _) -> Some Token.Host_network
  | Api.Syscall (Api.File_open _) -> Some Token.File_system
  | Api.Syscall (Api.Spawn_process _) -> Some Token.Process_runtime

(* Index-encoded dispatch for the hot paths: [token_of_call] returns a
   statically-allocated [Some] (nullary payloads), but callers that
   only want a token-indexed array slot can skip the option entirely.
   The indexes are bound once from [Token.index] so the two mappings
   cannot drift. *)

let ix_read_flow_table = Token.index Token.Read_flow_table
let ix_insert_flow = Token.index Token.Insert_flow
let ix_delete_flow = Token.index Token.Delete_flow
let ix_flow_event = Token.index Token.Flow_event
let ix_visible_topology = Token.index Token.Visible_topology
let ix_modify_topology = Token.index Token.Modify_topology
let ix_topology_event = Token.index Token.Topology_event
let ix_read_statistics = Token.index Token.Read_statistics
let ix_error_event = Token.index Token.Error_event
let ix_read_payload = Token.index Token.Read_payload
let ix_send_pkt_out = Token.index Token.Send_pkt_out
let ix_pkt_in_event = Token.index Token.Pkt_in_event
let ix_host_network = Token.index Token.Host_network
let ix_file_system = Token.index Token.File_system
let ix_process_runtime = Token.index Token.Process_runtime

(** [Token.index]-encoded {!token_of_call}: the required token's index,
    or [-1] when no permission is needed.  Allocation-free. *)
let token_index_of_call (call : Api.call) : int =
  match call with
  | Api.Install_flow (_, fm) -> (
    match fm.Flow_mod.command with
    | Flow_mod.Add | Flow_mod.Modify -> ix_insert_flow
    | Flow_mod.Delete -> ix_delete_flow)
  | Api.Read_flow_table _ -> ix_read_flow_table
  | Api.Read_topology -> ix_visible_topology
  | Api.Modify_topology _ -> ix_modify_topology
  | Api.Read_stats _ -> ix_read_statistics
  | Api.Send_packet_out _ -> ix_send_pkt_out
  | Api.Receive_event k -> (
    match k with
    | Api.E_packet_in -> ix_pkt_in_event
    | Api.E_flow -> ix_flow_event
    | Api.E_topology -> ix_topology_event
    | Api.E_error -> ix_error_event
    | Api.E_stats -> ix_read_statistics
    | Api.E_app _ -> -1)
  | Api.Read_payload_access -> ix_read_payload
  | Api.Publish_event _ -> -1
  | Api.Syscall (Api.Net_connect _) -> ix_host_network
  | Api.Syscall (Api.File_open _) -> ix_file_system
  | Api.Syscall (Api.Spawn_process _) -> ix_process_runtime
