(* Reference flow table for the oracle property in test_network.ml: a
   list sorted by decreasing priority, scanned front to back.  Same
   OpenFlow 1.0 add/modify/delete semantics and per-entry counters as
   [Shield_net.Flow_table]; obviously correct, and linear in the number
   of entries. *)

open Shield_openflow

type entry = {
  match_ : Match_fields.t;
  priority : int;
  actions : Action.t list;
  cookie : int;
  idle_timeout : int;
  hard_timeout : int;
  mutable packet_count : int64;
  mutable byte_count : int64;
  mutable install_time : int;  (** Logical clock tick of installation. *)
}

type t = {
  mutable entries : entry list;  (** Sorted by decreasing priority. *)
  mutable clock : int;
}

let create () = { entries = []; clock = 0 }
let size t = List.length t.entries
let entries t = t.entries
let tick t = t.clock <- t.clock + 1

let entry_of_flow_mod ~clock (fm : Flow_mod.t) =
  { match_ = fm.match_; priority = fm.priority; actions = fm.actions;
    cookie = fm.cookie; idle_timeout = fm.idle_timeout;
    hard_timeout = fm.hard_timeout; packet_count = 0L; byte_count = 0L;
    install_time = clock }

let insert_sorted entry entries =
  let rec go = function
    | [] -> [ entry ]
    | e :: rest when entry.priority > e.priority -> entry :: e :: rest
    | e :: rest -> e :: go rest
  in
  go entries

let same_rule a ~match_ ~priority =
  a.priority = priority && Match_fields.equal a.match_ match_

(** Apply [fm].  [Add] replaces an identical (match, priority) entry;
    [Modify] rewrites actions of all entries subsumed by the match;
    [Delete] removes all entries subsumed by the match (any priority),
    returning the removed entries so flow-removed events can fire. *)
let apply t (fm : Flow_mod.t) : entry list =
  match fm.command with
  | Add ->
    let removed, kept =
      List.partition
        (fun e -> same_rule e ~match_:fm.match_ ~priority:fm.priority)
        t.entries
    in
    t.entries <- insert_sorted (entry_of_flow_mod ~clock:t.clock fm) kept;
    removed
  | Modify ->
    let touched = ref false in
    t.entries <-
      List.map
        (fun e ->
          if Match_fields.subsumes ~outer:fm.match_ ~inner:e.match_ then begin
            touched := true;
            { e with actions = fm.actions; cookie = fm.cookie }
          end
          else e)
        t.entries;
    if not !touched then
      (* OF 1.0: MODIFY with no matching entry behaves as ADD. *)
      t.entries <-
        insert_sorted (entry_of_flow_mod ~clock:t.clock fm) t.entries;
    []
  | Delete ->
    let removed, kept =
      List.partition
        (fun e -> Match_fields.subsumes ~outer:fm.match_ ~inner:e.match_)
        t.entries
    in
    t.entries <- kept;
    removed

(** Highest-priority entry matching [pkt]; bumps its counters. *)
let lookup t ~in_port (pkt : Packet.t) =
  let rec first = function
    | [] -> None
    | e :: rest ->
      if Match_fields.matches e.match_ ~in_port pkt then Some e
      else first rest
  in
  match first t.entries with
  | Some e ->
    e.packet_count <- Int64.add e.packet_count 1L;
    e.byte_count <- Int64.add e.byte_count (Int64.of_int (Packet.size pkt));
    Some e
  | None -> None

(** Entries whose match is subsumed by [pattern] ([None] = all). *)
let query t (pattern : Match_fields.t option) =
  match pattern with
  | None -> t.entries
  | Some p ->
    List.filter
      (fun e -> Match_fields.subsumes ~outer:p ~inner:e.match_)
      t.entries

let flow_stats t pattern : Stats.flow_stat list =
  List.map
    (fun e ->
      { Stats.match_ = e.match_; priority = e.priority; cookie = e.cookie;
        packet_count = e.packet_count; byte_count = e.byte_count;
        duration_sec = t.clock - e.install_time })
    (query t pattern)

(** Expire idle/hard-timed-out entries relative to the logical clock.
    Idle expiry is approximated: an entry with packet_count = 0 counts as
    idle since installation. *)
let expire t =
  let expired, kept =
    List.partition
      (fun e ->
        let age = t.clock - e.install_time in
        (e.hard_timeout > 0 && age >= e.hard_timeout)
        || (e.idle_timeout > 0 && e.packet_count = 0L && age >= e.idle_timeout))
      t.entries
  in
  t.entries <- kept;
  expired

let pp_entry ppf e =
  Fmt.pf ppf "@[<h>prio=%d [%a] -> %a cookie=%d pkts=%Ld@]" e.priority
    Match_fields.pp e.match_ Action.pp_list e.actions e.cookie e.packet_count

let pp ppf t = Fmt.(vbox (list pp_entry)) ppf t.entries
