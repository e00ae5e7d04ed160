(** A switch's flow table: OpenFlow 1.0 add/modify/delete semantics and
    per-entry counters, stored as a tuple-space classifier.  A lookup,
    and an Add that replaces an entry, cost the same whatever the number
    of entries.  Among equal priorities the entry installed first wins. *)

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

type t

val create : unit -> t
val size : t -> int

val entries : t -> entry list
(** All entries, by decreasing priority; equal priorities in install
    order. *)

val fold : (entry -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over all entries in no particular order, building no list. *)

val copy : t -> t
(** An independent table with the same entries, clock and install
    order: flow-mods applied to either leave the other unchanged. *)

val tick : t -> unit
(** Advance the logical clock. *)

val entry_of_flow_mod : clock:int -> Flow_mod.t -> entry

val same_rule : entry -> match_:Match_fields.t -> priority:int -> bool
(** The entry an Add of [match_] at [priority] replaces. *)

val apply : t -> Flow_mod.t -> entry list
(** Apply a flow-mod.  [Add] replaces an identical (match, priority)
    entry; [Modify] rewrites actions of all entries subsumed by the
    match; [Delete] removes all entries subsumed by the match (any
    priority), returning the removed entries so flow-removed events can
    fire. *)

val lookup : t -> in_port:Types.port_no -> Packet.t -> entry option
(** Highest-priority entry matching the packet; bumps its counters. *)

val query : t -> Match_fields.t option -> entry list
(** Entries whose match is subsumed by the pattern ([None] = all), in
    {!entries} order. *)

val flow_stats : t -> Match_fields.t option -> Stats.flow_stat list

val expire : t -> entry list
(** Expire idle/hard-timed-out entries relative to the logical clock.
    Idle expiry is approximated: an entry with packet_count = 0 counts
    as idle since installation. *)

val pp_entry : entry Fmt.t
val pp : t Fmt.t
