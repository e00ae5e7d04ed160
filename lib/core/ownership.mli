(** Flow ownership and rule-budget bookkeeping (§IV-B: the ownership
    filter "inspects and keeps track of the issuers of all the existing
    flows").

    One store is shared by all permission engines of a deployment.  All
    operations are thread-safe; {!snapshot}/{!restore} give the
    transactional rollback {!Engine.check_transaction} needs. *)

open Shield_openflow
open Shield_openflow.Types

type rule = { match_ : Match_fields.t; priority : int; cookie : int }

type t

val create : unit -> t
val all_rules : t -> (dpid * rule) list

val record : t -> dpid:dpid -> Flow_mod.t -> cookie:int -> unit
(** Record an approved flow-mod: adds on [Add], re-attributes on
    [Modify], removes subsumed rules on [Delete].  [cookie] attributes
    rules whose flow-mod cookie is unset. *)

val forget : t -> dpid:dpid -> match_:Match_fields.t -> cookie:int -> unit
(** Drop a rule the switch expired (flow-removed event). *)

val owns_all_targeted :
  t -> cookie:int -> dpid:dpid -> command:Flow_mod.command ->
  match_:Match_fields.t -> bool
(** The OWN_FLOWS test: on [Add] the new rule must not overlap any
    other app's rule (the anti-shadowing/anti-tunnel property of §VII
    Scenario 2); on [Modify]/[Delete] every targeted rule must be
    owned. *)

val count : t -> cookie:int -> dpid:dpid option -> int
(** Rules attributed to [cookie] ([None] = whole domain) — the
    MAX_RULE_COUNT budget. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
