(** The permission engine (PE, §VI-B).

    One engine guards one app: it holds the reconciled manifest,
    answers allow/deny for every API call, answers ownership and rule
    budgets from the flow tables of the data plane it is {!bind}-ed to,
    checks transactional call groups, translates virtual-topology calls
    and vets read results for visibility.  {!checker} packages all of it
    as a controller-pluggable {!Shield_controller.Api.checker}. *)

open Shield_net
open Shield_controller

type t

val create : ?topo:Topology.t -> app_name:string -> Perm.manifest -> t
(** Build an engine.  The manifest is compiled once, here, into an
    {!Automaton} decision DAG whose stateful atoms (OWN_FLOWS,
    MAX_RULE_COUNT) read the bound flow tables live; every check
    decides through it.  Until {!bind} the engine sees an empty
    network: no rule is the app's, and every budget is unused.  [topo]
    enables virtual-topology translation when the manifest requests
    it; a call on the virtual big switch has no table to read, so its
    stateful atoms deny.  Compilation ticks the ambient {!Budget} once
    per DAG node.

    @raise Invalid_argument on manifests with unresolved stub macros
    (reconciliation must run first) and on virtual-topology manifests
    without a [topo]. *)

val bind : t -> Dataplane.t -> cookie:int -> unit
(** Point the stateful atoms at [dataplane]'s flow tables, where the
    app's rules are the entries carrying [cookie] (the kernel stamps
    every flow-mod it executes with its issuer's cookie).  A rule counts
    while it is in a table: a delete or an expiry frees it at once. *)

val token_of_call : Api.call -> Token.t option
(** Which token a call requires; [None] = no permission needed
    (inter-app publications and their receipt). *)

val check : t -> Api.call -> Api.decision
(** Check one call.  Nothing is recorded: a flow-mod's verdict reads
    the bound tables, so a caller that executes it must keep them still
    from check to execution, as the runtime does under its kernel
    lock. *)

val check_batch : t -> Api.call array -> Api.decision array
(** Check a burst of calls: one verdict per call, in order, each
    decided exactly as {!check} would at that position (same counters,
    same deny messages).  Unless a virtual topology is active, it is
    decided by one {!Automaton.check_batch} pass, which amortizes
    per-call dispatch; otherwise it is a loop over {!check}. *)

val check_explained : t -> Api.call -> Api.decision * Api.check_info
(** {!check} with provenance: the identical decision (same counters
    and [Deny] messages), plus a prose account of the deciding token
    and top-level filter clause, worded as {!Filter_eval.explain}.  This is what the engine's {!checker}
    exposes as its [explain] entry point. *)

val check_transaction : t -> Api.call list -> (unit, int * string) result
(** Transactional check (§VI-B2): every call must pass, and each later
    call sees the earlier calls' flow-mods, applied to scratch copies of
    the switches they touch.  Nothing executes, so a denied group has
    nothing to undo.  [Error (i, why)] identifies the first offending
    call.  The same caller discipline as {!check} applies, for the
    whole group. *)

val rewrite : t -> Api.call -> Api.call list
(** Virtual-topology translation (§VI-B1): calls addressed to the big
    switch become per-hop physical calls / per-member fan-outs. *)

val merge_results : Api.call -> Api.result list -> Api.result
(** Merge the results of rewritten calls back into one. *)

val vet_result : t -> Api.call -> Api.result -> Api.result
(** Visibility filtering of read results: flow entries, topology view
    and statistics are restricted to what the filters allow, and
    aggregated onto the big switch under a virtual topology. *)

val granted : t -> Api.capability -> bool
(** Load-time capability test (§VIII-B): is the token behind the
    capability granted at all, whatever its filters? *)

val checker : t -> Api.checker
(** The engine as a pluggable checker for
    {!Shield_controller.Runtime}. *)

val stats : t -> int * int
(** (checks performed, denials). *)
