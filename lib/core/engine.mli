(** The permission engine (PE, §VI-B).

    One engine guards one app: it holds the reconciled manifest,
    answers allow/deny for every API call, tracks ownership and rule
    budgets in an {!Ownership} store shared with the other apps'
    engines, enforces transactional call groups, translates
    virtual-topology calls and vets read results for visibility.
    {!checker} packages all of it as a controller-pluggable
    {!Shield_controller.Api.checker}. *)

open Shield_net
open Shield_controller

type t

val create :
  ?topo:Topology.t ->
  ?record_state:bool ->
  ownership:Ownership.t ->
  app_name:string ->
  cookie:int ->
  Perm.manifest ->
  t
(** Build an engine.  The manifest is compiled once, here, into an
    {!Automaton} decision DAG whose stateful atoms (OWN_FLOWS,
    MAX_RULE_COUNT) read [ownership] live; every check decides through
    it.  [ownership] must be shared across all engines of one
    deployment; [topo] enables virtual-topology translation when the
    manifest requests it; [record_state:false] disables ownership
    recording (pure stateless checking, as the paper characterises the
    engine for its Figure-5 microbenchmark).  Compilation ticks the
    ambient {!Budget} once per DAG node.

    @raise Invalid_argument on manifests with unresolved stub macros
    (reconciliation must run first) and on virtual-topology manifests
    without a [topo]. *)

val token_of_call : Api.call -> Token.t option
(** Which token a call requires; [None] = no permission needed
    (inter-app publications and their receipt). *)

val check : t -> Api.call -> Api.decision
(** Check one call.  Approved flow-mods update the ownership store
    (unless [record_state:false]). *)

val check_batch : t -> Api.call array -> Api.decision array
(** Check a burst of calls: one verdict per call, in order, each
    decided exactly as {!check} would at that position (same counters,
    same deny messages).  Unless a virtual topology is active or the
    burst holds a flow-mod to record, it is decided by one
    {!Automaton.check_batch} pass, which amortizes per-call dispatch;
    otherwise it is a loop over {!check}. *)

val check_explained : t -> Api.call -> Api.decision * Api.check_info
(** {!check} with provenance: the identical decision (same ownership
    recording, counters and [Deny] messages), plus a prose account of
    the deciding token and top-level filter clause, worded as
    {!Filter_eval.explain}.  This is what the engine's {!checker}
    exposes as its [explain] entry point. *)

val check_transaction : t -> Api.call list -> (unit, int * string) result
(** Transactional check (§VI-B2): every call must pass; earlier calls'
    state is visible to later ones; everything rolls back on a denial.
    [Error (i, why)] identifies the first offending call. *)

val rewrite : t -> Api.call -> Api.call list
(** Virtual-topology translation (§VI-B1): calls addressed to the big
    switch become per-hop physical calls / per-member fan-outs. *)

val merge_results : Api.call -> Api.result list -> Api.result
(** Merge the results of rewritten calls back into one. *)

val vet_result : t -> Api.call -> Api.result -> Api.result
(** Visibility filtering of read results: flow entries, topology view
    and statistics are restricted to what the filters allow, and
    aggregated onto the big switch under a virtual topology. *)

val observe : t -> Api.state_change -> unit
(** React to controller state changes (flow expirations leave the
    ownership store). *)

val granted : t -> Api.capability -> bool
(** Load-time capability test (§VIII-B): is the token behind the
    capability granted at all, whatever its filters? *)

val checker : t -> Api.checker
(** The engine as a pluggable checker for
    {!Shield_controller.Runtime}. *)

val stats : t -> int * int
(** (checks performed, denials). *)
