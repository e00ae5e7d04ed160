(** Flat decision automaton: the permission hot path.

    Where {!Filter_eval} interprets the filter AST per call, this
    module compiles each admitted, reconciled manifest down to a {e
    flat decision DAG}, and {!Engine} decides every call through it:

    - {b perfect-hashed token dispatch} — the manifest becomes a root
      table indexed by {!Token.index} (the token enumeration's dense,
      collision-free index), so finding the filter for a call is one
      array load;
    - {b branching-program filters} — each filter expression compiles
      to binary-decision nodes [(test, on-true, on-false)] stored in
      flat parallel arrays; evaluation is an index-chasing loop with
      no closure application and no AST dispatch;
    - {b interval structures for range singletons} — conjunctions of
      [MAX_PRIORITY]/[MIN_PRIORITY] atoms fuse into a single closed
      interval test, conjunctions of [MAX_RULE_COUNT] atoms into one
      budget bound, and disjunctions of same-field integer predicates
      (e.g. port lists) into one sorted-membership test;
    - {b hash-consed shared subtrees} — structurally identical nodes
      are deduplicated across all filters and all permissions of the
      manifest, so repeated policy fragments occupy (and warm) the
      same memory;
    - {b path-sensitive construction} — while compiling a clause
      chain, the tests already decided on the current path are
      threaded as a context, so a predicate the source filter repeats
      (the common "every clause re-states the subnet" idiom) is tested
      once on the compiled path and resolved immediately at every
      later occurrence; a step budget falls back to the linear
      construction for filters where this would blow up;
    - {b direct attribute projection} — evaluation reads header fields
      straight off the call's match record as unboxed integer
      compares, instead of building an attribute record and
      re-projecting (with allocation) at every predicate atom as the
      interpreter does.

    {!check} shares no mutable evaluation state between calls (each
    governed call gets one small immutable context record), so any
    number of threads may check against one automaton concurrently;
    the [stats] counters are atomic, so they stay exact when domains
    check in parallel.

    Decisions are bit-for-bit those of {!Filter_eval.eval} under the
    same environment (property-tested in [test/test_automaton.ml]).
    Construction cost is accounted to the ambient {!Budget} (one tick
    per DAG node), so the admission pipeline builds the automaton
    under the same fail-closed resource discipline as parsing and
    reconciliation.

    Stateful atoms ([OWN_FLOWS], [MAX_RULE_COUNT]) are evaluated live
    through [env] on every visit — the DAG itself never goes stale
    when the flow tables change, and nothing memoizes a decision.

    See docs/AUTOMATON.md for construction details, batch semantics,
    and measured comparisons against the interpreter. *)

type t

val of_manifest : ?env:Filter_eval.env -> Perm.manifest -> t
(** Compile [manifest] once into a decision DAG.  [env] supplies the
    stateful dimensions (defaults to {!Filter_eval.pure_env} for
    stateless checking).  Ticks the ambient {!Budget} once per
    constructed node; callers compiling untrusted manifests should run
    it inside {!Budget.with_scope} (as {!Verify}'s cross-check does). *)

val check : t -> Shield_controller.Api.call -> Shield_controller.Api.decision
(** Decide one call: token-indexed root lookup, then one DAG walk.
    Deny messages are {!Engine.check}'s ("missing permission …", "permission filter
    rejects call: …") and are preallocated per token — the deny path
    does not build strings. *)

val check_batch :
  t ->
  Shield_controller.Api.call array ->
  Shield_controller.Api.decision array
(** Decide a burst of calls (packet-in storms, replayed traces) in one
    go.  Verdicts, order, and check/denial counters are exactly those
    of calling {!check} on each element; the batch hoists the per-call
    dispatch and counter bookkeeping out of the loop and coalesces
    physically equal adjacent calls (storms repeat the same boxed
    event) into one evaluation.  Each call is still decided against the live
    environment at its own position — a batch is not a snapshot or a
    transaction (for all-or-nothing groups use
    {!Engine.check_transaction}). *)

val check_explained :
  t ->
  Shield_controller.Api.call ->
  Shield_controller.Api.decision * Shield_controller.Api.check_info
(** {!check} with provenance: the identical decision plus the deciding
    top-level clause.  The automaton does not re-interpret the source
    filter to explain itself: every DAG leaf records which top-level
    clause it decides, so the walk that produced the verdict also
    names the clause.  Every account is rendered once per token at
    compile time, so explaining a call formats nothing.  The rendered
    account matches {!Filter_eval.explain}'s wording (property-tested). *)

val granted : t -> Token.t -> bool
(** Is a root compiled for [token]? *)

(** Construction-time shape of the DAG, for budget reports and the
    bench tables. *)
type build_stats = {
  nodes : int;  (** Decision nodes in the flat store (after sharing). *)
  shared : int;
      (** Hash-consing hits: nodes requested again and served from the
          store instead of allocated. *)
  collapsed : int;
      (** Redundant tests elided because both branches led to the same
          successor. *)
  tokens : int;  (** Tokens with a compiled root. *)
}

val build_stats : t -> build_stats

val stats : t -> int * int
(** [(checks, denials)] so far. *)
