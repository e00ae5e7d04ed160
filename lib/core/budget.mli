(** Resource budgets for admitting untrusted manifests and policies
    (docs/VETTING.md).

    Manifests and policies arrive from an untrusted app market (§III
    threat model), so every stage of the admission pipeline — lexing,
    parsing, macro expansion, normal-form conversion, inclusion
    checking, reconciliation — runs under explicit, fail-closed limits.
    A budget accounts for steps (cheap work ticks), clause allocations
    (the currency of Algorithm 1's CNF/DNF distribution), expression
    nodes built by macro expansion, nesting depth, and a wall-clock
    deadline.  Exhausting any limit raises {!Exhausted} with the stage
    and the resources spent, which {!Vetting} converts into a
    structured [Rejected] verdict — never a hang, a heap blowup, or an
    uncaught exception.

    The budget is installed as an {e ambient scope} ({!with_scope})
    rather than threaded through every signature: the admission
    pipeline reuses the production checking/reconciliation code paths,
    and those paths stay zero-cost when no scope is installed (every
    hook is a no-op).  Scopes are per-domain (stored in domain-local
    state); run one admission at a time per domain — concurrent
    admissions belong on separate domains. *)

type limits = {
  max_steps : int;  (** Work ticks across the whole pipeline. *)
  max_clauses : int;
      (** Cumulative clauses built by CNF/DNF distribution ({!Nf.cross}
          ticks one per merged clause, before allocating it). *)
  max_nodes : int;  (** Expression nodes built by macro expansion. *)
  max_depth : int;  (** Nesting depth (parsers, structural checks). *)
  deadline : float option;  (** Wall-clock seconds for the pipeline. *)
}

val default_limits : limits
(** Generous enough for every legitimate manifest/policy in the test
    and bench corpus; tight enough that every hostile family in
    [bench/vetting_lab.ml] is cut off in well under a second. *)

type spent = {
  steps : int;
  clauses : int;
  nodes : int;
  depth_hwm : int;  (** Deepest nesting observed. *)
  elapsed : float;  (** Seconds since {!create}. *)
}

exception Exhausted of { stage : string; reason : string; spent : spent }
(** Raised by the tick functions when a limit is exceeded.  [stage] is
    the last {!set_stage} label ("parse", "expand", "normalize",
    "reconcile", …). *)

exception Too_large
(** Raised by the normal-form conversion past its clause or width cap
    (re-exported as [Nf.Too_large]).  A caller with a conservative
    answer catches it; every other caller leaves it to {!absorb}. *)

type t

val create : ?limits:limits -> unit -> t
val limits : t -> limits
val spent : t -> spent

val notes : t -> string list
(** Degradation notes recorded by {!note} (deduplicated, oldest
    first): conservative fallbacks taken while the scope was active. *)

val with_scope : t -> (unit -> 'a) -> 'a
(** Install [t] as the ambient budget for the calling domain while [f]
    runs; restores the previous scope (scopes nest) even on raise. *)

val current : unit -> t option
(** The ambient budget of the calling domain, if any. *)

(** {1 Ambient hooks} — all no-ops when no scope is installed. *)

val set_stage : string -> unit
(** Label subsequent exhaustion reports (and {!Exhausted.stage}). *)

val stage : unit -> string
(** Current stage label; ["?"] without a scope. *)

val step : ?cost:int -> unit -> unit
(** Account [cost] (default 1) work ticks.
    @raise Exhausted past [max_steps] or the deadline (the deadline is
    polled every 1024 ticks to keep the hook cheap). *)

val alloc_clauses : int -> unit
(** Account clauses about to be built.
    @raise Exhausted past [max_clauses]. *)

val alloc_nodes : int -> unit
(** Account expression nodes about to be built.
    @raise Exhausted past [max_nodes]. *)

val depth : int -> unit
(** Record nesting depth [d] (tracks the high-water mark).
    @raise Exhausted past [max_depth]. *)

val note : string -> unit
(** Record that a conservative fallback was taken (e.g. a normal-form
    conversion blew past [max_clauses] and the caller answered
    fail-closed).  Deduplicated. *)

(** {1 The exception barrier} *)

type failure = {
  stage : string;  (** The {!set_stage} label when the failure struck. *)
  reason : string;
  spent : spent;  (** Resources consumed up to the failure. *)
}

val absorb : (unit -> 'a) -> ('a, failure) result
(** [absorb f] runs [f] and turns any exception it raises into a
    fail-closed [Error]: the one barrier of the admission analyses
    (vetting, lint, verify, diff and each transaction stage).  The
    reason names the class: ["budget exhausted: <limit>"] for
    {!Exhausted} (whose own stage and spent it keeps), ["normal form
    too large"] for {!Too_large}, ["stack overflow (unbudgeted
    recursion)"] and ["out of memory (unbudgeted allocation)"] for the
    two the analyses are built never to hit, ["injected fault at
    <site>"] for an armed fault site, the message of an
    [Invalid_argument] or [Failure] (a refusal that says why), and
    ["internal error: <exception>"] for anything else.  Outside a
    scope the stage is ["?"] and nothing is spent. *)

val pp_spent : Format.formatter -> spent -> unit
