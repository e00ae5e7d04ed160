(** Permission comparison — Algorithm 1 of the paper (§V-B1).

    Permission expressions denote behaviour sets; comparisons are set
    inclusions.  The procedure is sound but deliberately incomplete:
    unprovable cases answer [false], so reconciliation errs toward
    restriction.  Soundness against the evaluation semantics is
    property-tested. *)

val singleton_includes : Filter.singleton -> Filter.singleton -> bool
(** [singleton_includes a b] — every behaviour [b] allows, [a] allows.
    Only claimable within one attribute dimension. *)

val singleton_disjoint : Filter.singleton -> Filter.singleton -> bool
(** Range disjointness on one dimension.  NOT semantic emptiness of
    [a ∩ b]: under the vacuous-pass convention, calls lacking the
    dimension satisfy both.  Exposed for diagnostics; the inclusion
    algorithm never uses it. *)

val conj_clause_includes : Nf.clause -> Nf.clause -> bool
(** [conj_clause_includes a x] — conjunctive (DNF) clause [a] allows
    every behaviour conjunctive clause [x] allows: every literal of
    [a] includes some literal of [x] (or [x] is contradictory).
    Sound, incomplete.  The empty (True) clause includes everything.
    Used by the lint shadowed-clause rule (docs/LINTING.md). *)

val filter_includes : ?max_clauses:int -> Filter.expr -> Filter.expr -> bool
(** [filter_includes a b] — filter [a] allows every behaviour [b]
    allows.  CNF(a) × DNF(b) clause-pairwise comparison; conservative
    [false] past the [max_clauses] guard.  Answers are memoized on
    [(a, b, max_clauses)] in a bounded process-wide table, counted by
    the {!Shield_controller.Metrics} counters [inclusion-memo:hits],
    [inclusion-memo:misses] and [inclusion-memo:evictions];
    expressions are immutable, so memoized answers equal
    recomputation. *)

val clear_memo : unit -> unit
(** Drop the inclusion memo table (counters are kept). *)

val filter_satisfiable : ?max_clauses:int -> Filter.expr -> bool
(** Conservative satisfiability: [false] only when the filter provably
    denotes the empty behaviour set (complementary literals in every
    DNF clause). *)

val manifest_includes : Perm.manifest -> Perm.manifest -> bool
(** Manifest-level inclusion: per-token filter inclusion (tokens are
    orthogonal). *)

val manifest_equal : Perm.manifest -> Perm.manifest -> bool
(** Semantic equality: mutual inclusion. *)

val manifests_overlap : Perm.manifest -> Perm.manifest -> bool
(** Do the two manifests share any allowed behaviour?  The possession
    test behind mutual-exclusion constraints; conservative toward
    reporting overlap. *)

val compare_manifests :
  Perm.manifest -> Perm.manifest -> [ `Equal | `Subset | `Superset | `Incomparable ]
