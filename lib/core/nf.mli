(** Normal forms over filter expressions, as used by Algorithm 1
    (§V-B1): filter A goes to CNF, filter B to DNF, and singleton
    filters are compared clause-pairwise. *)

type literal = { positive : bool; atom : Filter.singleton }
type clause = literal list

exception Too_large
(** {!Budget.Too_large}, re-exported: raised when distribution exceeds
    [max_clauses] (clause count) or 1024 literals in one clause;
    callers fall back to a conservative answer.  The guard is incremental: at most
    [max_clauses] merged clauses exist when it fires — the full
    cross-product intermediate is never materialized. *)

val pos : Filter.singleton -> literal
val negl : Filter.singleton -> literal

val complementary : literal -> literal -> bool
(** The same singleton under opposite polarities. *)

val has_complementary : clause -> bool
(** The clause holds a {!complementary} pair: as a disjunctive (CNF)
    clause it covers everything, as a conjunctive (DNF) clause it
    denotes the empty set.  (Range-disjoint positive pairs do not
    count: a call lacking the dimension satisfies both.) *)

val pp_literal : Format.formatter -> literal -> unit

val cnf : ?max_clauses:int -> Filter.expr -> clause list
(** Conjunction of disjunctive clauses.  [[]] = True; a member [[]] is
    a False clause.  [max_clauses] defaults to 4096.  Conversion is
    depth-safe (CPS — a 100k-deep expression cannot overflow the stack)
    and ticks the ambient {!Budget}.  Conversions — including
    [Too_large] blow-ups — are memoized on [(expr, max_clauses)] in a
    bounded process-wide table; expressions are immutable, so results
    are identical to fresh conversion.  Oversized expressions bypass
    the table.  Hits, misses, evictions and bypasses are the
    {!Shield_controller.Metrics} counters [nf-memo:hits],
    [nf-memo:misses], [nf-memo:evictions] and [nf-memo:bypasses]. *)

val dnf : ?max_clauses:int -> Filter.expr -> clause list
(** Disjunction of conjunctive clauses.  [[]] = False; a member [] is
    a True clause.  Memoized like {!cnf}. *)

val clear_memo : unit -> unit
(** Drop both memo tables (counters are kept).  Useful for cold-start
    measurements. *)

val expr_of_cnf : clause list -> Filter.expr
(** Rebuild an expression from CNF clauses (semantics-preserving,
    property-tested). *)

val expr_of_dnf : clause list -> Filter.expr
