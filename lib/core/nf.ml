(* Normal forms over filter expressions.

   Algorithm 1 (§V-B1) compares Filter A against Filter B by putting A
   in conjunctive normal form and B in disjunctive normal form.  Both
   forms are represented here as clause lists over literals (possibly
   negated singletons).

   Representation conventions:
   - CNF: the list is a conjunction of clauses, each clause a
     disjunction of literals.  [[]]-free empty list = True; a list
     containing an empty clause contains False.
   - DNF: dual — empty list = False; an empty clause = True.

   Distribution can explode exponentially; conversion raises
   [Too_large] past [max_clauses] (clause count) or [max_width]
   (literals per clause) and callers fall back to a conservative
   answer.

   Inputs may be adversarial (untrusted manifests, docs/VETTING.md), so
   the conversion is hardened: [to_nnf] and the distribution walk are
   CPS / tail-recursive (a 100k-deep filter cannot overflow the stack),
   and [cross] guards *while building* the product — the worst-case
   |xs|·|ys| intermediate of a naive concat_map is never materialized;
   at most [max_clauses] merged clauses exist when [Too_large] fires.
   Clause allocations tick the ambient {!Budget}. *)

type literal = { positive : bool; atom : Filter.singleton }
type clause = literal list

exception Too_large = Budget.Too_large

let pos atom = { positive = true; atom }
let negl atom = { positive = false; atom }

let complementary a b = a.positive <> b.positive && a.atom = b.atom
let has_complementary c = List.exists (fun l -> List.exists (complementary l) c) c

let pp_literal ppf l =
  if l.positive then Filter.pp_singleton ppf l.atom
  else Fmt.pf ppf "NOT %a" Filter.pp_singleton l.atom

(* Negation normal form with explicit polarity at the leaves. *)
type nnf =
  | N_true
  | N_false
  | N_lit of literal
  | N_and of nnf * nnf
  | N_or of nnf * nnf

(* CPS so every call is a tail call: depth-bombed inputs spend heap
   (continuation closures), not stack. *)
let to_nnf ~negated (e : Filter.expr) : nnf =
  let rec go e negated k =
    Budget.step ();
    match e with
    | Filter.True -> k (if negated then N_false else N_true)
    | Filter.False -> k (if negated then N_true else N_false)
    | Filter.Atom a -> k (N_lit (if negated then negl a else pos a))
    | Filter.Not e -> go e (not negated) k
    | Filter.And (a, b) ->
      if negated then go a true (fun na -> go b true (fun nb -> k (N_or (na, nb))))
      else go a false (fun na -> go b false (fun nb -> k (N_and (na, nb))))
    | Filter.Or (a, b) ->
      if negated then
        go a true (fun na -> go b true (fun nb -> k (N_and (na, nb))))
      else go a false (fun na -> go b false (fun nb -> k (N_or (na, nb))))
  in
  go e negated Fun.id

(** Default cap on literals per merged clause.  Width explosions are
    the dual of clause-count explosions: a single 100k-literal clause
    is as hostile as 100k clauses. *)
let default_max_width = 1_024

let guard ~max_clauses clauses =
  if List.length clauses > max_clauses then raise Too_large else clauses

(* Cross product of clause lists: every pairing merged into one clause.
   The guard is incremental — [Too_large] fires the moment the product
   passes [max_clauses] merged clauses or [max_width] literals in one
   clause, so the full |xs|·|ys| product is never allocated. *)
let cross ~max_clauses ~max_width xs ys =
  let ys = List.map (fun y -> (y, List.length y)) ys in
  let count = ref 0 in
  let acc = ref [] in
  List.iter
    (fun x ->
      let wx = List.length x in
      List.iter
        (fun (y, wy) ->
          incr count;
          if !count > max_clauses then raise Too_large;
          if wx + wy > max_width then raise Too_large;
          Budget.alloc_clauses 1;
          acc := (x @ y) :: !acc)
        ys)
    xs;
  List.rev !acc

(* Distribution, also CPS: the nnf tree mirrors the input depth. *)
let cnf_uncached ~max_clauses ~max_width (e : Filter.expr) : clause list =
  let rec go n k =
    Budget.step ();
    match n with
    | N_true -> k []
    | N_false -> k [ [] ]
    | N_lit l -> k [ [ l ] ]
    | N_and (a, b) ->
      go a (fun ca -> go b (fun cb -> k (guard ~max_clauses (ca @ cb))))
    | N_or (a, b) ->
      go a (fun ca -> go b (fun cb -> k (cross ~max_clauses ~max_width ca cb)))
  in
  go (to_nnf ~negated:false e) Fun.id

let dnf_uncached ~max_clauses ~max_width (e : Filter.expr) : clause list =
  let rec go n k =
    Budget.step ();
    match n with
    | N_true -> k [ [] ]
    | N_false -> k []
    | N_lit l -> k [ [ l ] ]
    | N_or (a, b) ->
      go a (fun ca -> go b (fun cb -> k (guard ~max_clauses (ca @ cb))))
    | N_and (a, b) ->
      go a (fun ca -> go b (fun cb -> k (cross ~max_clauses ~max_width ca cb)))
  in
  go (to_nnf ~negated:false e) Fun.id

(* Memoization ------------------------------------------------------------- *)

(* Reconciliation answers many inclusion queries over policy sets that
   share subterms, and each query re-normalises both sides
   (Algorithm 1); memoizing the conversions — including the Too_large
   blow-ups, which are the expensive outcomes — makes repeated
   normal-form work a table lookup.  Expressions are immutable and
   compared structurally, so memoization cannot change any result.
   Tables are bounded (flushed when full) and guarded by a mutex:
   reconciliation may run from several domains.

   Oversized expressions bypass the table: [Hashtbl]'s structural
   comparison walks colliding keys recursively, so parking a depth bomb
   in a bucket would re-import the stack hazard the CPS conversion just
   removed.  Hits, misses, evictions and bypasses are registry
   counters ([nf-memo:*]). *)

module M = Shield_controller.Metrics

type converted = Converted of clause list | Blew_up

let memo_max_entries = 8192

(** Expressions larger than this (node count) are converted fresh each
    time instead of being memo keys. *)
let memo_max_expr_size = 16_384

let memo_mutex = Mutex.create ()

let cnf_memo : (Filter.expr * int * int, converted) Hashtbl.t = Hashtbl.create 256
let dnf_memo : (Filter.expr * int * int, converted) Hashtbl.t = Hashtbl.create 256

let memo_hits = M.counter "nf-memo:hits"
let memo_misses = M.counter "nf-memo:misses"
let memo_evictions = M.counter "nf-memo:evictions"
let memo_bypasses = M.counter "nf-memo:bypasses"

(** Drop both memo tables (counters are kept). *)
let clear_memo () =
  Mutex.lock memo_mutex;
  Hashtbl.reset cnf_memo;
  Hashtbl.reset dnf_memo;
  Mutex.unlock memo_mutex

let memoized table ~max_clauses ~max_width convert (e : Filter.expr) :
    clause list =
  if Filter.size e > memo_max_expr_size then begin
    Atomic.incr memo_bypasses;
    convert ~max_clauses ~max_width e
  end
  else begin
    let key = (e, max_clauses, max_width) in
    Mutex.lock memo_mutex;
    let cached = Hashtbl.find_opt table key in
    Mutex.unlock memo_mutex;
    if Option.is_some cached then Atomic.incr memo_hits;
    match cached with
    | Some (Converted clauses) -> clauses
    | Some Blew_up -> raise Too_large
    | None ->
      let outcome =
        match convert ~max_clauses ~max_width e with
        | clauses -> Converted clauses
        | exception Too_large -> Blew_up
      in
      Atomic.incr memo_misses;
      Mutex.lock memo_mutex;
      if Hashtbl.length table >= memo_max_entries then begin
        ignore (Atomic.fetch_and_add memo_evictions (Hashtbl.length table));
        Hashtbl.reset table
      end;
      Hashtbl.replace table key outcome;
      Mutex.unlock memo_mutex;
      (match outcome with Converted clauses -> clauses | Blew_up -> raise Too_large)
  end

(** CNF clauses of [e].  [[]] = True, a member [[]] = False clause.
    Memoized on [(e, max_clauses, max_width)], including [Too_large]
    outcomes. *)
let cnf ?(max_clauses = 4096) ?(max_width = default_max_width)
    (e : Filter.expr) : clause list =
  memoized cnf_memo ~max_clauses ~max_width cnf_uncached e

(** DNF clauses of [e].  [] = False, a member [] = True clause.
    Memoized like {!cnf}. *)
let dnf ?(max_clauses = 4096) ?(max_width = default_max_width)
    (e : Filter.expr) : clause list =
  memoized dnf_memo ~max_clauses ~max_width dnf_uncached e

(** Rebuild a filter expression from CNF clauses (for testing and for
    normalisation round-trips). *)
let expr_of_cnf (clauses : clause list) : Filter.expr =
  let lit l =
    if l.positive then Filter.Atom l.atom else Filter.neg (Filter.Atom l.atom)
  in
  Filter.conj_list
    (List.map (fun c -> Filter.disj_list (List.map lit c)) clauses)

let expr_of_dnf (clauses : clause list) : Filter.expr =
  let lit l =
    if l.positive then Filter.Atom l.atom else Filter.neg (Filter.Atom l.atom)
  in
  Filter.disj_list
    (List.map (fun c -> Filter.conj_list (List.map lit c)) clauses)
