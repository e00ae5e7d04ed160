(* Permission comparison — Algorithm 1 of the paper (§V-B1).

   A permission expression denotes the set of app behaviours it allows,
   so comparisons are set inclusions.  High-level tokens are orthogonal,
   which reduces manifest comparison to per-token filter comparison; a
   filter-inclusion query [A ⊇ B] is answered by converting A to CNF
   and B to DNF and comparing singleton filters clause-pairwise:

     A ⊇ B  iff  ∀ disjunctive clause a of CNF(A),
                 ∀ conjunctive clause x of DNF(B):  a ⊇ x
     a ⊇ x  iff  ∃ aᵢ ∈ a, xⱼ ∈ x on the same attribute dimension
                 with aᵢ ⊇ xⱼ

   The procedure is sound but (deliberately, as in the paper)
   incomplete: filters on different dimensions are treated as
   independent and incomparable, and unprovable cases answer [false],
   so reconciliation errs on the side of restricting. *)

open Nf

(* Singleton inclusion: a ⊇ b, only within one dimension. ------------------ *)

let ip_range_includes ~addr_a ~mask_a ~addr_b ~mask_b =
  (* Range A (fewer fixed bits) covers range B iff A's mask bits are a
     subset of B's and the two agree on A's bits. *)
  Int32.logand mask_a (Int32.lognot mask_b) = 0l
  && Int32.logand addr_a mask_a = Int32.logand addr_b mask_a

let pred_includes (a : Filter.singleton) (b : Filter.singleton) =
  match (a, b) with
  | ( Filter.Pred { field = fa; value = va; mask = ma },
      Filter.Pred { field = fb; value = vb; mask = mb } )
    when fa = fb -> (
    match (va, vb) with
    | Filter.V_ip ia, Filter.V_ip ib ->
      let mask_a = Option.value ma ~default:0xFFFFFFFFl in
      let mask_b = Option.value mb ~default:0xFFFFFFFFl in
      ip_range_includes ~addr_a:ia ~mask_a ~addr_b:ib ~mask_b
    | Filter.V_int x, Filter.V_int y -> x = y
    | _ -> false)
  | _ -> false

let singleton_includes (a : Filter.singleton) (b : Filter.singleton) : bool =
  if Filter.dimension a <> Filter.dimension b then false
  else
    match (a, b) with
    | Filter.Pred _, Filter.Pred _ -> pred_includes a b
    | Filter.Wildcard { mask = ma; _ }, Filter.Wildcard { mask = mb; _ } ->
      (* Fewer forced-wildcard bits = more behaviours allowed. *)
      Int32.logand ma (Int32.lognot mb) = 0l
    | Filter.Action_f ka, Filter.Action_f kb -> (
      match (ka, kb) with
      | x, y when x = y -> true
      | Filter.A_modify _, Filter.A_forward ->
        (* Forward-only rules are allowed under a modify grant. *)
        true
      | _ -> false)
    | Filter.Owner oa, Filter.Owner ob ->
      oa = ob || (oa = Filter.All_flows && ob = Filter.Own_flows)
    | Filter.Max_priority na, Filter.Max_priority nb -> na >= nb
    | Filter.Min_priority na, Filter.Min_priority nb -> na <= nb
    | Filter.Max_rule_count na, Filter.Max_rule_count nb -> na >= nb
    | Filter.Pkt_out ka, Filter.Pkt_out kb ->
      ka = kb || (ka = Filter.Arbitrary && kb = Filter.From_pkt_in)
    | Filter.Phys_topo ta, Filter.Phys_topo tb ->
      Filter.Int_set.subset tb.switches ta.switches
      &&
      if Filter.Int_set.is_empty ta.links then
        (* No link restriction in A = all links among A's switches. *)
        true
      else
        (not (Filter.Int_set.is_empty tb.links))
        && Filter.Int_set.subset tb.links ta.links
    | Filter.Virt_topo va, Filter.Virt_topo vb -> va = vb
    | Filter.Callback ka, Filter.Callback kb -> ka = kb
    | Filter.Stats_level la, Filter.Stats_level lb -> la = lb
    | Filter.Macro ma, Filter.Macro mb -> ma = mb
    | _ -> false

(** Range disjointness of two singletons on the same dimension.

    NOTE: this is *not* semantic emptiness of a ∩ b.  Under the
    vacuous-pass convention (§IV-B), a call that lacks the inspected
    dimension satisfies both singletons, so even range-disjoint filters
    share those calls.  The inclusion algorithm therefore never uses
    this to justify [¬a ⊇ b] or to discharge clauses; it is exposed for
    diagnostics and same-domain reasoning only. *)
let singleton_disjoint (a : Filter.singleton) (b : Filter.singleton) : bool =
  if Filter.dimension a <> Filter.dimension b then false
  else
    match (a, b) with
    | ( Filter.Pred { value = Filter.V_ip ia; mask = ma; _ },
        Filter.Pred { value = Filter.V_ip ib; mask = mb; _ } ) ->
      let mask_a = Option.value ma ~default:0xFFFFFFFFl in
      let mask_b = Option.value mb ~default:0xFFFFFFFFl in
      Int32.logand (Int32.logxor ia ib) (Int32.logand mask_a mask_b) <> 0l
    | ( Filter.Pred { value = Filter.V_int x; _ },
        Filter.Pred { value = Filter.V_int y; _ } ) ->
      x <> y
    | Filter.Stats_level la, Filter.Stats_level lb -> la <> lb
    | Filter.Action_f Filter.A_drop, Filter.Action_f k
    | Filter.Action_f k, Filter.Action_f Filter.A_drop ->
      k <> Filter.A_drop
    | _ -> false

(* Literal inclusion -------------------------------------------------------- *)

let lit_includes (a : literal) (b : literal) =
  match (a.positive, b.positive) with
  | true, true -> singleton_includes a.atom b.atom
  | false, false ->
    (* ¬s ⊇ ¬t iff t ⊇ s: sound including on dimension-less calls,
       where both sides evaluate alike. *)
    singleton_includes b.atom a.atom
  | false, true | true, false ->
    (* Mixed polarity is never claimed: range disjointness does not
       imply semantic disjointness under vacuous-pass (see
       [singleton_disjoint]), so [false] is the only sound answer. *)
    false

(* Clause degeneracy -------------------------------------------------------- *)

(** A disjunctive clause that provably covers everything: contains
    complementary literals. *)
let disj_clause_tautological (c : clause) =
  List.exists
    (fun l ->
      List.exists
        (fun l' -> l.positive <> l'.positive && l.atom = l'.atom)
        c)
    c

(** A conjunctive clause that provably denotes the empty set: it
    contains complementary literals.  (Range-disjoint positive pairs do
    NOT qualify — dimension-less calls satisfy both.) *)
let conj_clause_contradictory (c : clause) =
  List.exists
    (fun l ->
      List.exists
        (fun l' -> l.positive <> l'.positive && l.atom = l'.atom)
        c)
    c

(* Step 2 of Algorithm 1: disjunctive clause a ⊇ conjunctive clause x. *)
let clause_includes (a : clause) (x : clause) =
  disj_clause_tautological a
  || conj_clause_contradictory x
  || List.exists (fun ai -> List.exists (fun xj -> lit_includes ai xj) x) a

(** Conjunctive-clause inclusion: DNF clause [a] ⊇ DNF clause [x] —
    viewing [a] as the CNF of its singleton clauses, every literal of
    [a] must include some literal of [x].  Vacuously true for the
    empty (True) clause; a contradictory [x] is included by
    anything.  The lint shadowed-clause rule builds on this. *)
let conj_clause_includes (a : clause) (x : clause) =
  conj_clause_contradictory x
  || List.for_all (fun ai -> List.exists (fun xj -> lit_includes ai xj) x) a

(* Inclusion queries repeat heavily during reconciliation (every
   boundary assertion and lattice operation re-compares the same
   filters), so answers are memoized alongside the normal-form memo in
   [Nf].  Filter expressions are immutable and the procedure is
   deterministic, so a memoized answer is identical to recomputation. *)

(* The memo value carries whether the answer came from a [Too_large]
   fallback, so the ambient {!Budget} degradation note fires on memo
   hits too — an admission that reuses a cached conservative answer is
   still a degraded admission (docs/VETTING.md). *)
let includes_memo : (Filter.expr * Filter.expr * int, bool * bool) Hashtbl.t =
  Hashtbl.create 256

let memo_max_entries = 8192
let memo_mutex = Mutex.create ()

module M = Shield_controller.Metrics

let memo_hits = M.counter "inclusion-memo:hits"
let memo_misses = M.counter "inclusion-memo:misses"
let memo_evictions = M.counter "inclusion-memo:evictions"

let clear_memo () =
  Mutex.lock memo_mutex;
  Hashtbl.reset includes_memo;
  Mutex.unlock memo_mutex

(* Fail-closed fallback on blow-up: [false] — "not provably included"
   restricts.  The [degraded] flag feeds the budget note. *)
let filter_includes_uncached ~max_clauses (a : Filter.expr) (b : Filter.expr) :
    bool * bool =
  if Filter.equal_expr a b then (true, false)
  else
    match (cnf ~max_clauses a, dnf ~max_clauses b) with
    | exception Too_large -> (false, true)
    | cnf_a, dnf_b ->
      ( List.for_all
          (fun ca -> List.for_all (fun xb -> clause_includes ca xb) dnf_b)
          cnf_a,
        false )

(** [filter_includes a b] — does filter [a] allow every behaviour [b]
    allows?  Sound, incomplete (conservatively [false]).  Memoized on
    [(a, b, max_clauses)] in a bounded process-wide table. *)
let filter_includes ?(max_clauses = 4096) (a : Filter.expr) (b : Filter.expr) =
  Budget.step ();
  let key = (a, b, max_clauses) in
  Mutex.lock memo_mutex;
  let cached = Hashtbl.find_opt includes_memo key in
  Mutex.unlock memo_mutex;
  match cached with
  | Some (answer, degraded) ->
    Atomic.incr memo_hits;
    if degraded then Budget.note "inclusion: fell back to FALSE past max_clauses";
    answer
  | None ->
    let (answer, degraded) as entry = filter_includes_uncached ~max_clauses a b in
    if degraded then Budget.note "inclusion: fell back to FALSE past max_clauses";
    Atomic.incr memo_misses;
    Mutex.lock memo_mutex;
    if Hashtbl.length includes_memo >= memo_max_entries then begin
      ignore (Atomic.fetch_and_add memo_evictions (Hashtbl.length includes_memo));
      Hashtbl.reset includes_memo
    end;
    Hashtbl.replace includes_memo key entry;
    Mutex.unlock memo_mutex;
    answer

(** Conservative satisfiability: [false] only when the filter provably
    denotes the empty behaviour set.  Fail-closed fallback on blow-up:
    [true] — "possibly satisfiable" keeps mutual-exclusion constraints
    armed (an overlap we cannot disprove is treated as an overlap). *)
let filter_satisfiable ?(max_clauses = 4096) (e : Filter.expr) =
  Budget.step ();
  match dnf ~max_clauses e with
  | exception Too_large ->
    Budget.note "satisfiability: fell back to TRUE past max_clauses";
    true
  | clauses -> List.exists (fun c -> not (conj_clause_contradictory c)) clauses

(* Manifest-level relations ------------------------------------------------- *)

(** [manifest_includes a b] — manifest [a] grants every behaviour
    manifest [b] grants.  Orthogonal tokens reduce this to per-token
    filter inclusion (§V-B1). *)
let manifest_includes (a : Perm.manifest) (b : Perm.manifest) =
  List.for_all
    (fun (pb : Perm.t) ->
      (not (filter_satisfiable pb.filter))
      ||
      match Perm.find a pb.token with
      | Some pa -> filter_includes pa.filter pb.filter
      | None -> false)
    b

(** Semantic equality: mutual inclusion. *)
let manifest_equal (a : Perm.manifest) (b : Perm.manifest) =
  manifest_includes a b && manifest_includes b a

(** Do the two manifests share any allowed behaviour?  This is the
    possession test behind mutual-exclusion constraints: an app
    "possesses" permission set P when its manifest overlaps P. *)
let manifests_overlap (a : Perm.manifest) (b : Perm.manifest) =
  List.exists
    (fun (pa : Perm.t) ->
      match Perm.find b pa.token with
      | Some pb -> filter_satisfiable (Filter.conj pa.filter pb.filter)
      | None -> false)
    a

let compare_manifests (a : Perm.manifest) (b : Perm.manifest) :
    [ `Equal | `Subset | `Superset | `Incomparable ] =
  match (manifest_includes a b, manifest_includes b a) with
  | true, true -> `Equal
  | false, true -> `Subset
  | true, false -> `Superset
  | false, false -> `Incomparable
