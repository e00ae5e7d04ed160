(* Flat decision automaton — the "compile, don't interpret" end of the
   checker spectrum (see automaton.mli and docs/AUTOMATON.md).

   Layout: one shared node store (parallel arrays [tests]/[on_true]/
   [on_false]) holds the branching programs of every filter in the
   manifest, hash-consed so identical subtrees appear once.  A root
   table indexed by [Token.index] points each granted token at its
   filter's entry node.  Leaves are encoded as negative indexes
   carrying the verdict and the deciding top-level clause, so
   [check_explained] reads its account off the same walk that produced
   the decision.

   Evaluation projects the call's filter-relevant attributes into one
   small immutable context record (unboxed ints for the scalar
   dimensions, the match fields shared with the call itself), then
   chases node indexes with pure integer compares; header fields are
   read straight off the match record — the [Some match_] branch of
   [Attrs.field_value] inlined — and the full [Attrs.t] is built only
   when a stateful or slow-fallback test demands it.  There is no
   shared mutable evaluation state, so [check] is safe under
   concurrent callers by construction; [check_batch] amortizes the
   per-call dispatch and counter bookkeeping on top. *)

open Shield_controller

(* Header-field indexing ------------------------------------------------------ *)

let nfields = 10

let field_index : Filter.field -> int = function
  | Filter.F_ip_src -> 0
  | Filter.F_ip_dst -> 1
  | Filter.F_tcp_src -> 2
  | Filter.F_tcp_dst -> 3
  | Filter.F_eth_src -> 4
  | Filter.F_eth_dst -> 5
  | Filter.F_in_port -> 6
  | Filter.F_eth_type -> 7
  | Filter.F_ip_proto -> 8
  | Filter.F_vlan -> 9

let field_of_index =
  [| Filter.F_ip_src; Filter.F_ip_dst; Filter.F_tcp_src; Filter.F_tcp_dst;
     Filter.F_eth_src; Filter.F_eth_dst; Filter.F_in_port; Filter.F_eth_type;
     Filter.F_ip_proto; Filter.F_vlan |]

(* 32-bit values live as untagged non-negative ints on the hot path. *)
let u32 (x : int32) = Int32.to_int x land 0xFFFFFFFF

let stats_code : Shield_openflow.Stats.level -> int = function
  | Shield_openflow.Stats.Flow_level -> 0
  | Shield_openflow.Stats.Port_level -> 1
  | Shield_openflow.Stats.Switch_level -> 2

(* Tests ----------------------------------------------------------------------

   One decision-node test.  Constants are pre-resolved to ints at
   compile time; the few singletons with no fast projection fall back
   to the interpreter's primitive ([T_slow]). *)

type test =
  | T_pred_ip of { fld : int; fmask : int; fval_masked : int; fval_raw : int }
      (* Pred with a V_ip value: [fval_masked] = value & mask for the
         range-inclusion compare, [fval_raw] for the exact-int case. *)
  | T_pred_int of { fld : int; v : int }  (* Pred with a V_int value. *)
  | T_wildcard of { fld : int; mask : int }
  | T_prio of { lo : int; hi : int }
      (* Fused priority interval: lo <= p <= hi, vacuous when the call
         has no priority. *)
  | T_budget of int  (* Fused MAX_RULE_COUNT bound. *)
  | T_owner  (* OWN_FLOWS *)
  | T_pkt_out_replay  (* PKT_OUT FROM_PKT_IN *)
  | T_stats_level of int
  | T_dpid_mem of Filter.Int_set.t  (* PHYS_TOPO switch membership. *)
  | T_int_mem of { fld : int; vals : int array }
      (* Fused same-field integer-predicate disjunction (port lists);
         [vals] sorted ascending for binary search. *)
  | T_slow of Filter.singleton  (* Fallback: actions, virtual topo, … *)

(* Leaf encoding: negative indexes.  A leaf carries the verdict bit and
   the deciding top-level clause (-1 = the whole filter / no single
   clause). *)

let enc_leaf ~pass ~clause =
  let bit = if pass then 1 else 0 in
  -((((clause + 1) lsl 1) lor bit) + 1)

let leaf_pass idx = (-idx - 1) land 1 = 1
let leaf_clause idx = ((-idx - 1) lsr 1) - 1
let absent = min_int (* root sentinel: token not granted *)

(* A token's explanations, rendered once at compile time; the filter's
   top level picks one of [Filter_eval.explain]'s four cases.  The
   clause-indexed arrays are read at the deciding leaf's clause. *)
type shape =
  | Sh_const of Api.check_info  (* TRUE or FALSE: one account *)
  | Sh_or of { passed : Api.check_info array; none : Api.check_info }
  | Sh_and of { all : Api.check_info; failed : Api.check_info array }
  | Sh_single of { passed : Api.check_info; failed : Api.check_info }

let dpid_absent = min_int

type t = {
  tests : test array;
  on_true : int array;
  on_false : int array;
  roots : int array;  (* Token.index -> node/leaf, or [absent] *)
  shapes : shape array;
  not_granted : Api.check_info array;  (* per token *)
  env : Filter_eval.env;
  deny_missing : Api.decision array;  (* preallocated per token *)
  deny_reject : Api.decision array;
  built : build_stats;
  checks : int Atomic.t;  (* bumped lock-free by concurrent checkers *)
  denials : int Atomic.t;
}

and build_stats = { nodes : int; shared : int; collapsed : int; tokens : int }

(* Compilation ---------------------------------------------------------------- *)

(* Intermediate form: atoms lowered to tests (or constants), and/or
   flattened to lists so the fusion passes see whole runs. *)
type pre =
  | P_true
  | P_false
  | P_test of test
  | P_and of pre list
  | P_or of pre list
  | P_not of pre

let lower_singleton (s : Filter.singleton) : pre =
  match s with
  | Filter.Pred { field; value; mask } -> (
    match value with
    | Filter.V_ip ip ->
      let fmask = u32 (Option.value mask ~default:0xFFFFFFFFl) in
      P_test
        (T_pred_ip
           { fld = field_index field;
             fmask;
             fval_masked = u32 ip land fmask;
             fval_raw = u32 ip })
    | Filter.V_int v -> P_test (T_pred_int { fld = field_index field; v }))
  | Filter.Wildcard { field; mask } ->
    P_test (T_wildcard { fld = field_index field; mask = u32 mask })
  | Filter.Max_priority n -> P_test (T_prio { lo = min_int; hi = n })
  | Filter.Min_priority n -> P_test (T_prio { lo = n; hi = max_int })
  | Filter.Max_rule_count n -> P_test (T_budget n)
  | Filter.Owner Filter.All_flows -> P_true
  | Filter.Owner Filter.Own_flows -> P_test T_owner
  | Filter.Pkt_out Filter.Arbitrary -> P_true
  | Filter.Pkt_out Filter.From_pkt_in -> P_test T_pkt_out_replay
  | Filter.Stats_level l -> P_test (T_stats_level (stats_code l))
  | Filter.Phys_topo { switches; _ } -> P_test (T_dpid_mem switches)
  | Filter.Callback _ -> P_true (* capability marker, as Filter_eval *)
  | Filter.Macro _ -> P_false (* unresolved stub: deny closed *)
  | Filter.Virt_topo _ | Filter.Action_f _ -> P_test (T_slow s)

(* Conjunction fusion: all priority atoms in one run become a single
   closed interval (max of the lows, min of the highs — both vacuous
   together when the call has no priority), all rule-count atoms the
   single tightest bound.  The fused test sits at the first
   occurrence's position; AND is commutative so the verdict is
   unchanged. *)
let fuse_and (ps : pre list) : pre =
  let lo = ref min_int and hi = ref max_int and nprio = ref 0 in
  let bud = ref max_int and nbud = ref 0 in
  List.iter
    (function
      | P_test (T_prio p) ->
        incr nprio;
        if p.lo > !lo then lo := p.lo;
        if p.hi < !hi then hi := p.hi
      | P_test (T_budget n) ->
        incr nbud;
        if n < !bud then bud := n
      | _ -> ())
    ps;
  let first_prio = ref true and first_bud = ref true in
  let ps =
    if !nprio <= 1 && !nbud <= 1 then ps
    else
      List.filter_map
        (function
          | P_test (T_prio _) ->
            if !first_prio then begin
              first_prio := false;
              Some (P_test (T_prio { lo = !lo; hi = !hi }))
            end
            else None
          | P_test (T_budget _) ->
            if !first_bud then begin
              first_bud := false;
              Some (P_test (T_budget !bud))
            end
            else None
          | p -> Some p)
        ps
  in
  match ps with [] -> P_true | [ p ] -> p | ps -> P_and ps

(* Disjunction fusion: integer predicates on one field (port lists)
   become a single sorted-membership test.  Sound because the preds
   share every gate — same vacuous-pass conditions, and the IP-range /
   unconstrained cases fail each disjunct individually exactly as they
   fail the membership test. *)
let fuse_or (ps : pre list) : pre =
  let counts = Array.make nfields 0 in
  List.iter
    (function
      | P_test (T_pred_int { fld; _ }) -> counts.(fld) <- counts.(fld) + 1
      | _ -> ())
    ps;
  if not (Array.exists (fun c -> c >= 2) counts) then
    match ps with [] -> P_false | [ p ] -> p | ps -> P_or ps
  else begin
    let vals = Array.make nfields [] in
    List.iter
      (function
        | P_test (T_pred_int { fld; v }) when counts.(fld) >= 2 ->
          vals.(fld) <- v :: vals.(fld)
        | _ -> ())
      ps;
    let emitted = Array.make nfields false in
    let ps =
      List.filter_map
        (function
          | P_test (T_pred_int { fld; _ }) when counts.(fld) >= 2 ->
            if emitted.(fld) then None
            else begin
              emitted.(fld) <- true;
              let a = Array.of_list (List.sort_uniq compare vals.(fld)) in
              Some (P_test (T_int_mem { fld; vals = a }))
            end
          | p -> Some p)
        ps
    in
    match ps with [] -> P_false | [ p ] -> p | ps -> P_or ps
  end

(* Top-level clause splitting, exactly as [Filter_eval.explain]
   flattens for its clause numbering. *)
let rec disjuncts = function
  | Filter.Or (a, b) -> disjuncts a @ disjuncts b
  | e -> [ e ]

let rec conjuncts = function
  | Filter.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec lower (e : Filter.expr) : pre =
  match e with
  | Filter.True -> P_true
  | Filter.False -> P_false
  | Filter.Atom s -> lower_singleton s
  | Filter.And _ -> fuse_and (List.map lower (conjuncts e))
  | Filter.Or _ -> fuse_or (List.map lower (disjuncts e))
  | Filter.Not a -> P_not (lower a)

(* Node store builder: hash-consed append-only arrays. *)
type builder = {
  mutable b_tests : test array;
  mutable b_true : int array;
  mutable b_false : int array;
  mutable n : int;
  tbl : (test * int * int, int) Hashtbl.t;
  mutable shared : int;
  mutable collapsed : int;
}

let new_builder () =
  { b_tests = Array.make 64 T_owner;
    b_true = Array.make 64 0;
    b_false = Array.make 64 0;
    n = 0;
    tbl = Hashtbl.create 128;
    shared = 0;
    collapsed = 0 }

let mknode b test t f =
  if t = f then begin
    (* The test cannot change the outcome: elide it. *)
    b.collapsed <- b.collapsed + 1;
    t
  end
  else begin
    Budget.step ();
    let key = (test, t, f) in
    match Hashtbl.find_opt b.tbl key with
    | Some i ->
      b.shared <- b.shared + 1;
      i
    | None ->
      if b.n = Array.length b.b_tests then begin
        let grow a fill =
          let a' = Array.make (2 * Array.length a) fill in
          Array.blit a 0 a' 0 b.n;
          a'
        in
        b.b_tests <- grow b.b_tests T_owner;
        b.b_true <- grow b.b_true 0;
        b.b_false <- grow b.b_false 0
      end;
      let i = b.n in
      b.b_tests.(i) <- test;
      b.b_true.(i) <- t;
      b.b_false.(i) <- f;
      b.n <- i + 1;
      Hashtbl.add b.tbl key i;
      i
  end

(* The classic linear-size branching-program construction: [build e t f]
   is a DAG deciding [e], continuing to [t] on true and [f] on false.
   Short-circuit order matches [Filter_eval.eval] left to right. *)
let rec build b (p : pre) ~t ~f =
  match p with
  | P_true -> t
  | P_false -> f
  | P_test test -> mknode b test t f
  | P_and ps -> List.fold_right (fun p acc -> build b p ~t:acc ~f) ps t
  | P_or ps -> List.fold_right (fun p acc -> build b p ~t ~f:acc) ps f
  | P_not p -> build b p ~t:f ~f:t

(* Path-sensitive construction -------------------------------------------------

   The linear construction re-tests a predicate every time the source
   filter repeats it: a manifest shaped [core ∧ (anchor ∨ n₁) ∧ … ∧
   (anchor ∨ nₖ)] (the Figure-5 generator, and the common "every
   clause re-states the subnet" idiom) walks the anchor k times per
   call.  Threading a context — the tests already decided on this
   path, with their outcomes — lets construction resolve a repeated
   test immediately, so the compiled pass path tests each distinct
   predicate at most once.

   Continuations become functions of the context.  That can rebuild a
   chain tail once per distinct path context (exponential in theory),
   so two guards bound it: contexts are projected down to the tests
   that can still occur in the remaining clauses before the chain memo
   is consulted — paths that agree on the shared anchors converge —
   and a step counter aborts to the linear construction ([Too_wide])
   if a hostile filter still explodes.  Abandoned nodes from an
   aborted attempt stay in the store unreferenced; only pathological
   inputs pay that. *)

exception Too_wide

type cbuilder = {
  cb : builder;
  chain_memo : (int * (test * bool) list, int) Hashtbl.t;
  mutable steps : int;
  max_steps : int;
}

let ctx_known ctx test =
  let rec go = function
    | [] -> None
    | (t, v) :: rest -> if compare t test = 0 then Some v else go rest
  in
  go ctx

let rec buildc c (p : pre) ctx ~(t : (test * bool) list -> int)
    ~(f : (test * bool) list -> int) =
  c.steps <- c.steps + 1;
  if c.steps > c.max_steps then raise Too_wide;
  match p with
  | P_true -> t ctx
  | P_false -> f ctx
  | P_test test -> (
    match ctx_known ctx test with
    | Some true -> t ctx
    | Some false -> f ctx
    | None ->
      let tn = t ((test, true) :: ctx) in
      let fn = f ((test, false) :: ctx) in
      mknode c.cb test tn fn)
  | P_and ps ->
    let rec go ps ctx =
      match ps with [] -> t ctx | p :: rest -> buildc c p ctx ~t:(go rest) ~f
    in
    go ps ctx
  | P_or ps ->
    let rec go ps ctx =
      match ps with [] -> f ctx | p :: rest -> buildc c p ctx ~t ~f:(go rest)
    in
    go ps ctx
  | P_not p -> buildc c p ctx ~t:f ~f:t

let rec pre_tests acc = function
  | P_true | P_false -> acc
  | P_test t -> t :: acc
  | P_and ps | P_or ps -> List.fold_left pre_tests acc ps
  | P_not p -> pre_tests acc p

let rec pre_size = function
  | P_true | P_false | P_test _ -> 1
  | P_and ps | P_or ps -> List.fold_left (fun n p -> n + pre_size p) 1 ps
  | P_not p -> 1 + pre_size p

let cbuilder b pres =
  let size = Array.fold_left (fun n p -> n + pre_size p) 0 pres in
  { cb = b;
    chain_memo = Hashtbl.create 64;
    steps = 0;
    max_steps = 4096 + (64 * size) }

(* Compile a clause chain with the context threaded across clauses.
   [suffix.(i)] holds the tests occurring in clauses >= i; projecting
   the context down to it before the memo lookup makes paths that
   agree on the shared tests hit the same tail. *)
let chain c pres ~(shape : [ `And | `Or ]) ~final =
  let n = Array.length pres in
  let suffix = Array.make (n + 1) [] in
  for i = n - 1 downto 0 do
    suffix.(i) <- pre_tests suffix.(i + 1) pres.(i)
  done;
  let project i ctx =
    List.sort compare
      (List.filter
         (fun (t, _) -> List.exists (fun t' -> compare t t' = 0) suffix.(i))
         ctx)
  in
  let rec go i ctx =
    if i = n then final
    else
      let ctx = project i ctx in
      match Hashtbl.find_opt c.chain_memo (i, ctx) with
      | Some r -> r
      | None ->
        let r =
          match shape with
          | `And ->
            buildc c pres.(i) ctx ~t:(go (i + 1))
              ~f:(fun _ -> enc_leaf ~pass:false ~clause:i)
          | `Or ->
            buildc c pres.(i) ctx
              ~t:(fun _ -> enc_leaf ~pass:true ~clause:i)
              ~f:(go (i + 1))
        in
        Hashtbl.add c.chain_memo (i, ctx) r;
        r
  in
  go 0 []

(* [token <tok>: <why>], as one prebuilt explanation. *)
let info tok fmt =
  Printf.ksprintf
    (fun why -> { Api.explain = Some ("token " ^ tok ^ ": " ^ why) })
    fmt

(* Compile one filter, tagging leaves with the deciding top-level
   clause so the explanation falls out of the decision walk.  Clause
   order and numbering match [Filter_eval.explain]: an OR filter
   reaches leaf (true, i) iff clause i is the first passing disjunct;
   an AND filter reaches leaf (false, i) iff clause i is the first
   failing conjunct. *)
let compile_filter b tok (expr : Filter.expr) : int * shape =
  match expr with
  | Filter.True ->
    ( enc_leaf ~pass:true ~clause:(-1),
      Sh_const (info tok "filter is TRUE (unconditional grant)") )
  | Filter.False ->
    ( enc_leaf ~pass:false ~clause:(-1),
      Sh_const (info tok "filter is FALSE (granted nowhere)") )
  | Filter.Or _ ->
    let cs = disjuncts expr in
    let pres = Array.of_list (List.map lower cs) in
    let root =
      try
        chain (cbuilder b pres) pres ~shape:`Or
          ~final:(enc_leaf ~pass:false ~clause:(-1))
      with Too_wide ->
        let rec go i = function
          | [] -> enc_leaf ~pass:false ~clause:(-1)
          | p :: rest ->
            build b p ~t:(enc_leaf ~pass:true ~clause:i) ~f:(go (i + 1) rest)
        in
        go 0 (Array.to_list pres)
    in
    let n = List.length cs in
    ( root,
      Sh_or
        { passed =
            Array.of_list
              (List.mapi
                 (fun i c ->
                   info tok "clause %d/%d passed: %s" (i + 1) n
                     (Filter.to_string c))
                 cs);
          none = info tok "none of %d clauses passed" n } )
  | Filter.And _ ->
    let cs = conjuncts expr in
    let pres = Array.of_list (List.map lower cs) in
    let root =
      try
        chain (cbuilder b pres) pres ~shape:`And
          ~final:(enc_leaf ~pass:true ~clause:(-1))
      with Too_wide ->
        let rec go i = function
          | [] -> enc_leaf ~pass:true ~clause:(-1)
          | p :: rest ->
            build b p ~t:(go (i + 1) rest) ~f:(enc_leaf ~pass:false ~clause:i)
        in
        go 0 (Array.to_list pres)
    in
    let n = List.length cs in
    ( root,
      Sh_and
        { all = info tok "all %d clauses passed" n;
          failed =
            Array.of_list
              (List.mapi
                 (fun i c ->
                   info tok "clause %d/%d failed: %s" (i + 1) n
                     (Filter.to_string c))
                 cs) } )
  | e ->
    let p = lower e in
    let t = enc_leaf ~pass:true ~clause:(-1)
    and f = enc_leaf ~pass:false ~clause:(-1) in
    let root =
      try buildc (cbuilder b [| p |]) p [] ~t:(fun _ -> t) ~f:(fun _ -> f)
      with Too_wide -> build b p ~t ~f
    in
    let s = Filter.to_string e in
    ( root,
      Sh_single
        { passed = info tok "filter passed: %s" s;
          failed = info tok "filter failed: %s" s } )

let of_manifest ?(env = Filter_eval.pure_env) (manifest : Perm.manifest) : t =
  let b = new_builder () in
  let roots = Array.make Token.count absent in
  let shapes = Array.make Token.count (Sh_const Api.no_check_info) in
  List.iter
    (fun (p : Perm.t) ->
      let root, shape =
        compile_filter b (Token.to_string p.Perm.token) p.Perm.filter
      in
      roots.(Token.index p.Perm.token) <- root;
      shapes.(Token.index p.Perm.token) <- shape)
    manifest;
  let tok = Array.of_list Token.all in
  { tests = Array.sub b.b_tests 0 b.n;
    on_true = Array.sub b.b_true 0 b.n;
    on_false = Array.sub b.b_false 0 b.n;
    roots;
    shapes;
    not_granted =
      Array.map
        (fun t -> info (Token.to_string t) "not granted by the manifest")
        tok;
    env;
    deny_missing =
      Array.map
        (fun t -> Api.Deny ("missing permission " ^ Token.to_string t))
        tok;
    deny_reject =
      Array.map
        (fun t -> Api.Deny ("permission filter rejects call: " ^ Token.to_string t))
        tok;
    built =
      { nodes = b.n;
        shared = b.shared;
        collapsed = b.collapsed;
        tokens = List.length manifest };
    checks = Atomic.make 0;
    denials = Atomic.make 0 }

(* Evaluation ------------------------------------------------------------------

   The per-call context: the call's filter-relevant attributes
   projected into one small record — unboxed ints for the scalar
   dimensions, the match fields shared with the call itself — built
   straight off the call, with no [Attrs.t] unless an ownership or
   slow-fallback test forces one.

   One young-generation allocation per governed call and no shared
   mutable state is the whole concurrency story: any number of threads
   can [check] against one automaton without locks, pools or fences.
   (A pooled mutable scratch was measurably worse: the pool costs two
   atomic operations per call, and a heap-resident scratch turns every
   pointer-field store into a write barrier.) *)

type ctx = {
  call : Api.call;
  mutable attrs : Attrs.t option;  (* lazy [Attrs.of_call call] *)
  m : Shield_openflow.Match_fields.t option;
  has_hdr : bool;
  ins_del : bool;  (* kind is insert/delete flow *)
  insert_add : bool;  (* insert with command Add *)
  owner_applies : bool;  (* insert/delete kind or cookie set *)
  prio : int;  (* -1 = call has no priority *)
  dpid : int;  (* [dpid_absent] = none *)
  from_pkt_in : int;  (* -1 absent / 0 false / 1 true *)
  stats_lv : int;  (* -1 = call has no stats level *)
}

let ctx0 =
  { call = Api.Read_topology;
    attrs = None;
    m = None;
    has_hdr = false;
    ins_del = false;
    insert_add = false;
    owner_applies = false;
    prio = -1;
    dpid = dpid_absent;
    from_pkt_in = -1;
    stats_lv = -1 }

(* Mirrors [Attrs.of_call] + [Attrs.has_header_dimension] without
   building the record (property-tested against the engine, which does
   build it). *)
let ctx_of_call (call : Api.call) : ctx =
  match call with
  | Api.Install_flow (dpid, fm) ->
    { call;
      attrs = None;
      m = Some fm.Shield_openflow.Flow_mod.match_;
      has_hdr = true;
      ins_del = true;
      insert_add =
        (match fm.Shield_openflow.Flow_mod.command with
        | Shield_openflow.Flow_mod.Add -> true
        | _ -> false);
      owner_applies = true;
      prio = fm.Shield_openflow.Flow_mod.priority;
      dpid;
      from_pkt_in = -1;
      stats_lv = -1 }
  | Api.Read_flow_table { dpid; pattern } ->
    { ctx0 with
      call;
      m = pattern;
      has_hdr = true;
      dpid = (match dpid with Some d -> d | None -> dpid_absent) }
  | Api.Read_stats req ->
    let m = req.Shield_openflow.Stats.match_filter in
    { ctx0 with
      call;
      m;
      has_hdr = m <> None;
      dpid =
        (match req.Shield_openflow.Stats.dpid_filter with
        | Some d -> d
        | None -> dpid_absent);
      stats_lv = stats_code req.Shield_openflow.Stats.level }
  | Api.Send_packet_out { dpid; from_pkt_in; _ } ->
    { ctx0 with
      call;
      has_hdr = true;
      dpid;
      from_pkt_in = (if from_pkt_in then 1 else 0) }
  | Api.Modify_topology change ->
    { ctx0 with
      call;
      dpid =
        (match change with
        | Api.Add_switch d | Api.Remove_switch d -> d
        | Api.Add_link (a, _) | Api.Remove_link (a, _) ->
          a.Shield_net.Topology.dpid) }
  | Api.Syscall (Api.Net_connect _) -> { ctx0 with call; has_hdr = true }
  | _ -> { ctx0 with call }

let the_attrs cx =
  match cx.attrs with
  | Some a -> a
  | None ->
    let a = Attrs.of_call cx.call in
    cx.attrs <- Some a;
    a

(* Match-field projections — the [Some match_] branch of
   [Attrs.field_value], inlined and allocation-free.  Exact-int fields
   use [mint_absent] as the "unconstrained" sentinel (field payloads
   are non-negative codes, ports and addresses). *)

let mint_absent = min_int

let mint (m : Shield_openflow.Match_fields.t) fld : int =
  let open Shield_openflow in
  match fld with
  | 2 -> (match m.Match_fields.tp_src with Some v -> v | None -> mint_absent)
  | 3 -> (match m.Match_fields.tp_dst with Some v -> v | None -> mint_absent)
  | 4 -> (match m.Match_fields.dl_src with Some v -> v | None -> mint_absent)
  | 5 -> (match m.Match_fields.dl_dst with Some v -> v | None -> mint_absent)
  | 6 -> (match m.Match_fields.in_port with Some v -> v | None -> mint_absent)
  | 7 -> (
    match m.Match_fields.dl_type with
    | Some ty -> Types.eth_type_code ty
    | None -> mint_absent)
  | 8 -> (
    match m.Match_fields.nw_proto with
    | Some p -> Types.ip_proto_code p
    | None -> mint_absent)
  | _ -> (match m.Match_fields.dl_vlan with Some v -> v | None -> mint_absent)

let mip (m : Shield_openflow.Match_fields.t) fld =
  if fld = 0 then m.Shield_openflow.Match_fields.nw_src
  else m.Shield_openflow.Match_fields.nw_dst

let rec mem_sorted (a : int array) v lo hi =
  if lo >= hi then false
  else
    let mid = (lo + hi) / 2 in
    let x = Array.unsafe_get a mid in
    if x = v then true
    else if x < v then mem_sorted a v (mid + 1) hi
    else mem_sorted a v lo mid

(* One test against the context.  Fields backed by a match record get
   the direct projection (codes as in [Attrs.field_value]: an ip_match
   is a range, a set int field an exact int, an unset one
   unconstrained — never no-dimension); calls whose header dimension
   lives elsewhere (packet-out payloads, syscall endpoints) take the
   [Attrs.field_value] detour, which is where the no-dimension case
   can still arise. *)
let eval_test t cx (test : test) =
  match test with
  | T_pred_ip { fld; fmask; fval_masked; fval_raw } ->
    (not cx.has_hdr)
    ||
    (match cx.m with
    | Some m ->
      if fld <= 1 then
        (match mip m fld with
        | Some im ->
          (* Call range ⊆ filter range, all in untagged ints. *)
          fmask land (u32 im.Shield_openflow.Match_fields.mask lxor 0xFFFFFFFF)
          = 0
          && u32 im.Shield_openflow.Match_fields.addr land fmask = fval_masked
        | None -> false)
      else
        let v = mint m fld in
        v <> mint_absent && v land 0xFFFFFFFF = fval_raw
    | None -> (
      match Attrs.field_value (the_attrs cx) field_of_index.(fld) with
      | Attrs.No_dimension -> true
      | Attrs.Unconstrained -> false
      | Attrs.Ip_range (a, mk) ->
        fmask land (u32 mk lxor 0xFFFFFFFF) = 0
        && u32 a land fmask = fval_masked
      | Attrs.Exact_int v -> v land 0xFFFFFFFF = fval_raw))
  | T_pred_int { fld; v } ->
    (not cx.has_hdr)
    ||
    (match cx.m with
    | Some m ->
      (* An ip-typed field can never equal an exact int; an unset field
         is unconstrained.  Both fail the predicate. *)
      fld > 1
      &&
      let x = mint m fld in
      x <> mint_absent && x = v
    | None -> (
      match Attrs.field_value (the_attrs cx) field_of_index.(fld) with
      | Attrs.No_dimension -> true
      | Attrs.Unconstrained | Attrs.Ip_range _ -> false
      | Attrs.Exact_int x -> x = v))
  | T_wildcard { fld; mask } ->
    (not cx.ins_del)
    ||
    (match cx.m with
    | Some m ->
      if fld <= 1 then
        (match mip m fld with
        | Some im -> u32 im.Shield_openflow.Match_fields.mask land mask = 0
        | None -> true)
      else mint m fld = mint_absent || mask = 0
    | None -> (
      match Attrs.field_value (the_attrs cx) field_of_index.(fld) with
      | Attrs.No_dimension | Attrs.Unconstrained -> true
      | Attrs.Ip_range (_, mk) -> u32 mk land mask = 0
      | Attrs.Exact_int _ -> mask = 0))
  | T_prio { lo; hi } -> cx.prio < 0 || (lo <= cx.prio && cx.prio <= hi)
  | T_budget n ->
    (not cx.insert_add)
    || t.env.Filter_eval.rule_count
         (if cx.dpid = dpid_absent then None else Some cx.dpid)
       < n
  | T_owner ->
    (not cx.owner_applies) || t.env.Filter_eval.owns_all_targeted (the_attrs cx)
  | T_pkt_out_replay -> cx.from_pkt_in <> 0
  | T_stats_level code -> cx.stats_lv < 0 || cx.stats_lv = code
  | T_dpid_mem switches ->
    cx.dpid = dpid_absent || Filter.Int_set.mem cx.dpid switches
  | T_int_mem { fld; vals } ->
    (not cx.has_hdr)
    ||
    (match cx.m with
    | Some m ->
      fld > 1
      &&
      let x = mint m fld in
      x <> mint_absent && mem_sorted vals x 0 (Array.length vals)
    | None -> (
      match Attrs.field_value (the_attrs cx) field_of_index.(fld) with
      | Attrs.No_dimension -> true
      | Attrs.Unconstrained | Attrs.Ip_range _ -> false
      | Attrs.Exact_int x -> mem_sorted vals x 0 (Array.length vals)))
  | T_slow s -> Filter_eval.eval_singleton t.env s (the_attrs cx)

(* The decision walk: chase indexes until a (negative) leaf. *)
let walk t cx root =
  let idx = ref root in
  while !idx >= 0 do
    let i = !idx in
    idx :=
      if eval_test t cx (Array.unsafe_get t.tests i) then
        Array.unsafe_get t.on_true i
      else Array.unsafe_get t.on_false i
  done;
  !idx

(* Public checking ------------------------------------------------------------ *)

let granted t token = t.roots.(Token.index token) <> absent

(* Decide one call.  A context is built only where the decision
   actually needs attributes: never for ungoverned or ungranted
   calls. *)
let check t (call : Api.call) : Api.decision =
  Atomic.incr t.checks;
  let ti = Dispatch.token_index_of_call call in
  if ti < 0 then Api.Allow
  else
    let root = Array.unsafe_get t.roots ti in
    if root = absent then begin
      Atomic.incr t.denials;
      Array.unsafe_get t.deny_missing ti
    end
    else if leaf_pass (walk t (ctx_of_call call) root) then Api.Allow
    else begin
      Atomic.incr t.denials;
      Array.unsafe_get t.deny_reject ti
    end

let check_batch t (calls : Api.call array) : Api.decision array =
  let n = Array.length calls in
  if n = 0 then [||]
  else begin
    ignore (Atomic.fetch_and_add t.checks n);
    let out = Array.make n Api.Allow in
    let denials = ref 0 in
    (* [check] inlined with the per-call bookkeeping hoisted: denials
       tallied locally, [Allow] slots left as the array's fill,
       repeated boxed events (storms) reusing the previous verdict. *)
    for i = 0 to n - 1 do
      let call = Array.unsafe_get calls i in
      if i > 0 && call == Array.unsafe_get calls (i - 1) then begin
        let d = Array.unsafe_get out (i - 1) in
        match d with
        | Api.Deny _ ->
          incr denials;
          Array.unsafe_set out i d
        | Api.Allow -> ()
      end
      else
        let ti = Dispatch.token_index_of_call call in
        if ti >= 0 then begin
          let root = Array.unsafe_get t.roots ti in
          if root = absent then begin
            incr denials;
            Array.unsafe_set out i (Array.unsafe_get t.deny_missing ti)
          end
          else if not (leaf_pass (walk t (ctx_of_call call) root)) then begin
            incr denials;
            Array.unsafe_set out i (Array.unsafe_get t.deny_reject ti)
          end
        end
    done;
    ignore (Atomic.fetch_and_add t.denials !denials);
    out
  end

let ungoverned = { Api.explain = Some "no permission token governs this call" }

let check_explained t (call : Api.call) : Api.decision * Api.check_info =
  Atomic.incr t.checks;
  let ti = Dispatch.token_index_of_call call in
  if ti < 0 then (Api.Allow, ungoverned)
  else
    let root = t.roots.(ti) in
    if root = absent then begin
      Atomic.incr t.denials;
      (t.deny_missing.(ti), t.not_granted.(ti))
    end
    else begin
      let leaf = walk t (ctx_of_call call) root in
      let pass = leaf_pass leaf in
      let explain =
        match t.shapes.(ti) with
        | Sh_const i -> i
        | Sh_or { passed; none } ->
          if pass then passed.(leaf_clause leaf) else none
        | Sh_and { all; failed } ->
          if pass then all else failed.(leaf_clause leaf)
        | Sh_single { passed; failed } -> if pass then passed else failed
      in
      if pass then (Api.Allow, explain)
      else begin
        Atomic.incr t.denials;
        (t.deny_reject.(ti), explain)
      end
    end

let build_stats t = t.built
let stats t = (Atomic.get t.checks, Atomic.get t.denials)
