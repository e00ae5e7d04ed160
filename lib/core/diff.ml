(* Symbolic lattice difference with witness synthesis.  See diff.mli.

   The candidate machinery here began life inside shield-verify's
   counterexample search and is the generalized, standalone form: a
   witness search enumerates concrete calls and keeps the first ones
   [Filter_eval] confirms.  The candidate space is seeded from the
   atoms of the filters under comparison: every predicate contributes
   its exact value, its subnet form and a value just outside its
   range; priority bounds contribute their boundary and the first
   value past it; topology sets contribute members and a non-member;
   and so on.  For a non-empty difference the region is almost always
   delimited by the atoms of the two filters, so this small
   atom-derived frontier finds the witness without anything like SMT.
   Every candidate costs one budget tick; searches are also
   hard-capped, so adversarial filters degrade to Unknown instead of
   to a scan. *)

open Shield_openflow
module Api = Shield_controller.Api

type witness = {
  token : Token.t;
  call : Api.call;
  why_left : string;
  why_right : string;
}

type verdict = Empty | Nonempty of witness list | Unknown of string

let pure = Filter_eval.pure_env
let eval_f f attrs = Filter_eval.eval pure f attrs

(* Candidate synthesis ------------------------------------------------------ *)

type cand_val = C_ipm of Match_fields.ip_match | C_int of int

type cands = {
  mutable per_field : (Filter.field * cand_val) list;
  mutable prios : int list;
  mutable dpids : int list;
  mutable actsets : Action.t list list;
  mutable levels : Stats.level list;
}

let add_uniq x xs = if List.mem x xs then xs else xs @ [ x ]

let set_field_for (f : Filter.field) : Action.set_field option =
  match f with
  | Filter.F_eth_src -> Some (Action.Set_dl_src 0xBEEF)
  | Filter.F_eth_dst -> Some (Action.Set_dl_dst 0xBEEF)
  | Filter.F_ip_src -> Some (Action.Set_nw_src 0x0A000063l)
  | Filter.F_ip_dst -> Some (Action.Set_nw_dst 0x0A000063l)
  | Filter.F_tcp_src -> Some (Action.Set_tp_src 4242)
  | Filter.F_tcp_dst -> Some (Action.Set_tp_dst 4242)
  | _ -> None

let harvest (filters : Filter.expr list) : cands =
  let c =
    { per_field = []; prios = []; dpids = []; actsets = []; levels = [] }
  in
  let add_field f v = c.per_field <- add_uniq (f, v) c.per_field in
  let one (s : Filter.singleton) =
    match s with
    | Filter.Pred { field; value = Filter.V_ip a; mask } ->
      let m = Option.value mask ~default:0xFFFFFFFFl in
      add_field field (C_ipm (Match_fields.exact_ip a));
      add_field field (C_ipm { Match_fields.addr = Int32.logand a m; mask = m });
      (* A value just outside the range: flip one bit the mask fixes. *)
      if m <> 0l then begin
        let bit = Int32.logand m (Int32.neg m) in
        add_field field (C_ipm (Match_fields.exact_ip (Int32.logxor a bit)))
      end
    | Filter.Pred { field; value = Filter.V_int v; _ } ->
      add_field field (C_int v);
      add_field field (C_int (v + 1))
    | Filter.Wildcard { field; mask } when Filter.is_ip_field field ->
      (* Constrains the field while keeping the mask bits wildcarded. *)
      add_field field
        (C_ipm { Match_fields.addr = 0l; mask = Int32.lognot mask })
    | Filter.Wildcard _ -> ()
    | Filter.Max_priority n ->
      c.prios <- add_uniq n c.prios;
      if n < 65535 then c.prios <- add_uniq (n + 1) c.prios
    | Filter.Min_priority n ->
      c.prios <- add_uniq n c.prios;
      if n > 0 then c.prios <- add_uniq (n - 1) c.prios
    | Filter.Phys_topo { switches; _ } ->
      Option.iter
        (fun d -> c.dpids <- add_uniq d c.dpids)
        (Filter.Int_set.min_elt_opt switches);
      Option.iter
        (fun d ->
          c.dpids <- add_uniq d c.dpids;
          c.dpids <- add_uniq (d + 1) c.dpids)
        (Filter.Int_set.max_elt_opt switches)
    | Filter.Virt_topo Filter.Single_big_switch ->
      c.dpids <- add_uniq Filter_eval.virtual_big_switch_dpid c.dpids
    | Filter.Virt_topo (Filter.Switch_groups groups) ->
      List.iter (fun (_, vid) -> c.dpids <- add_uniq vid c.dpids) groups
    | Filter.Stats_level l -> c.levels <- add_uniq l c.levels
    | Filter.Action_f Filter.A_drop -> c.actsets <- add_uniq [] c.actsets
    | Filter.Action_f Filter.A_forward ->
      c.actsets <- add_uniq [ Action.Output 2 ] c.actsets
    | Filter.Action_f (Filter.A_modify f) ->
      let set =
        match set_field_for f with
        | Some sf -> [ Action.Set sf; Action.Output 2 ]
        | None -> [ Action.Output 2 ]
      in
      c.actsets <- add_uniq set c.actsets
    | Filter.Max_rule_count _ | Filter.Pkt_out _ | Filter.Owner _
    | Filter.Callback _ | Filter.Macro _ ->
      ()
  in
  List.iter (fun f -> Filter.fold_atoms (fun () s -> one s) () f) filters;
  (* Defaults keep every dimension inhabited even when no atom names
     it, so unconstrained sides still yield candidates. *)
  c.prios <- add_uniq 100 c.prios;
  c.dpids <- add_uniq 1 c.dpids;
  c.actsets <- add_uniq [ Action.Output 2 ] c.actsets;
  c.actsets <- add_uniq [] c.actsets;
  c.actsets <- add_uniq [ Action.To_controller ] c.actsets;
  c.levels <- add_uniq Stats.Flow_level c.levels;
  c.levels <- add_uniq Stats.Switch_level c.levels;
  c

(* Match-record assignments: the cartesian product of {absent, each
   candidate value} over the fields that have candidates.  Lazy
   ([Seq]), widest dimension last, capped by the search driver. *)
let match_seq (c : cands) : Match_fields.t Seq.t =
  let fields =
    List.fold_left
      (fun acc (f, _) -> if List.mem f acc then acc else acc @ [ f ])
      [] c.per_field
  in
  let fields = List.filteri (fun i _ -> i < 6) fields in
  let values f =
    List.filter_map
      (fun (f', v) -> if f' = f then Some v else None)
      c.per_field
  in
  let apply (m : Match_fields.t) f (v : cand_val) : Match_fields.t =
    match (f, v) with
    | Filter.F_ip_src, C_ipm im -> { m with Match_fields.nw_src = Some im }
    | Filter.F_ip_dst, C_ipm im -> { m with Match_fields.nw_dst = Some im }
    | Filter.F_tcp_src, C_int v -> { m with Match_fields.tp_src = Some v }
    | Filter.F_tcp_dst, C_int v -> { m with Match_fields.tp_dst = Some v }
    | Filter.F_eth_src, C_int v -> { m with Match_fields.dl_src = Some v }
    | Filter.F_eth_dst, C_int v -> { m with Match_fields.dl_dst = Some v }
    | Filter.F_in_port, C_int v -> { m with Match_fields.in_port = Some v }
    | Filter.F_eth_type, C_int v ->
      { m with Match_fields.dl_type = Some (Types.eth_type_of_code v) }
    | Filter.F_ip_proto, C_int v ->
      { m with Match_fields.nw_proto = Some (Types.ip_proto_of_code v) }
    | Filter.F_vlan, C_int v -> { m with Match_fields.dl_vlan = Some v }
    | _ -> m
  in
  let rec go fields (m : Match_fields.t) : Match_fields.t Seq.t =
    match fields with
    | [] -> Seq.return m
    | f :: rest ->
      Seq.concat_map
        (fun v_opt ->
          let m' = match v_opt with None -> m | Some v -> apply m f v in
          go rest m')
        (List.to_seq (None :: List.map Option.some (values f)))
  in
  go fields Match_fields.wildcard_all

let seq_prod (xs : 'a list) (f : 'a -> 'b Seq.t) : 'b Seq.t =
  Seq.concat_map f (List.to_seq xs)

let ip_cands (c : cands) field ~default : Types.ipv4 list =
  let vs =
    List.filter_map
      (function
        | f, C_ipm im when f = field -> Some im.Match_fields.addr
        | _ -> None)
      c.per_field
  in
  if vs = [] then [ default ] else vs

let int_cands (c : cands) field ~default : int list =
  let vs =
    List.filter_map
      (function f, C_int v when f = field -> Some v | _ -> None)
      c.per_field
  in
  if vs = [] then [ default ] else vs

let packets (c : cands) : Packet.t list =
  let dsts = ip_cands c Filter.F_ip_dst ~default:0x0A000001l in
  let srcs = ip_cands c Filter.F_ip_src ~default:0x0A000009l in
  let tp_dsts = int_cands c Filter.F_tcp_dst ~default:80 in
  let tcps =
    List.concat_map
      (fun nw_dst ->
        List.map
          (fun tp_dst ->
            Packet.tcp ~src:1 ~dst:2 ~nw_src:(List.hd srcs) ~nw_dst
              ~tp_src:1234 ~tp_dst ())
          (List.filteri (fun i _ -> i < 3) tp_dsts))
      (List.filteri (fun i _ -> i < 3) dsts)
  in
  Packet.arp ~src:1 ~dst:2 () :: tcps

(* All candidate calls for [token], as a lazy sequence. *)
let calls_for (c : cands) (token : Token.t) : Api.call Seq.t =
  let matches () = match_seq c in
  let install mk =
    seq_prod c.prios (fun p ->
        seq_prod c.dpids (fun d ->
            seq_prod c.actsets (fun al ->
                Seq.map (fun m -> mk p d al m) (matches ()))))
  in
  match token with
  | Token.Insert_flow ->
    install (fun p d al m ->
        Api.Install_flow (d, Flow_mod.add ~priority:p ~match_:m ~actions:al ()))
  | Token.Delete_flow ->
    seq_prod c.prios (fun p ->
        seq_prod c.dpids (fun d ->
            Seq.map
              (fun m ->
                Api.Install_flow (d, Flow_mod.delete ~priority:p ~match_:m ()))
              (matches ())))
  | Token.Read_flow_table ->
    seq_prod (None :: List.map Option.some c.dpids) (fun dpid ->
        Seq.cons
          (Api.Read_flow_table { dpid; pattern = None })
          (Seq.map
             (fun m -> Api.Read_flow_table { dpid; pattern = Some m })
             (matches ())))
  | Token.Visible_topology -> Seq.return Api.Read_topology
  | Token.Modify_topology ->
    seq_prod c.dpids (fun d -> Seq.return (Api.Modify_topology (Api.Add_switch d)))
  | Token.Read_statistics ->
    Seq.append
      (seq_prod c.levels (fun level ->
           seq_prod (None :: List.map Option.some c.dpids) (fun dpid ->
               Seq.cons
                 (Api.Read_stats (Stats.request ?dpid level))
                 (Seq.map
                    (fun m ->
                      Api.Read_stats (Stats.request ?dpid ~match_filter:m level))
                    (matches ())))))
      (Seq.return (Api.Receive_event Api.E_stats))
  | Token.Flow_event -> Seq.return (Api.Receive_event Api.E_flow)
  | Token.Topology_event -> Seq.return (Api.Receive_event Api.E_topology)
  | Token.Error_event -> Seq.return (Api.Receive_event Api.E_error)
  | Token.Pkt_in_event -> Seq.return (Api.Receive_event Api.E_packet_in)
  | Token.Read_payload -> Seq.return Api.Read_payload_access
  | Token.Send_pkt_out ->
    seq_prod c.dpids (fun dpid ->
        seq_prod [ true; false ] (fun from_pkt_in ->
            Seq.map
              (fun packet ->
                Api.Send_packet_out { dpid; port = 2; packet; from_pkt_in })
              (List.to_seq (packets c))))
  | Token.Host_network ->
    seq_prod (ip_cands c Filter.F_ip_dst ~default:0x0A000001l) (fun dst ->
        seq_prod (int_cands c Filter.F_tcp_dst ~default:80) (fun dst_port ->
            Seq.return (Api.Syscall (Api.Net_connect { dst; dst_port; payload = "" }))))
  | Token.File_system ->
    List.to_seq
      [ Api.Syscall (Api.File_open { path = "/etc/app.conf"; write = false });
        Api.Syscall (Api.File_open { path = "/etc/app.conf"; write = true }) ]
  | Token.Process_runtime -> Seq.return (Api.Syscall (Api.Spawn_process "helper"))

let max_candidates = 4096

let find_call ~(filters : Filter.expr list) (token : Token.t)
    ~(goal : Attrs.t -> bool) : (Api.call * Attrs.t) option =
  let cands = harvest filters in
  let seq = calls_for cands token in
  let rec scan n seq =
    if n >= max_candidates then None
    else
      match seq () with
      | Seq.Nil -> None
      | Seq.Cons (call, rest) ->
        Budget.step ();
        let attrs = Attrs.of_call call in
        if goal attrs then Some (call, attrs) else scan (n + 1) rest
  in
  scan 0 seq

(* Verdicts ----------------------------------------------------------------- *)

let dedup ?(cap = 8) xs =
  let rec go seen acc n = function
    | [] -> List.rev acc
    | _ :: _ when n >= cap -> List.rev acc
    | x :: rest ->
      if List.memq x seen then go seen acc n rest
      else go (x :: seen) (x :: acc) (n + 1) rest
  in
  go [] [] 0 xs

(* The fail-closed absorption shared by both verdicts: whatever
   {!Budget.absorb} catches answers [Unknown], never [Empty] (the
   direction table in docs/VETTING.md; pinned by test/test_diff.ml).
   The spent budget stays spent, so a caller folding many differences
   degrades each remaining query at its first tick instead of
   looping. *)
let guarded (f : unit -> verdict) : verdict =
  match Budget.absorb f with Ok v -> v | Error { reason; _ } -> Unknown reason

let witnesses_over (p : Perm.manifest) ~(max_witnesses : int)
    (search : Perm.t -> witness option) : witness list =
  let rec go acc n = function
    | [] -> List.rev acc
    | _ :: _ when n >= max_witnesses -> List.rev acc
    | perm :: rest -> (
      match search perm with
      | Some w -> go (w :: acc) (n + 1) rest
      | None -> go acc n rest)
  in
  go [] 0 p

let diff ?(max_witnesses = 4) (p : Perm.manifest) (q : Perm.manifest) : verdict =
  guarded (fun () ->
      if Inclusion.manifest_includes q p then Empty
      else
        let search (perm : Perm.t) =
          let token = perm.Perm.token in
          let fl = perm.Perm.filter in
          let fr = Perm.filter_of q token in
          let goal attrs = eval_f fl attrs && not (eval_f fr attrs) in
          match find_call ~filters:[ fl; fr ] token ~goal with
          | None -> None
          | Some (call, attrs) ->
            let _, why_left = Filter_eval.explain pure fl attrs in
            let _, why_right = Filter_eval.explain pure fr attrs in
            Some { token; call; why_left; why_right }
        in
        match witnesses_over p ~max_witnesses search with
        | [] ->
          Unknown
            "difference neither provably empty (Algorithm 1 is incomplete) \
             nor witnessed by a confirmed call"
        | ws -> Nonempty ws)

let overlap ?(max_witnesses = 4) (p : Perm.manifest) (q : Perm.manifest) :
    verdict =
  guarded (fun () ->
      (* [manifests_overlap] is conservative toward [true], so a
         [false] is a sound disjointness proof. *)
      if not (Inclusion.manifests_overlap p q) then Empty
      else
        let search (perm : Perm.t) =
          let token = perm.Perm.token in
          let fl = perm.Perm.filter in
          let fr = Perm.filter_of q token in
          if fr = Filter.False then None
          else
            let goal attrs = eval_f fl attrs && eval_f fr attrs in
            match find_call ~filters:[ fl; fr ] token ~goal with
            | None -> None
            | Some (call, attrs) ->
              let _, why_left = Filter_eval.explain pure fl attrs in
              let _, why_right = Filter_eval.explain pure fr attrs in
              Some { token; call; why_left; why_right }
        in
        match witnesses_over p ~max_witnesses search with
        | [] ->
          Unknown
            "overlap neither provably empty nor witnessed by a confirmed call"
        | ws -> Nonempty ws)
