(* Permission filters (§IV-B): singleton filters over one API-call
   attribute, composed with AND / OR / NOT into filter expressions.

   Each singleton inspects exactly one attribute *dimension*; filters on
   different dimensions are independent, which is the property
   Algorithm 1 (inclusion checking) exploits.  [Macro] is a stub left
   by the app developer for the administrator to bind during
   reconciliation (§V-A, permission customization). *)

open Shield_openflow.Types

type field =
  | F_ip_src
  | F_ip_dst
  | F_tcp_src
  | F_tcp_dst
  | F_eth_src
  | F_eth_dst
  | F_in_port
  | F_eth_type
  | F_ip_proto
  | F_vlan

let field_to_string = function
  | F_ip_src -> "IP_SRC"
  | F_ip_dst -> "IP_DST"
  | F_tcp_src -> "TCP_SRC"
  | F_tcp_dst -> "TCP_DST"
  | F_eth_src -> "ETH_SRC"
  | F_eth_dst -> "ETH_DST"
  | F_in_port -> "IN_PORT"
  | F_eth_type -> "ETH_TYPE"
  | F_ip_proto -> "IP_PROTO"
  | F_vlan -> "VLAN"

let field_of_string s =
  match String.uppercase_ascii s with
  | "IP_SRC" -> Some F_ip_src
  | "IP_DST" -> Some F_ip_dst
  | "TCP_SRC" | "TP_SRC" -> Some F_tcp_src
  | "TCP_DST" | "TP_DST" -> Some F_tcp_dst
  | "ETH_SRC" | "DL_SRC" -> Some F_eth_src
  | "ETH_DST" | "DL_DST" -> Some F_eth_dst
  | "IN_PORT" -> Some F_in_port
  | "ETH_TYPE" | "DL_TYPE" -> Some F_eth_type
  | "IP_PROTO" | "NW_PROTO" -> Some F_ip_proto
  | "VLAN" | "DL_VLAN" -> Some F_vlan
  | _ -> None

let is_ip_field = function F_ip_src | F_ip_dst -> true | _ -> false

(** Field values: IPv4 fields carry 32-bit values (and masks); all other
    fields are plain integers. *)
type value = V_ip of ipv4 | V_int of int

let pp_value ppf = function
  | V_ip ip -> pp_ipv4 ppf ip
  | V_int i -> Fmt.int ppf i

type action_kind =
  | A_drop
  | A_forward
  | A_modify of field
      (** Permission to rewrite [field] (and forward the result). *)

type ownership = Own_flows | All_flows
type pkt_out_kind = From_pkt_in | Arbitrary

module Int_set = Set.Make (Int)

type phys_topo = {
  switches : Int_set.t;
  links : Int_set.t;  (** Link indexes; empty = all links among switches. *)
}

type virt_topo =
  | Single_big_switch
      (** All visible switches presented as one big switch, external
          links kept (the paper's VIRTUAL SINGLE_BIG_SWITCH LINK
          EXTERNAL_LINKS form). *)
  | Switch_groups of (Int_set.t * int) list
      (** Explicit grouping: physical-switch set AS virtual dpid. *)

type callback_kind = Event_interception | Modify_event_order

type singleton =
  | Pred of { field : field; value : value; mask : ipv4 option }
      (** Predicate filter: the call's [field] must fall within (be
          narrower than) the given value/range. *)
  | Wildcard of { field : field; mask : ipv4 }
      (** Wildcard filter: the mask bits of [field] must be wildcarded
          in issued rules. *)
  | Action_f of action_kind
  | Owner of ownership
  | Max_priority of int
  | Min_priority of int
  | Max_rule_count of int
  | Pkt_out of pkt_out_kind
  | Phys_topo of phys_topo
  | Virt_topo of virt_topo
  | Callback of callback_kind
  | Stats_level of Shield_openflow.Stats.level
  | Macro of string  (** Unexpanded administrator stub. *)

type expr =
  | True
  | False
  | Atom of singleton
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

(* Smart constructors ------------------------------------------------------ *)

let atom s = Atom s

let conj a b =
  match (a, b) with
  | True, x | x, True -> x
  | False, _ | _, False -> False
  | _ -> And (a, b)

let disj a b =
  match (a, b) with
  | False, x | x, False -> x
  | True, _ | _, True -> True
  | _ -> Or (a, b)

let neg = function True -> False | False -> True | Not e -> e | e -> Not e

let conj_list = function
  | [] -> True
  | e :: rest -> List.fold_left conj e rest

let disj_list = function
  | [] -> False
  | e :: rest -> List.fold_left disj e rest

let ip_subnet field addr mask =
  Atom (Pred { field; value = V_ip addr; mask = Some mask })

let own_flows = Atom (Owner Own_flows)
let all_flows = Atom (Owner All_flows)

(* Structure --------------------------------------------------------------- *)

(** The attribute dimension a singleton inspects.  Two singletons can
    stand in an inclusion relation only when their dimensions match. *)
type dimension =
  | D_pred of field
  | D_wildcard of field
  | D_action
  | D_owner
  | D_max_priority
  | D_min_priority
  | D_rule_count
  | D_pkt_out
  | D_phys_topo
  | D_virt_topo
  | D_callback of callback_kind
  | D_stats
  | D_macro of string

let dimension = function
  | Pred { field; _ } -> D_pred field
  | Wildcard { field; _ } -> D_wildcard field
  | Action_f _ -> D_action
  | Owner _ -> D_owner
  | Max_priority _ -> D_max_priority
  | Min_priority _ -> D_min_priority
  | Max_rule_count _ -> D_rule_count
  | Pkt_out _ -> D_pkt_out
  | Phys_topo _ -> D_phys_topo
  | Virt_topo _ -> D_virt_topo
  | Callback k -> D_callback k
  | Stats_level _ -> D_stats
  | Macro name -> D_macro name

(* Structural folds run on untrusted expressions during admission
   (docs/VETTING.md), so they use explicit work lists instead of
   recursing on the tree: a 100k-deep bomb must be measurable without
   risking the stack. *)

let fold_atoms f acc expr =
  let rec go acc = function
    | [] -> acc
    | e :: rest -> (
      match e with
      | True | False -> go acc rest
      | Atom s -> go (f acc s) rest
      | Not e -> go acc (e :: rest)
      | And (a, b) | Or (a, b) -> go acc (a :: b :: rest))
  in
  go acc [ expr ]

let macros expr =
  fold_atoms (fun acc s -> match s with Macro m -> m :: acc | _ -> acc) [] expr
  |> List.sort_uniq compare

let has_macros expr = macros expr <> []

let max_chain = 64
let max_nodes = 200_000

(** Substitute macro atoms using [lookup], expanding to fixed point:
    a macro whose replacement itself contains macros keeps expanding,
    so [LET] chains (A -> B -> C) resolve fully instead of silently
    surfacing as unresolved stubs.  Cyclic chains (A -> ... -> A) stop
    at the cycle and leave the inner occurrence unexpanded (it then
    reports as an unresolved macro, which is the fail-closed reading).
    [max_chain] caps the substitution chain depth and [max_nodes] the
    total nodes visited/built — a doubling macro bomb degrades to
    unexpanded stubs instead of exhausting memory.  Ticks the ambient
    {!Budget} per node. *)
let expand_macros lookup expr =
  let remaining = ref max_nodes in
  let rec go stack chain e =
    if !remaining <= 0 then begin
      Budget.note
        "expand: macro expansion node cap reached; remaining stubs left \
         unexpanded";
      e
    end
    else begin
      decr remaining;
      Budget.alloc_nodes 1;
      match e with
      | (True | False) as e -> e
      | Atom (Macro name) as e -> (
        if List.mem name stack then begin
          Budget.note
            (Printf.sprintf
               "expand: cyclic macro chain through %s; left unexpanded" name);
          e
        end
        else if chain >= max_chain then begin
          Budget.note
            (Printf.sprintf
               "expand: macro chain longer than %d at %s; left unexpanded"
               max_chain name);
          e
        end
        else
          match lookup name with
          | Some replacement -> go (name :: stack) (chain + 1) replacement
          | None -> e)
      | Atom _ as e -> e
      | And (a, b) -> conj (go stack chain a) (go stack chain b)
      | Or (a, b) -> disj (go stack chain a) (go stack chain b)
      | Not e -> neg (go stack chain e)
    end
  in
  go [] 0 expr

let size expr =
  let rec go n = function
    | [] -> n
    | e :: rest -> (
      match e with
      | True | False | Atom _ -> go (n + 1) rest
      | Not e -> go (n + 1) (e :: rest)
      | And (a, b) | Or (a, b) -> go (n + 1) (a :: b :: rest))
  in
  go 0 [ expr ]

let depth expr =
  let rec go best = function
    | [] -> best
    | (e, d) :: rest -> (
      match e with
      | True | False | Atom _ -> go (max best d) rest
      | Not e -> go best ((e, d + 1) :: rest)
      | And (a, b) | Or (a, b) -> go best ((a, d + 1) :: (b, d + 1) :: rest))
  in
  go 0 [ (expr, 1) ]

(* Equality ---------------------------------------------------------------- *)

let equal_singleton (a : singleton) (b : singleton) = a = b

let rec equal_expr a b =
  match (a, b) with
  | True, True | False, False -> true
  | Atom x, Atom y -> equal_singleton x y
  | And (a1, a2), And (b1, b2) | Or (a1, a2), Or (b1, b2) ->
    equal_expr a1 b1 && equal_expr a2 b2
  | Not x, Not y -> equal_expr x y
  | _ -> false

(* Pretty-printing in the permission-language concrete syntax ------------- *)

let pp_int_set ppf s =
  Fmt.(list ~sep:comma int) ppf (Int_set.elements s)

let pp_singleton ppf = function
  | Pred { field; value; mask = None } ->
    Fmt.pf ppf "%s %a" (field_to_string field) pp_value value
  | Pred { field; value; mask = Some m } ->
    Fmt.pf ppf "%s %a MASK %a" (field_to_string field) pp_value value pp_ipv4 m
  | Wildcard { field; mask } ->
    Fmt.pf ppf "WILDCARD %s %a" (field_to_string field) pp_ipv4 mask
  | Action_f A_drop -> Fmt.string ppf "ACTION DROP"
  | Action_f A_forward -> Fmt.string ppf "ACTION FORWARD"
  | Action_f (A_modify f) -> Fmt.pf ppf "ACTION MODIFY %s" (field_to_string f)
  | Owner Own_flows -> Fmt.string ppf "OWN_FLOWS"
  | Owner All_flows -> Fmt.string ppf "ALL_FLOWS"
  | Max_priority n -> Fmt.pf ppf "MAX_PRIORITY %d" n
  | Min_priority n -> Fmt.pf ppf "MIN_PRIORITY %d" n
  | Max_rule_count n -> Fmt.pf ppf "MAX_RULE_COUNT %d" n
  | Pkt_out From_pkt_in -> Fmt.string ppf "FROM_PKT_IN"
  | Pkt_out Arbitrary -> Fmt.string ppf "ARBITRARY"
  | Phys_topo { switches; links } ->
    if Int_set.is_empty links then
      Fmt.pf ppf "SWITCH %a" pp_int_set switches
    else Fmt.pf ppf "SWITCH %a LINK %a" pp_int_set switches pp_int_set links
  | Virt_topo Single_big_switch ->
    Fmt.string ppf "VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS"
  | Virt_topo (Switch_groups groups) ->
    Fmt.pf ppf "VIRTUAL %a"
      Fmt.(
        list ~sep:comma (fun ppf (set, vid) ->
            pf ppf "{ %a } AS %d" pp_int_set set vid))
      groups
  | Callback Event_interception -> Fmt.string ppf "EVENT_INTERCEPTION"
  | Callback Modify_event_order -> Fmt.string ppf "MODIFY_EVENT_ORDER"
  | Stats_level l -> Fmt.string ppf (Shield_openflow.Stats.level_to_string l)
  | Macro name -> Fmt.string ppf name

let rec pp ppf = function
  | True -> Fmt.string ppf "TRUE"
  | False -> Fmt.string ppf "FALSE"
  | Atom s -> pp_singleton ppf s
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp a pp b
  | Not e -> Fmt.pf ppf "NOT %a" pp e

let to_string = Fmt.to_to_string pp
