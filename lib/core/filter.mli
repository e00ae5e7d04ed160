(** Permission filters (§IV-B): fine-grained refinements of permission
    tokens.

    A {e singleton} filter inspects exactly one attribute dimension of
    an API call; singletons compose into expressions with AND / OR /
    NOT.  [Macro] atoms are developer stubs the administrator binds
    during reconciliation (§V-A permission customization). *)

open Shield_openflow.Types

(** Header fields predicate and wildcard filters can inspect. *)
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

val field_to_string : field -> string
val field_of_string : string -> field option
val is_ip_field : field -> bool

(** Field values: IPv4 fields carry 32-bit values (and masks); all
    other fields are plain integers. *)
type value = V_ip of ipv4 | V_int of int

val pp_value : Format.formatter -> value -> unit

(** Action classes for the action filter. *)
type action_kind =
  | A_drop  (** Rule actions must be empty. *)
  | A_forward  (** Output/flood only — no rewrites. *)
  | A_modify of field  (** May rewrite [field] (and forward). *)

type ownership = Own_flows | All_flows
type pkt_out_kind = From_pkt_in | Arbitrary

module Int_set : Set.S with type elt = int

type phys_topo = {
  switches : Int_set.t;
  links : Int_set.t;  (** Link indexes; empty = all links among switches. *)
}

type virt_topo =
  | Single_big_switch
      (** All visible switches presented as one big switch (the paper's
          [VIRTUAL SINGLE_BIG_SWITCH LINK EXTERNAL_LINKS]). *)
  | Switch_groups of (Int_set.t * int) list
      (** Explicit grouping: physical-switch set AS virtual dpid. *)

type callback_kind = Event_interception | Modify_event_order

type singleton =
  | Pred of { field : field; value : value; mask : ipv4 option }
      (** Predicate filter: the call's [field] must be narrower than
          the given value/range. *)
  | Wildcard of { field : field; mask : ipv4 }
      (** Wildcard filter: the mask bits must stay wildcarded in issued
          rules. *)
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

(** {1 Smart constructors}

    [conj]/[disj]/[neg] fold constants ([conj True e = e], …) and are
    semantics-preserving (property-tested). *)

val atom : singleton -> expr
val conj : expr -> expr -> expr
val disj : expr -> expr -> expr
val neg : expr -> expr

val conj_list : expr list -> expr
(** Conjunction of a list; [True] when empty. *)

val disj_list : expr list -> expr
(** Disjunction of a list; [False] when empty. *)

val ip_subnet : field -> ipv4 -> ipv4 -> expr
(** [ip_subnet f addr mask] — predicate filter [f addr MASK mask]. *)

val own_flows : expr
val all_flows : expr

(** {1 Structure} *)

(** The attribute dimension a singleton inspects.  Two singletons can
    stand in an inclusion relation only when their dimensions match
    (Algorithm 1, §V-B1). *)
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

val dimension : singleton -> dimension
val fold_atoms : ('a -> singleton -> 'a) -> 'a -> expr -> 'a

val macros : expr -> string list
(** Stub names appearing in the expression, sorted and deduplicated. *)

val has_macros : expr -> bool

val expand_macros : (string -> expr option) -> expr -> expr
(** Substitute macro atoms using the lookup, expanding to fixed point:
    macros whose replacements contain macros keep expanding, so [LET]
    chains resolve fully.  Cyclic chains stop at the cycle and leave
    the inner occurrence unexpanded (it then reports as an unresolved
    stub — fail closed).  Substitution chains are capped at 64 deep
    and the nodes visited at 200k, degrading a doubling macro bomb to
    unexpanded stubs instead of exhausting memory.  Ticks the ambient
    {!Budget} per node.  Unresolved macros remain. *)

val size : expr -> int
(** Node count (explicit work list — safe on adversarially deep
    expressions). *)

val depth : expr -> int
(** Maximum nesting depth, counting leaves as 1 (explicit work list —
    safe on adversarially deep expressions). *)

val equal_singleton : singleton -> singleton -> bool
val equal_expr : expr -> expr -> bool

(** {1 Pretty-printing} — permission-language concrete syntax, suitable
    for re-parsing. *)

val pp_singleton : Format.formatter -> singleton -> unit
val pp : Format.formatter -> expr -> unit
val to_string : expr -> string
