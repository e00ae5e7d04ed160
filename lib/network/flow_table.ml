(* Tuple-space search, the design of Open vSwitch's classifier (Pfaff
   et al., NSDI 2015).

   Entries are grouped by priority and shape: which match fields are
   bound, plus the IPv4 masks.  Each group hashes its entries on their
   bound field values, so a lookup probes one bucket per group and an
   Add finds the entry it replaces in one bucket.  A bucket may hold
   matches that differ only where [Match_fields.matches] cannot tell
   them apart, so every candidate is confirmed with it.  Modify, Delete,
   expiry and queries scan every entry, as the subsumption tests they
   make need. *)

open Shield_openflow
open Shield_openflow.Types

type entry = {
  match_ : Match_fields.t;
  priority : int;
  actions : Action.t list;
  cookie : int;
  idle_timeout : int;
  hard_timeout : int;
  mutable packet_count : int64;
  mutable byte_count : int64;
  mutable install_time : int;  (** Logical clock tick of installation. *)
}

(* An installed entry and its install sequence number, the tie-break
   among equal priorities.  Modify swaps [entry] in place. *)
type slot = { seq : int; mutable entry : entry }

(* The bound fields of a match, one bit each, and its IPv4 masks as
   unsigned 32-bit ints (0 where the address is unbound). *)
type shape = { bound : int; src_mask : int; dst_mask : int }

module Buckets = Hashtbl.Make (Int)

type group = {
  priority : int;
  shape : shape;
  buckets : slot list Buckets.t;  (** Keyed by {!key}; none empty. *)
}

type t = {
  mutable groups : group list;  (** Sorted by decreasing priority. *)
  mutable size : int;
  mutable next_seq : int;
  mutable clock : int;
}

let create () = { groups = []; size = 0; next_seq = 0; clock = 0 }
let size t = t.size
let tick t = t.clock <- t.clock + 1

let entry_of_flow_mod ~clock (fm : Flow_mod.t) =
  { match_ = fm.match_; priority = fm.priority; actions = fm.actions;
    cookie = fm.cookie; idle_timeout = fm.idle_timeout;
    hard_timeout = fm.hard_timeout; packet_count = 0L; byte_count = 0L;
    install_time = clock }

(* Shapes and keys -------------------------------------------------------- *)

let in_port_bit = 1
let dl_src_bit = 2
let dl_dst_bit = 4
let dl_type_bit = 8
let dl_vlan_bit = 16
let nw_proto_bit = 32
let tp_src_bit = 64
let tp_dst_bit = 128
let nw_src_bit = 256
let nw_dst_bit = 512

let bit b = function None -> 0 | Some _ -> b
let u32 x = Int32.to_int x land 0xFFFF_FFFF

let ip_mask = function
  | None -> 0
  | Some (i : Match_fields.ip_match) -> u32 i.mask

let shape_of (m : Match_fields.t) =
  { bound =
      bit in_port_bit m.in_port lor bit dl_src_bit m.dl_src
      lor bit dl_dst_bit m.dl_dst lor bit dl_type_bit m.dl_type
      lor bit dl_vlan_bit m.dl_vlan lor bit nw_proto_bit m.nw_proto
      lor bit tp_src_bit m.tp_src lor bit tp_dst_bit m.tp_dst
      lor bit nw_src_bit m.nw_src lor bit nw_dst_bit m.nw_dst;
    src_mask = ip_mask m.nw_src;
    dst_mask = ip_mask m.nw_dst }

(* One multiply-xor step per field; [Buckets] rehashes the result.
   Unbound fields enter as 0, IPv4 addresses masked, and [eth_type] and
   [ip_proto] by code, so a match and every packet it matches get the
   same key. *)
let mix h v = (h lxor v) * 0x100000001b3

let key ~in_port ~dl_src ~dl_dst ~dl_type ~dl_vlan ~nw_src ~nw_dst ~nw_proto
    ~tp_src ~tp_dst =
  let h = mix (mix (mix 0 in_port) dl_src) dl_dst in
  let h = mix (mix (mix h dl_type) dl_vlan) nw_src in
  let h = mix (mix (mix h nw_dst) nw_proto) tp_src in
  mix h tp_dst

let opt = function None -> 0 | Some v -> v
let opt_code code = function None -> 0 | Some v -> code v

let masked_ip = function
  | None -> 0
  | Some (i : Match_fields.ip_match) -> u32 i.addr land u32 i.mask

let key_of_match (m : Match_fields.t) =
  key ~in_port:(opt m.in_port) ~dl_src:(opt m.dl_src) ~dl_dst:(opt m.dl_dst)
    ~dl_type:(opt_code eth_type_code m.dl_type) ~dl_vlan:(opt m.dl_vlan)
    ~nw_src:(masked_ip m.nw_src) ~nw_dst:(masked_ip m.nw_dst)
    ~nw_proto:(opt_code ip_proto_code m.nw_proto) ~tp_src:(opt m.tp_src)
    ~tp_dst:(opt m.tp_dst)

let sel shape b v = if shape.bound land b = 0 then 0 else v

(* The key a match of [shape] must have for [pkt] to satisfy it.  A
   field the packet lacks enters as 0; the confirming [matches] rejects
   whatever that bucket holds. *)
let key_of_packet shape ~in_port (pkt : Packet.t) =
  let nw_src, nw_dst, nw_proto =
    match pkt.ip with
    | Some ip ->
      ( u32 ip.nw_src land shape.src_mask,
        u32 ip.nw_dst land shape.dst_mask,
        sel shape nw_proto_bit (ip_proto_code ip.nw_proto) )
    | None -> (0, 0, 0)
  in
  let tp_src, tp_dst =
    match pkt.tp with
    | Some tp ->
      (sel shape tp_src_bit tp.tp_src, sel shape tp_dst_bit tp.tp_dst)
    | None -> (0, 0)
  in
  key
    ~in_port:(sel shape in_port_bit in_port)
    ~dl_src:(sel shape dl_src_bit pkt.dl_src)
    ~dl_dst:(sel shape dl_dst_bit pkt.dl_dst)
    ~dl_type:(sel shape dl_type_bit (eth_type_code pkt.dl_type))
    ~dl_vlan:(sel shape dl_vlan_bit (opt pkt.dl_vlan))
    ~nw_src ~nw_dst ~nw_proto ~tp_src ~tp_dst

let bucket g k =
  match Buckets.find_opt g.buckets k with Some l -> l | None -> []

(* Table order ------------------------------------------------------------ *)

let table_order a b =
  if a.entry.priority <> b.entry.priority then
    Int.compare b.entry.priority a.entry.priority
  else Int.compare a.seq b.seq

let in_table_order slots =
  List.map (fun s -> s.entry) (List.sort table_order slots)

let all_slots t =
  List.fold_left
    (fun acc g -> Buckets.fold (fun _ slots acc -> slots @ acc) g.buckets acc)
    [] t.groups

let entries t = in_table_order (all_slots t)

let fold f t acc =
  List.fold_left
    (fun acc g ->
      Buckets.fold
        (fun _ slots acc -> List.fold_left (fun acc s -> f s.entry acc) acc slots)
        g.buckets acc)
    acc t.groups

(* Entries are copied with their slots: counters are mutable. *)
let copy t =
  let copy_slot s =
    { s with entry = { s.entry with packet_count = s.entry.packet_count } }
  in
  let copy_group g =
    let buckets = Buckets.create (Buckets.length g.buckets) in
    Buckets.iter
      (fun k slots -> Buckets.replace buckets k (List.map copy_slot slots))
      g.buckets;
    { g with buckets }
  in
  { t with groups = List.map copy_group t.groups }

(* Updates ---------------------------------------------------------------- *)

let same_rule (e : entry) ~match_ ~priority =
  e.priority = priority && Match_fields.equal e.match_ match_

let group_for t ~priority shape =
  match
    List.find_opt
      (fun g -> g.priority = priority && g.shape = shape)
      t.groups
  with
  | Some g -> g
  | None ->
    let g = { priority; shape; buckets = Buckets.create 16 } in
    let rec insert = function
      | g' :: rest when g'.priority >= priority -> g' :: insert rest
      | rest -> g :: rest
    in
    t.groups <- insert t.groups;
    g

(* Install [fm] as a new entry, after every entry of its priority, and
   return the entry it replaces (same priority, equal match), if any. *)
let add t (fm : Flow_mod.t) =
  let g = group_for t ~priority:fm.priority (shape_of fm.match_) in
  let k = key_of_match fm.match_ in
  let removed, kept =
    List.partition
      (fun s -> same_rule s.entry ~match_:fm.match_ ~priority:fm.priority)
      (bucket g k)
  in
  let s = { seq = t.next_seq; entry = entry_of_flow_mod ~clock:t.clock fm } in
  t.next_seq <- t.next_seq + 1;
  Buckets.replace g.buckets k (s :: kept);
  t.size <- t.size + 1 - List.length removed;
  List.map (fun s -> s.entry) removed

(* Remove every entry satisfying [p]; return them in table order. *)
let remove_if t p =
  let removed = ref [] in
  List.iter
    (fun g ->
      Buckets.filter_map_inplace
        (fun _ slots ->
          let gone, kept = List.partition (fun s -> p s.entry) slots in
          t.size <- t.size - List.length gone;
          removed := gone @ !removed;
          if kept = [] then None else Some kept)
        g.buckets)
    t.groups;
  t.groups <- List.filter (fun g -> Buckets.length g.buckets > 0) t.groups;
  in_table_order !removed

let apply t (fm : Flow_mod.t) : entry list =
  match fm.command with
  | Add -> add t fm
  | Modify ->
    let touched = ref false in
    List.iter
      (fun g ->
        Buckets.iter
          (fun _ slots ->
            List.iter
              (fun s ->
                if Match_fields.subsumes ~outer:fm.match_ ~inner:s.entry.match_
                then begin
                  touched := true;
                  s.entry <-
                    { s.entry with actions = fm.actions; cookie = fm.cookie }
                end)
              slots)
          g.buckets)
      t.groups;
    (* OF 1.0: MODIFY with no matching entry behaves as ADD.  Nothing is
       replaced: an equal match would have been subsumed. *)
    if not !touched then ignore (add t fm);
    []
  | Delete ->
    remove_if t (fun e ->
        Match_fields.subsumes ~outer:fm.match_ ~inner:e.match_)

(* Lookup ----------------------------------------------------------------- *)

(* The earliest-installed slot of [slots] that [pkt] matches, or [best]. *)
let rec earliest best ~in_port pkt = function
  | [] -> best
  | s :: rest ->
    let better = match best with None -> true | Some b -> s.seq < b.seq in
    if better && Match_fields.matches s.entry.match_ ~in_port pkt then
      earliest (Some s) ~in_port pkt rest
    else earliest best ~in_port pkt rest

(* Probe the groups by decreasing priority, stopping below the priority
   of the best hit so far. *)
let rec probe best ~in_port pkt = function
  | [] -> best
  | g :: rest -> (
    match best with
    | Some b when b.entry.priority > g.priority -> best
    | _ ->
      let k = key_of_packet g.shape ~in_port pkt in
      probe (earliest best ~in_port pkt (bucket g k)) ~in_port pkt rest)

let lookup t ~in_port (pkt : Packet.t) =
  match probe None ~in_port pkt t.groups with
  | Some { entry = e; _ } ->
    e.packet_count <- Int64.add e.packet_count 1L;
    e.byte_count <- Int64.add e.byte_count (Int64.of_int (Packet.size pkt));
    Some e
  | None -> None

(* Queries ---------------------------------------------------------------- *)

let query t (pattern : Match_fields.t option) =
  match pattern with
  | None -> entries t
  | Some p ->
    List.filter
      (fun e -> Match_fields.subsumes ~outer:p ~inner:e.match_)
      (entries t)

let flow_stats t pattern : Stats.flow_stat list =
  List.map
    (fun e ->
      { Stats.match_ = e.match_; priority = e.priority; cookie = e.cookie;
        packet_count = e.packet_count; byte_count = e.byte_count;
        duration_sec = t.clock - e.install_time })
    (query t pattern)

let expire t =
  remove_if t (fun e ->
      let age = t.clock - e.install_time in
      (e.hard_timeout > 0 && age >= e.hard_timeout)
      || (e.idle_timeout > 0 && e.packet_count = 0L && age >= e.idle_timeout))

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "@[<h>prio=%d [%a] -> %a cookie=%d pkts=%Ld@]" e.priority
    Match_fields.pp e.match_ Action.pp_list e.actions e.cookie e.packet_count

let pp ppf t = Fmt.(vbox (list pp_entry)) ppf (entries t)
