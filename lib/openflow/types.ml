(* Basic identifiers and scalar field types shared by the whole stack.

   The repository models an OpenFlow 1.0-style network: 48-bit MAC
   addresses, 32-bit IPv4 addresses with prefix masks, 16-bit transport
   ports and integer datapath identifiers.  Values are stored in native
   [int]/[int32] form; the formatting helpers render them in the usual
   dotted/colon notations so traces and test output stay readable. *)

type dpid = int
(** Datapath (switch) identifier. *)

type port_no = int
(** Physical port number on a switch. *)

type mac = int
(** 48-bit MAC address stored in the low bits of an [int]. *)

type ipv4 = int32
(** IPv4 address in host byte order. *)

type tp_port = int
(** Transport-layer (TCP/UDP) port. *)

type vlan = int

type eth_type =
  | Eth_ip
  | Eth_arp
  | Eth_other of int

type ip_proto =
  | Proto_tcp
  | Proto_udp
  | Proto_icmp
  | Proto_other of int

let eth_type_code = function
  | Eth_ip -> 0x0800
  | Eth_arp -> 0x0806
  | Eth_other c -> c

let eth_type_of_code = function
  | 0x0800 -> Eth_ip
  | 0x0806 -> Eth_arp
  | c -> Eth_other c

let ip_proto_code = function
  | Proto_tcp -> 6
  | Proto_udp -> 17
  | Proto_icmp -> 1
  | Proto_other c -> c

let ip_proto_of_code = function
  | 6 -> Proto_tcp
  | 17 -> Proto_udp
  | 1 -> Proto_icmp
  | c -> Proto_other c

let equal_eth_type a b = eth_type_code a = eth_type_code b
let equal_ip_proto a b = ip_proto_code a = ip_proto_code b

(* IPv4 helpers ----------------------------------------------------------- *)

let ipv4_of_octets a b c d : ipv4 =
  let ( << ) = Int32.shift_left and ( ||| ) = Int32.logor in
  Int32.of_int a << 24 ||| (Int32.of_int b << 16)
  ||| (Int32.of_int c << 8) ||| Int32.of_int d

let ipv4_of_string s : ipv4 =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let f x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 -> v
      | _ -> invalid_arg (Printf.sprintf "ipv4_of_string: %S" s)
    in
    ipv4_of_octets (f a) (f b) (f c) (f d)
  | _ -> invalid_arg (Printf.sprintf "ipv4_of_string: %S" s)

let ipv4_to_string (ip : ipv4) =
  let ( >> ) = Int32.shift_right_logical in
  let octet n = Int32.to_int (Int32.logand (ip >> n) 0xFFl) in
  Printf.sprintf "%d.%d.%d.%d" (octet 24) (octet 16) (octet 8) (octet 0)

(** [prefix_mask len] is the IPv4 mask with the [len] highest bits set,
    e.g. [prefix_mask 16 = 255.255.0.0]. *)
let prefix_mask len : ipv4 =
  if len <= 0 then 0l
  else if len >= 32 then 0xFFFFFFFFl
  else Int32.shift_left 0xFFFFFFFFl (32 - len)

(** [mask_prefix_len m] is the prefix length of a contiguous mask, or
    [None] when the mask is non-contiguous. *)
let mask_prefix_len (m : ipv4) =
  let rec count i =
    if i = 32 then Some 32
    else if Int32.logand (Int32.shift_right_logical m (31 - i)) 1l = 1l then
      count (i + 1)
    else if Int32.logand m (Int32.sub (Int32.shift_left 1l (32 - i)) 1l) = 0l
    then Some i
    else None
  in
  count 0

let ipv4_in_subnet ~addr ~subnet ~mask =
  Int32.logand addr mask = Int32.logand subnet mask

(* MAC helpers ------------------------------------------------------------ *)

let mac_of_int (i : int) : mac = i land 0xFFFFFFFFFFFF

let mac_to_string (m : mac) =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((m lsr 40) land 0xFF) ((m lsr 32) land 0xFF) ((m lsr 24) land 0xFF)
    ((m lsr 16) land 0xFF) ((m lsr 8) land 0xFF) (m land 0xFF)

let mac_of_string s =
  match String.split_on_char ':' s with
  | [ _; _; _; _; _; _ ] as parts ->
    List.fold_left
      (fun acc p ->
        match int_of_string_opt ("0x" ^ p) with
        | Some v when v >= 0 && v <= 255 -> (acc lsl 8) lor v
        | _ -> invalid_arg (Printf.sprintf "mac_of_string: %S" s))
      0 parts
  | _ -> invalid_arg (Printf.sprintf "mac_of_string: %S" s)

let broadcast_mac : mac = 0xFFFFFFFFFFFF

(* Pretty-printers -------------------------------------------------------- *)

let pp_mac ppf m = Fmt.string ppf (mac_to_string m)
let pp_ipv4 ppf ip = Fmt.string ppf (ipv4_to_string ip)

let pp_eth_type ppf = function
  | Eth_ip -> Fmt.string ppf "ip"
  | Eth_arp -> Fmt.string ppf "arp"
  | Eth_other c -> Fmt.pf ppf "eth:0x%04x" c

let pp_ip_proto ppf = function
  | Proto_tcp -> Fmt.string ppf "tcp"
  | Proto_udp -> Fmt.string ppf "udp"
  | Proto_icmp -> Fmt.string ppf "icmp"
  | Proto_other c -> Fmt.pf ppf "proto:%d" c
