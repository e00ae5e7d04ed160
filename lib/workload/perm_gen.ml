(* Synthetic permission-manifest generator for the permission-engine
   microbenchmark (Figure 5).

   The paper measures checking throughput against three manually
   generated manifests "representing small, medium and large permission
   complexity": 1, 5 and 15 permission tokens, each token associated
   with 10–20 filters.  This module reproduces those shapes
   deterministically (seeded PRNG).

   Construction invariant: each generated filter is
     [core ∧ pad₁ ∧ pad₂ ∧ …]
   where [core] accepts exactly the *conforming* call population (flow
   inserts within 10.0.0.0/8 at priority ≤ 60000; flow/port-level
   statistics reads) and every pad clause is a disjunction containing
   one core-satisfied disjunct plus random singletons.  Pads therefore
   never change the decision — they only add the evaluation work whose
   cost Figure 5 measures — and the companion trace generator can
   produce a precise violation rate by stepping outside the core. *)

open Shield_openflow.Types

type complexity = Small | Medium | Large

let complexity_to_string = function
  | Small -> "small"
  | Medium -> "medium"
  | Large -> "large"

let token_count = function Small -> 1 | Medium -> 5 | Large -> 15

let conforming_subnet = ipv4_of_string "10.0.0.0"
let conforming_mask = ipv4_of_string "255.0.0.0"
let max_priority = 60000

(* Random singleton filters used as padding noise. *)
let random_singleton rng : Sdnshield.Filter.singleton =
  let open Sdnshield.Filter in
  match Prng.int rng 8 with
  | 0 ->
    Pred
      { field = F_ip_src;
        value = V_ip (ipv4_of_octets (Prng.int rng 223) (Prng.int rng 255) 0 0);
        mask = Some (prefix_mask (8 + Prng.int rng 17)) }
  | 1 -> Pred { field = F_tcp_dst; value = V_int (Prng.int rng 65536); mask = None }
  | 2 -> Max_priority (30000 + Prng.int rng 30000)
  | 3 -> Max_rule_count (100 + Prng.int rng 1000)
  | 4 -> Wildcard { field = F_ip_src; mask = prefix_mask (Prng.int rng 9) }
  | 5 -> Owner All_flows
  | 6 ->
    Stats_level
      (Prng.pick rng Shield_openflow.Stats.[ Flow_level; Port_level ])
  | _ ->
    Pred
      { field = F_ip_dst;
        value = V_ip (ipv4_of_octets 10 (Prng.int rng 255) 0 0);
        mask = Some (prefix_mask 16) }

(** The core filter that decides conformance for a token. *)
let core_filter (token : Sdnshield.Token.t) : Sdnshield.Filter.expr =
  let open Sdnshield.Filter in
  match token with
  | Sdnshield.Token.Insert_flow | Sdnshield.Token.Delete_flow ->
    conj
      (ip_subnet F_ip_dst conforming_subnet conforming_mask)
      (atom (Max_priority max_priority))
  | Sdnshield.Token.Read_statistics ->
    disj
      (atom (Stats_level Shield_openflow.Stats.Flow_level))
      (atom (Stats_level Shield_openflow.Stats.Port_level))
  | _ -> True

(* A pad clause: (core-satisfied disjunct OR random noise...). *)
let pad_clause rng token : Sdnshield.Filter.expr =
  let open Sdnshield.Filter in
  let anchor =
    match (token : Sdnshield.Token.t) with
    | Sdnshield.Token.Insert_flow | Sdnshield.Token.Delete_flow ->
      ip_subnet F_ip_dst conforming_subnet conforming_mask
    | Sdnshield.Token.Read_statistics ->
      disj
        (atom (Stats_level Shield_openflow.Stats.Flow_level))
        (atom (Stats_level Shield_openflow.Stats.Port_level))
    | _ ->
      (* A concrete always-satisfied atom, NOT [True]: the smart
         constructor would fold [True OR noise] away and the pad would
         add no filters at all. *)
      atom (Owner All_flows)
  in
  let noise = List.init (1 + Prng.int rng 2) (fun _ -> atom (random_singleton rng)) in
  List.fold_left disj anchor noise

(** One permission with [n_filters] singleton filters in total. *)
let permission rng token ~n_filters : Sdnshield.Perm.t =
  let core = core_filter token in
  let core_size = Sdnshield.Filter.fold_atoms (fun n _ -> n + 1) 0 core in
  let rec pad expr count =
    if count >= n_filters then expr
    else
      let clause = pad_clause rng token in
      let size = Sdnshield.Filter.fold_atoms (fun n _ -> n + 1) 0 clause in
      pad (Sdnshield.Filter.conj expr clause) (count + size)
  in
  { Sdnshield.Perm.token; filter = pad core core_size }

(** The token order guarantees the focus tokens come first, so a Small
    (1-token) manifest still covers the benchmarked call type. *)
let token_order ~(focus : [ `Insert | `Stats ]) : Sdnshield.Token.t list =
  let first =
    match focus with
    | `Insert -> [ Sdnshield.Token.Insert_flow; Sdnshield.Token.Read_statistics ]
    | `Stats -> [ Sdnshield.Token.Read_statistics; Sdnshield.Token.Insert_flow ]
  in
  first
  @ List.filter (fun t -> not (List.mem t first)) Sdnshield.Token.all

(** Generate a manifest of the given [complexity]: 1/5/15 tokens with
    10–20 filters each, deterministic in [seed]. *)
let generate ?(seed = 7) ~complexity ~focus () : Sdnshield.Perm.manifest =
  let rng = Prng.of_int seed in
  let tokens = List.filteri (fun i _ -> i < token_count complexity) (token_order ~focus) in
  Sdnshield.Perm.normalize
    (List.map
       (fun token -> permission rng token ~n_filters:(10 + Prng.int rng 11))
       tokens)

(* Over-privileged manifest/trace pairs --------------------------------------- *)

(** [over_privileged ?seed ~n ()] — a (manifest, trace) pair where the
    manifest strictly exceeds the least-privilege manifest
    [Infer.of_trace] synthesises from the trace: the insert grant is
    widened to unrestricted where the trace only needs a narrow
    envelope, and one granted token never appears in the trace at
    all.  Feed it to [Lint.lint_manifest ~trace] to exercise the
    over-privilege audit. *)
let over_privileged ?(seed = 17) ~n () :
    Sdnshield.Perm.manifest * Shield_controller.Api.call list =
  let trace =
    Api_trace.generate ~seed ~violation_rate:0. ~focus:`Insert ~n ()
    |> Array.to_list |> List.map fst
  in
  let least = Sdnshield.Infer.of_trace trace in
  let widened =
    List.map
      (fun (p : Sdnshield.Perm.t) ->
        if p.Sdnshield.Perm.token = Sdnshield.Token.Insert_flow then
          { p with Sdnshield.Perm.filter = Sdnshield.Filter.True }
        else p)
      least
  in
  ( Sdnshield.Perm.normalize
      (widened
      @ [ { Sdnshield.Perm.token = Sdnshield.Token.Read_payload;
            filter = Sdnshield.Filter.True } ]),
    trace )
