(* The serial model of the mediated path's stateful decisions, the
   oracle that engines and runtimes are compared against.  One
   reference flow table (flow_table_ref.ml) per switch holds every
   installed rule, stamped with its issuer's cookie; the stateful atoms
   (OWN_FLOWS, MAX_RULE_COUNT) scan those tables in full, and a call is
   allowed when [Filter_eval.eval] passes its token's filter.  Calls are
   replayed one at a time, in issue order. *)

open Shield_openflow
open Shield_controller
open Sdnshield

type t = (int * Flow_table_ref.t) list  (** One table per switch. *)

let create dpids = List.map (fun d -> (d, Flow_table_ref.create ())) dpids

let entries (t : t) dpid =
  match List.assoc_opt dpid t with
  | Some table -> Flow_table_ref.entries table
  | None -> []

(** The stateful atoms answered for the app whose rules carry
    [cookie]. *)
let env (t : t) ~cookie : Filter_eval.env =
  let mine = List.filter (fun (e : Flow_table_ref.entry) -> e.cookie = cookie) in
  { Filter_eval.owns_all_targeted =
      (fun attrs ->
        match attrs.Attrs.cookie with
        | Some c -> c = cookie
        | None -> (
          match (attrs.Attrs.dpid, attrs.Attrs.match_, attrs.Attrs.flow_command) with
          | Some dpid, Some m, Some command ->
            List.for_all
              (fun (e : Flow_table_ref.entry) ->
                e.cookie = cookie
                ||
                match (command : Flow_mod.command) with
                | Flow_mod.Add -> not (Match_fields.compatible e.match_ m)
                | Flow_mod.Modify | Flow_mod.Delete ->
                  not (Match_fields.subsumes ~outer:m ~inner:e.match_))
              (entries t dpid)
          | _ -> true));
    rule_count =
      (fun dpid ->
        match dpid with
        | Some d -> List.length (mine (entries t d))
        | None ->
          List.fold_left
            (fun n (_, table) -> n + List.length (mine (Flow_table_ref.entries table)))
            0 t) }

let allows t ~cookie (m : Perm.manifest) call =
  match Dispatch.token_of_call call with
  | None -> true
  | Some tok ->
    Perm.grants_token m tok
    && Filter_eval.eval (env t ~cookie) (Perm.filter_of m tok) (Attrs.of_call call)

(** Execute an allowed call as the kernel does: a flow-mod lands
    stamped with [cookie], whatever cookie it carries; a switch the
    model lacks takes nothing. *)
let exec (t : t) ~cookie (call : Api.call) =
  match call with
  | Api.Install_flow (dpid, fm) -> (
    match List.assoc_opt dpid t with
    | Some table -> ignore (Flow_table_ref.apply table { fm with cookie })
    | None -> ())
  | _ -> ()

(** One call: [true] when allowed, and then executed. *)
let call t ~cookie m c =
  let ok = allows t ~cookie m c in
  if ok then exec t ~cookie c;
  ok

(** A transaction: every call must pass, each seeing the flow-mods of
    the calls before it; then all of them execute, or none does.
    [Error i] names the first denied call. *)
let transaction (t : t) ~cookie m calls =
  let scratch =
    List.map
      (fun (d, (table : Flow_table_ref.t)) -> (d, { table with entries = table.entries }))
      t
  in
  let rec go i = function
    | [] -> Ok ()
    | c :: rest -> if call scratch ~cookie m c then go (i + 1) rest else Error i
  in
  let r = go 0 calls in
  if Result.is_ok r then List.iter (exec t ~cookie) calls;
  r

(** Advance every switch's clock and expire its timed-out rules. *)
let tick (t : t) =
  List.iter
    (fun (_, table) ->
      Flow_table_ref.tick table;
      ignore (Flow_table_ref.expire table))
    t
