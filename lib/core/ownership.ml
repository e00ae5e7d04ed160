(* Flow ownership and rule-budget bookkeeping.

   "Ownership filter inspects and keeps track of the issuers of all the
   existing flows" (§IV-B).  The permission engine records every
   approved flow-mod here, independent of any controller, so that
   OWN_FLOWS and MAX_RULE_COUNT filters can be answered without
   querying switch state.  The whole store can be snapshotted and
   restored, which is how transactional checking rolls back. *)

open Shield_openflow
open Shield_openflow.Types

type rule = { match_ : Match_fields.t; priority : int; cookie : int }

type t = {
  mutable rules : (dpid, rule list) Hashtbl.t;
      (** Only read/written under [mutex].  The field is [mutable] only
          so {!restore} can swap in a snapshot table, also under the
          lock. *)
  mutex : Mutex.t;
}

let create () =
  { rules = Hashtbl.create 16; mutex = Mutex.create () }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let rules_at_unlocked t dpid = Option.value ~default:[] (Hashtbl.find_opt t.rules dpid)

let all_rules t =
  with_lock t (fun () ->
      Hashtbl.fold (fun d rs acc -> List.map (fun r -> (d, r)) rs @ acc) t.rules [])

(** Record the effect of an approved flow-mod on the ownership store. *)
let record t ~dpid (fm : Flow_mod.t) ~cookie =
  let cookie = if fm.Flow_mod.cookie <> 0 then fm.Flow_mod.cookie else cookie in
  with_lock t (fun () ->
      let existing = rules_at_unlocked t dpid in
      let updated =
        match fm.Flow_mod.command with
        | Flow_mod.Add ->
          { match_ = fm.Flow_mod.match_; priority = fm.Flow_mod.priority;
            cookie }
          :: List.filter
               (fun r ->
                 not
                   (r.priority = fm.Flow_mod.priority
                   && Match_fields.equal r.match_ fm.Flow_mod.match_))
               existing
        | Flow_mod.Modify ->
          List.map
            (fun r ->
              if Match_fields.subsumes ~outer:fm.Flow_mod.match_ ~inner:r.match_
              then { r with cookie }
              else r)
            existing
        | Flow_mod.Delete ->
          List.filter
            (fun r ->
              not
                (Match_fields.subsumes ~outer:fm.Flow_mod.match_
                   ~inner:r.match_))
            existing
      in
      Hashtbl.replace t.rules dpid updated)

(** Drop a rule that timed out on the switch (flow-removed event). *)
let forget t ~dpid ~match_ ~cookie =
  with_lock t (fun () ->
      Hashtbl.replace t.rules dpid
        (List.filter
           (fun r ->
             not (r.cookie = cookie && Match_fields.equal r.match_ match_))
           (rules_at_unlocked t dpid)))

(** Are all existing rules this flow-mod touches owned by [cookie]?

    - Add: the new rule must not overlap any other app's rule (so an
      app confined to its own flows cannot shadow or bypass others'
      rules — the dynamic-flow-tunnel defence of §VII Scenario 2);
    - Modify/Delete: every targeted (subsumed) rule must be owned. *)
let owns_all_targeted t ~cookie ~dpid ~command ~match_ =
  with_lock t (fun () ->
      let rules = rules_at_unlocked t dpid in
      match (command : Flow_mod.command) with
      | Flow_mod.Add ->
        List.for_all
          (fun r ->
            r.cookie = cookie || not (Match_fields.compatible r.match_ match_))
          rules
      | Flow_mod.Modify | Flow_mod.Delete ->
        List.for_all
          (fun r ->
            r.cookie = cookie
            || not (Match_fields.subsumes ~outer:match_ ~inner:r.match_))
          rules)

(** Rules currently attributed to [cookie] at [dpid] ([None] = domain
    total), for the MAX_RULE_COUNT budget. *)
let count t ~cookie ~dpid =
  with_lock t (fun () ->
      match dpid with
      | Some d ->
        List.length (List.filter (fun r -> r.cookie = cookie) (rules_at_unlocked t d))
      | None ->
        Hashtbl.fold
          (fun _ rs acc ->
            acc + List.length (List.filter (fun r -> r.cookie = cookie) rs))
          t.rules 0)

(* Transactional snapshot/rollback. *)
type snapshot = (dpid, rule list) Hashtbl.t

let snapshot t : snapshot = with_lock t (fun () -> Hashtbl.copy t.rules)

let restore t (s : snapshot) =
  with_lock t (fun () -> t.rules <- s)
