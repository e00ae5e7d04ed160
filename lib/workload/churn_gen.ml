(* Seeded app-market lifecycle scripts (docs/CHURN.md).

   The market lab needs reproducible churn: long install / upgrade /
   revoke sequences over a pool of apps, with manifests drawn from the
   paper-shaped generator ([Perm_gen]) and a controllable fraction of
   requests that must be refused (wrong lifecycle state, or a manifest
   the vetting pipeline rejects).  Each entry carries the generator's
   own model of whether it should commit, so a harness can check the
   engine's commit/rollback ledger against ground truth: with no fault
   injection armed, [valid] entries commit and invalid ones roll back
   — exactly, no slack. *)

open Shield_controller

type entry = {
  request : Market.request;
  valid : bool;
      (** The request is well-formed against the script's model state:
          an install of an absent app with a vettable manifest, or an
          upgrade/revoke of a live one.  Invalid entries target the
          wrong lifecycle state or carry a manifest vetting rejects. *)
}

let app_name i = Printf.sprintf "app-%03d" i

let manifest_src rng ~complexity =
  let seed = Prng.int rng 1_000_000 in
  let focus = if Prng.bool rng then `Insert else `Stats in
  Sdnshield.Perm.to_string (Perm_gen.generate ~seed ~complexity ~focus ())

(** A script's generator: the seeded draw and its model of which apps
    are live.  Entries come one at a time ({!next}), so a harness can
    {!resync} the model when the deployment refuses a valid entry. *)
type t = {
  rng : Prng.t;
  apps : int;
  live : (string, unit) Hashtbl.t;
  invalid_per_mille : int;
  complexity : Perm_gen.complexity;
}

(** Reset the model's live set to [live], the apps the deployment
    actually holds. *)
let resync t live =
  Hashtbl.reset t.live;
  List.iter (fun name -> Hashtbl.replace t.live name ()) live

(** [create ()] — a generator over a pool of [apps] app names,
    starting from a deployment whose live apps are [live] (default
    none).  [invalid_fraction] (default 0) of the requests are built to
    roll back; [complexity] sizes the generated manifests (paper's
    Small/Medium/Large). *)
let create ?(seed = 11) ?(apps = 100) ?(live = []) ?(invalid_fraction = 0.)
    ?(complexity = Perm_gen.Small) () =
  let apps = max 1 apps in
  let t =
    { rng = Prng.of_int seed; apps; live = Hashtbl.create apps;
      invalid_per_mille = int_of_float ((invalid_fraction *. 1000.) +. 0.5);
      complexity }
  in
  resync t live;
  t

(** The next entry of the script, advancing the model. *)
let next t : entry =
  let rng = t.rng and apps = t.apps and complexity = t.complexity in
  let pick_app pred =
    (* Uniform-ish pick of an app name satisfying [pred]; linear probe
       from a random start so the scan stays bounded. *)
    let start = Prng.int rng apps in
    let rec go i =
      if i = apps then None
      else
        let name = app_name ((start + i) mod apps) in
        if pred name then Some name else go (i + 1)
    in
    go 0
  in
  let pick_live () = pick_app (Hashtbl.mem t.live) in
  let pick_absent () = pick_app (fun n -> not (Hashtbl.mem t.live n)) in
  let valid_entry () =
    match
      (pick_absent (), pick_live (), Prng.int rng 4)
    with
    (* Bias toward installs while the pool fills, upgrades at steady
       state; revokes keep the pool turning over. *)
    | Some absent, _, (0 | 1) ->
      Hashtbl.replace t.live absent ();
      { request = Market.install absent (manifest_src rng ~complexity);
        valid = true }
    | _, Some name, (0 | 1 | 2) ->
      { request = Market.upgrade name (manifest_src rng ~complexity);
        valid = true }
    | _, Some name, _ ->
      Hashtbl.remove t.live name;
      { request = Market.revoke name; valid = true }
    | Some absent, None, _ ->
      Hashtbl.replace t.live absent ();
      { request = Market.install absent (manifest_src rng ~complexity);
        valid = true }
    | None, None, _ -> assert false (* pool is nonempty *)
  in
  let invalid_entry () =
    (* Invalid requests never change the model state. *)
    match (Prng.int rng 3, pick_live (), pick_absent ()) with
    | 0, Some name, _ ->
      { request = Market.install name (manifest_src rng ~complexity);
        valid = false (* install of a live app *) }
    | 1, _, Some name ->
      { request = Market.upgrade name (manifest_src rng ~complexity);
        valid = false (* upgrade of an absent app *) }
    | 2, _, Some name ->
      { request = Market.revoke name; valid = false }
    | _, _, _ ->
      (* Fallback when the preferred lifecycle mismatch is unavailable
         (empty or full pool): a manifest vetting refuses at parse. *)
      { request =
          Market.install
            (app_name (Prng.int rng apps))
            "PERM frobnicate_the_dataplane";
        valid = false }
  in
  if Prng.int rng 1000 < t.invalid_per_mille then invalid_entry ()
  else valid_entry ()

(** [script ~length ()] — the first [length] entries of {!create}'s
    generator, from an empty deployment: a deterministic lifecycle
    script whose model assumes every valid entry commits. *)
let script ?seed ?apps ?invalid_fraction ?complexity ~length () : entry list =
  let t = create ?seed ?apps ?invalid_fraction ?complexity () in
  List.init length (fun _ -> next t)
