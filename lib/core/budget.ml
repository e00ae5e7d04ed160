(* Resource budgets for admitting untrusted manifests and policies.

   See budget.mli / docs/VETTING.md for the model.  Design constraints:

   - The hooks sit on hot paths (one per token, per expression node,
     per distributed clause), so the uninstalled case must be a single
     domain-local read, and the installed case a couple of integer
     operations.  The deadline (a syscall) is polled every 1024 steps.
   - Scopes are ambient rather than threaded through signatures so the
     admission pipeline can reuse the production code paths unchanged.
     Domain-local storage keeps concurrent domains independent;
     sys-threads within one domain share the scope, so admissions are
     one-at-a-time per domain (documented in the mli). *)

type limits = {
  max_steps : int;
  max_clauses : int;
  max_nodes : int;
  max_depth : int;
  deadline : float option;
}

let default_limits =
  { max_steps = 2_000_000;
    max_clauses = 262_144;
    max_nodes = 500_000;
    max_depth = 2_048;
    deadline = Some 5.0 }

type spent = {
  steps : int;
  clauses : int;
  nodes : int;
  depth_hwm : int;
  elapsed : float;
}

exception Exhausted of { stage : string; reason : string; spent : spent }
exception Too_large

type t = {
  limits : limits;
  started : float;
  mutable stage : string;
  mutable steps : int;
  mutable clauses : int;
  mutable nodes : int;
  mutable depth_hwm : int;
  mutable notes : string list;  (* newest first *)
}

let create ?(limits = default_limits) () =
  { limits; started = Unix.gettimeofday (); stage = "start"; steps = 0;
    clauses = 0; nodes = 0; depth_hwm = 0; notes = [] }

let limits t = t.limits

let spent t =
  { steps = t.steps; clauses = t.clauses; nodes = t.nodes;
    depth_hwm = t.depth_hwm; elapsed = Unix.gettimeofday () -. t.started }

let notes t = List.rev t.notes

let scope_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get scope_key)

let with_scope t f =
  let cell = Domain.DLS.get scope_key in
  let previous = !cell in
  cell := Some t;
  Fun.protect ~finally:(fun () -> cell := previous) f

let exhaust t reason = raise (Exhausted { stage = t.stage; reason; spent = spent t })

let set_stage name = match current () with None -> () | Some t -> t.stage <- name
let stage () = match current () with None -> "?" | Some t -> t.stage

let step ?(cost = 1) () =
  match current () with
  | None -> ()
  | Some t ->
    t.steps <- t.steps + cost;
    if t.steps > t.limits.max_steps then
      exhaust t (Printf.sprintf "step budget exceeded (%d)" t.limits.max_steps);
    if t.steps land 1023 < cost then begin
      match t.limits.deadline with
      | Some d when Unix.gettimeofday () -. t.started > d ->
        exhaust t (Printf.sprintf "deadline exceeded (%.3fs)" d)
      | _ -> ()
    end

let alloc_clauses n =
  match current () with
  | None -> ()
  | Some t ->
    t.clauses <- t.clauses + n;
    if t.clauses > t.limits.max_clauses then
      exhaust t
        (Printf.sprintf "clause budget exceeded (%d)" t.limits.max_clauses)

let alloc_nodes n =
  match current () with
  | None -> ()
  | Some t ->
    t.nodes <- t.nodes + n;
    if t.nodes > t.limits.max_nodes then
      exhaust t (Printf.sprintf "node budget exceeded (%d)" t.limits.max_nodes)

let depth d =
  match current () with
  | None -> ()
  | Some t ->
    if d > t.depth_hwm then t.depth_hwm <- d;
    if d > t.limits.max_depth then
      exhaust t (Printf.sprintf "depth budget exceeded (%d)" t.limits.max_depth)

let note reason =
  match current () with
  | None -> ()
  | Some t -> if not (List.mem reason t.notes) then t.notes <- reason :: t.notes

type failure = { stage : string; reason : string; spent : spent }

(* The one table of what an escaping exception means to an admission
   analysis: every class fails closed, with its own reason. *)
let failure exn =
  let stage, spent =
    match current () with
    | Some t -> (t.stage, spent t)
    | None ->
      ("?", { steps = 0; clauses = 0; nodes = 0; depth_hwm = 0; elapsed = 0. })
  in
  let because reason = { stage; reason; spent } in
  match exn with
  | Exhausted { stage; reason; spent } ->
    { stage; reason = "budget exhausted: " ^ reason; spent }
  | Too_large -> because "normal form too large"
  | Stack_overflow -> because "stack overflow (unbudgeted recursion)"
  | Out_of_memory -> because "out of memory (unbudgeted allocation)"
  | Shield_controller.Faults.Injected site ->
    because ("injected fault at " ^ site)
  | Invalid_argument m | Failure m -> because m
  | exn -> because ("internal error: " ^ Printexc.to_string exn)

let absorb f = match f () with v -> Ok v | exception exn -> Error (failure exn)

let pp_spent ppf (s : spent) =
  Fmt.pf ppf "steps=%d clauses=%d nodes=%d depth=%d elapsed=%.3fs" s.steps
    s.clauses s.nodes s.depth_hwm s.elapsed
