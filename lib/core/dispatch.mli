(** Shared check-path plumbing: the call→token mapping and the
    ownership-backed evaluation environment used on the permission hot
    path ({!Engine}, {!Automaton}) and by the {!Filter_eval} oracle's
    callers.

    Factored out of {!Engine} so the automaton can dispatch on tokens
    without depending on the engine that delegates to it.  See
    docs/ARCHITECTURE.md for the layer map. *)

open Shield_controller

val token_of_call : Api.call -> Token.t option
(** Which permission token a call requires.  [None] = no permission
    needed (inter-app publications and their receipt are governed by
    subscription, not tokens). *)

val token_index_of_call : Api.call -> int
(** [Token.index]-encoded {!token_of_call} for hot paths: the index of
    the required token, or [-1] when no permission is needed.
    Allocation-free (the option above is a statically-allocated [Some],
    but an index slots straight into token-indexed dispatch arrays). *)

val is_stateful_call : Api.call -> bool
(** Does checking this call read or write the ownership store when
    approved?  (Flow-mods: the engine records approved ones and the
    OWN_FLOWS / MAX_RULE_COUNT filters read existing state.) *)

val env_of_ownership : ownership:Ownership.t -> cookie:int -> Filter_eval.env
(** The evaluation environment answering the stateful filter dimensions
    (OWN_FLOWS, MAX_RULE_COUNT) from a shared {!Ownership} store on
    behalf of the app identified by [cookie]. *)
