(** Shared check-path plumbing: the call→token mapping used on the
    permission hot path ({!Engine}, {!Automaton}) and by the
    {!Filter_eval} oracle's callers.

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
