(** Permissions and permission manifests.

    A permission is a {!Token.t} optionally refined by a {!Filter.expr}
    ([PERM token LIMITING filter]).  A manifest is the set of
    permissions an app requests or holds. *)

type t = { token : Token.t; filter : Filter.expr }

type manifest = t list
(** Invariant after {!normalize}: at most one entry per token, tokens
    strictly increasing. *)

val make : ?filter:Filter.expr -> Token.t -> t
(** [make token] is the unrestricted permission; [?filter] defaults to
    {!Filter.True}. *)

val normalize : t list -> manifest
(** Merge duplicate tokens by filter disjunction (two grants of one
    token allow the union of behaviours) and drop tokens limited to
    [False]. *)

val find : manifest -> Token.t -> t option

val filter_of : manifest -> Token.t -> Filter.expr
(** The filter granted for [token]; [False] when the token is absent. *)

val grants_token : manifest -> Token.t -> bool

val tokens : manifest -> Token.t list

val macros : manifest -> string list
(** All developer stubs still unexpanded anywhere in the manifest. *)

val expand_macros : (string -> Filter.expr option) -> manifest -> manifest
(** Substitute stub macros; unresolved ones remain. *)

val equal : manifest -> manifest -> bool
(** Structural equality (same tokens, syntactically equal filters).
    For semantic equality use {!Inclusion.manifest_equal}. *)

val pp_perm : Format.formatter -> t -> unit
(** Renders in the permission-language concrete syntax. *)

val pp : Format.formatter -> manifest -> unit
val to_string : manifest -> string
