(* Permissions and permission manifests.

   A permission is a token optionally refined by a filter expression
   ([PERM token LIMITING filter]).  A manifest is the set of
   permissions an app requests/holds; it is kept normalised with at
   most one entry per token (duplicate grants merge by disjunction —
   two grants of the same token allow the union of behaviours). *)

type t = { token : Token.t; filter : Filter.expr }

type manifest = t list
(** Invariant (after [normalize]): tokens strictly increasing. *)

let make ?(filter = Filter.True) token = { token; filter }

let normalize (perms : t list) : manifest =
  let merged =
    List.fold_left
      (fun acc p ->
        Token.Map.update p.token
          (function
            | None -> Some p.filter
            | Some f -> Some (Filter.disj f p.filter))
          acc)
      Token.Map.empty perms
  in
  Token.Map.bindings merged
  |> List.filter_map (fun (token, filter) ->
         (* A token limited to FALSE grants nothing: drop it. *)
         if filter = Filter.False then None else Some { token; filter })

let find (m : manifest) token =
  List.find_opt (fun p -> Token.equal p.token token) m

let filter_of (m : manifest) token =
  match find m token with Some p -> p.filter | None -> Filter.False

let grants_token (m : manifest) token = Option.is_some (find m token)

let tokens (m : manifest) = List.map (fun p -> p.token) m

(** All macro stubs still unexpanded anywhere in the manifest. *)
let macros (m : manifest) =
  List.concat_map (fun p -> Filter.macros p.filter) m |> List.sort_uniq compare

let expand_macros lookup (m : manifest) =
  List.map (fun p -> { p with filter = Filter.expand_macros lookup p.filter }) m

let equal (a : manifest) (b : manifest) =
  List.length a = List.length b
  && List.for_all2
       (fun pa pb ->
         Token.equal pa.token pb.token && Filter.equal_expr pa.filter pb.filter)
       a b

(* Pretty-printing in the permission-language concrete syntax ------------- *)

let pp_perm ppf { token; filter } =
  match filter with
  | Filter.True -> Fmt.pf ppf "PERM %a" Token.pp token
  | f -> Fmt.pf ppf "PERM %a LIMITING %a" Token.pp token Filter.pp f

let pp ppf (m : manifest) = Fmt.(vbox (list pp_perm)) ppf m
let to_string = Fmt.to_to_string pp
