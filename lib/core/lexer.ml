(* Hand-written lexer shared by the permission language (Appendix A)
   and the security-policy language (Appendix B).

   Conventions from the paper's listings: backslash-newline continues a
   statement (treated as whitespace here since statements are delimited
   by keywords, not newlines), [#] starts a comment, dotted quads lex
   as IP addresses, and double-quoted strings are app names.

   Sources come from an untrusted app market, so the lexer is part of
   the admission surface (docs/VETTING.md): every token ticks the
   ambient {!Budget} so garbage floods are cut off, and each token
   carries its source line so parser errors point at the offending
   statement instead of just naming a token. *)

type token =
  | IDENT of string
  | INT of int
  | IP of int32
  | STRING of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | COMMA
  | LE
  | GE
  | LT
  | GT
  | EQ
  | EOF

exception Lex_error of string

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "%s" s
  | INT i -> Fmt.pf ppf "%d" i
  | IP ip -> Fmt.string ppf (Shield_openflow.Types.ipv4_to_string ip)
  | STRING s -> Fmt.pf ppf "%S" s
  | LBRACE -> Fmt.string ppf "{"
  | RBRACE -> Fmt.string ppf "}"
  | LPAREN -> Fmt.string ppf "("
  | RPAREN -> Fmt.string ppf ")"
  | COMMA -> Fmt.string ppf ","
  | LE -> Fmt.string ppf "<="
  | GE -> Fmt.string ppf ">="
  | LT -> Fmt.string ppf "<"
  | GT -> Fmt.string ppf ">"
  | EQ -> Fmt.string ppf "="
  | EOF -> Fmt.string ppf "<eof>"

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let is_digit c = c >= '0' && c <= '9'

(** Tokenize [src], pairing each token with its 1-based source line.
    Numbers made only of digits and dots with exactly three dots become
    [IP]; bare digit runs become [INT]. *)
let tokenize_positioned src : (token * int) list =
  let n = String.length src in
  let line = ref 1 in
  let fail msg = raise (Lex_error (Printf.sprintf "line %d: %s" !line msg)) in
  let emit tok acc =
    Budget.step ();
    (tok, !line) :: acc
  in
  let rec go i acc =
    if i >= n then List.rev (emit EOF acc)
    else
      match src.[i] with
      | '\n' ->
        incr line;
        go (i + 1) acc
      | ' ' | '\t' | '\r' | '\\' -> go (i + 1) acc
      | '#' ->
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        go (skip i) acc
      | '{' -> go (i + 1) (emit LBRACE acc)
      | '}' -> go (i + 1) (emit RBRACE acc)
      | '(' -> go (i + 1) (emit LPAREN acc)
      | ')' -> go (i + 1) (emit RPAREN acc)
      | ',' -> go (i + 1) (emit COMMA acc)
      | '=' -> go (i + 1) (emit EQ acc)
      | '<' ->
        if i + 1 < n && src.[i + 1] = '=' then go (i + 2) (emit LE acc)
        else go (i + 1) (emit LT acc)
      | '>' ->
        if i + 1 < n && src.[i + 1] = '=' then go (i + 2) (emit GE acc)
        else go (i + 1) (emit GT acc)
      | '"' ->
        let rec scan j =
          if j >= n then fail "unterminated string"
          else if src.[j] = '"' then j
          else scan (j + 1)
        in
        let close = scan (i + 1) in
        go (close + 1) (emit (STRING (String.sub src (i + 1) (close - i - 1))) acc)
      | c when is_digit c ->
        let rec scan j dots =
          if j < n && (is_digit src.[j] || src.[j] = '.') then
            scan (j + 1) (if src.[j] = '.' then dots + 1 else dots)
          else (j, dots)
        in
        let stop, dots = scan i 0 in
        let text = String.sub src i (stop - i) in
        if dots = 0 then
          match int_of_string_opt text with
          | Some v -> go stop (emit (INT v) acc)
          | None -> fail ("integer literal out of range " ^ text)
        else if dots = 3 then
          let ip =
            try Shield_openflow.Types.ipv4_of_string text
            with Invalid_argument _ -> fail ("bad IP literal " ^ text)
          in
          go stop (emit (IP ip) acc)
        else fail ("bad numeric literal " ^ text)
      | c when is_ident_char c ->
        let rec scan j = if j < n && is_ident_char src.[j] then scan (j + 1) else j in
        let stop = scan i in
        go stop (emit (IDENT (String.sub src i (stop - i))) acc)
      | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  go 0 []

(* Token-stream cursor used by the recursive-descent parsers. *)
type stream = { mutable toks : (token * int) list }

exception Parse_error of string

let of_string src = { toks = tokenize_positioned src }

let peek s = match s.toks with [] -> EOF | (t, _) :: _ -> t

let peek2 s = match s.toks with _ :: (t, _) :: _ -> t | _ -> EOF

(** Source line of the next token (the EOF token carries the last
    line); 0 once the stream is exhausted past EOF. *)
let line s = match s.toks with [] -> 0 | (_, l) :: _ -> l

let advance s = match s.toks with [] -> () | _ :: rest -> s.toks <- rest

let next s =
  let t = peek s in
  advance s;
  t

let fail_at s msg =
  raise
    (Parse_error
       (Fmt.str "line %d: %s (at %a)" (line s) msg pp_token (peek s)))

let expect s tok =
  if peek s = tok then advance s
  else fail_at s (Fmt.str "expected %a" pp_token tok)

(** Case-insensitive keyword test against the next token. *)
let at_kw s kw =
  match peek s with
  | IDENT id -> String.uppercase_ascii id = String.uppercase_ascii kw
  | _ -> false

let eat_kw s kw =
  if at_kw s kw then begin
    advance s;
    true
  end
  else false

let expect_kw s kw =
  if not (eat_kw s kw) then fail_at s (Printf.sprintf "expected %s" kw)

let expect_ident s =
  match peek s with
  | IDENT id ->
    advance s;
    id
  | _ -> fail_at s "expected identifier"

let expect_int s =
  match peek s with
  | INT i ->
    advance s;
    i
  | _ -> fail_at s "expected integer"
