(** Hand-written lexer shared by the permission language (Appendix A)
    and the security-policy language (Appendix B).

    Conventions from the paper's listings: backslash-newline continues
    a statement, [#] starts a comment, dotted quads lex as IP
    addresses, double-quoted strings are app names.

    Part of the admission surface for untrusted sources
    (docs/VETTING.md): tokens carry their source line so parser errors
    point at the offending statement, and every token ticks the ambient
    {!Budget} scope when one is installed. *)

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

val pp_token : Format.formatter -> token -> unit

val tokenize_positioned : string -> (token * int) list
(** The tokens of the source, each paired with its 1-based source line
    (the EOF token carries the last line).
    @raise Lex_error on malformed input.
    @raise Budget.Exhausted past the ambient budget, if installed. *)

(** {1 Token-stream cursor} for the recursive-descent parsers. *)

type stream = { mutable toks : (token * int) list }

exception Parse_error of string

val of_string : string -> stream
val peek : stream -> token
val peek2 : stream -> token

val line : stream -> int
(** Source line of the next token; 0 once exhausted past EOF. *)

val advance : stream -> unit
val next : stream -> token

val fail_at : stream -> string -> 'a
(** @raise Parse_error with the current line and token appended. *)

val expect : stream -> token -> unit

val at_kw : stream -> string -> bool
(** Case-insensitive keyword test against the next token. *)

val eat_kw : stream -> string -> bool
val expect_kw : stream -> string -> unit
val expect_ident : stream -> string
val expect_int : stream -> int
