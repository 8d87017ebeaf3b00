(** Hand-written lexer for the mini-Fortran loop language.

    Whitespace and newlines separate tokens; [#] starts a comment that
    runs to the end of the line. *)

exception Error of string * Loc.t

type tokens = {
  mutable toks : Token.t array;
  mutable lines : int array;  (** 1-based line of each token *)
  mutable cols : int array;  (** 1-based column of each token's first byte *)
  mutable count : int;
      (** tokens in use, the final [EOF] included; the arrays may be
          longer *)
}
(** Growable token arrays, reusable from one {!scan} to the next. *)

val create : unit -> tokens
(** Empty arrays with room for a few hundred tokens. *)

val scan : ?into:tokens -> string -> tokens
(** Lex the whole input in one pass over integer positions: no
    per-character allocation and no {!Loc.t} per token (the parser
    builds locations only for AST nodes). The last token is [EOF], at
    the position just past the input. With [into], its arrays are
    overwritten and returned (grown if the input needs more room);
    otherwise fresh ones are allocated.
    @raise Error on an unrecognized character or malformed literal —
    the first one in the input. *)

val loc : tokens -> int -> Loc.t
(** The location of token [i]. *)

val tokenize : string -> (Token.t * Loc.t) list
(** {!scan} as a list of located tokens, ending with [EOF].
    @raise Error as {!scan}. *)
