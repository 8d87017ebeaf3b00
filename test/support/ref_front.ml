(* The front end as it was before the array lexer: a lexer that steps
   one character at a time through [Some c] options and a parser over
   the resulting [(token, location)] list. Kept only as the reference
   the current front end is tested against (test_lang.ml, group
   [front-end]); it raises the same exceptions, [Dda_lang.Lexer.Error]
   and [Dda_lang.Parser.Error]. *)

open Dda_lang

module Lexer = struct
  exception Error = Dda_lang.Lexer.Error

  let keyword = function
    | "for" -> Some Token.KW_FOR
    | "parallel" -> Some Token.KW_PARALLEL
    | "to" -> Some Token.KW_TO
    | "step" -> Some Token.KW_STEP
    | "do" -> Some Token.KW_DO
    (* "end for" / "end if" would be ambiguous with "end" followed by a
       new loop, so the suffixed closers are single keywords. *)
    | "end" | "endfor" | "endif" -> Some Token.KW_END
    | "if" -> Some Token.KW_IF
    | "then" -> Some Token.KW_THEN
    | "else" -> Some Token.KW_ELSE
    | "read" -> Some Token.KW_READ
    | _ -> None

  let is_digit c = c >= '0' && c <= '9'
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_alnum c = is_alpha c || is_digit c

  type state = {
    src : string;
    mutable pos : int;
    mutable line : int;
    mutable col : int;
  }

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let advance st =
    (match peek st with
     | Some '\n' ->
       st.line <- st.line + 1;
       st.col <- 1
     | Some _ -> st.col <- st.col + 1
     | None -> ());
    st.pos <- st.pos + 1

  let here st = Loc.make ~line:st.line ~col:st.col

  let lex_number st =
    let start = st.pos in
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    match int_of_string_opt text with
    | Some n -> Token.INT n
    | None -> raise (Error (Printf.sprintf "integer literal out of range: %s" text, here st))

  let lex_ident st =
    let start = st.pos in
    while (match peek st with Some c -> is_alnum c | None -> false) do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    match keyword text with Some kw -> kw | None -> Token.IDENT text

  let tokenize src =
    let st = { src; pos = 0; line = 1; col = 1 } in
    let toks = ref [] in
    let emit tok loc = toks := (tok, loc) :: !toks in
    let rec skip_comment () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        skip_comment ()
    in
    (* Lex an operator that may be followed by '=' (e.g. "<" / "<=").
       [single_tok = None] means the bare character is not a token. *)
    let two_char_op loc c1 double_tok single_tok =
      advance st;
      match peek st with
      | Some '=' ->
        advance st;
        emit double_tok loc
      | _ -> (
          match single_tok with
          | Some t -> emit t loc
          | None -> raise (Error (Printf.sprintf "expected '=' after '%c'" c1, loc)))
    in
    let continue_lexing = ref true in
    while !continue_lexing do
      let loc = here st in
      match peek st with
      | None ->
        emit Token.EOF loc;
        continue_lexing := false
      | Some c -> (
          match c with
          | ' ' | '\t' | '\r' | '\n' -> advance st
          | '#' -> skip_comment ()
          | '0' .. '9' -> emit (lex_number st) loc
          | c when is_alpha c -> emit (lex_ident st) loc
          | '+' -> advance st; emit Token.PLUS loc
          | '-' -> advance st; emit Token.MINUS loc
          | '*' -> advance st; emit Token.STAR loc
          | '/' -> advance st; emit Token.SLASH loc
          | '(' -> advance st; emit Token.LPAREN loc
          | ')' -> advance st; emit Token.RPAREN loc
          | '[' -> advance st; emit Token.LBRACKET loc
          | ']' -> advance st; emit Token.RBRACKET loc
          | ',' -> advance st; emit Token.COMMA loc
          | '=' -> two_char_op loc '=' Token.EQ (Some Token.ASSIGN)
          | '<' -> two_char_op loc '<' Token.LE (Some Token.LT)
          | '>' -> two_char_op loc '>' Token.GE (Some Token.GT)
          | '!' -> two_char_op loc '!' Token.NE None
          | c -> raise (Error (Printf.sprintf "unexpected character '%c'" c, loc)))
    done;
    List.rev !toks
end

module Parser = struct
  exception Error = Dda_lang.Parser.Error

  type state = {
    mutable toks : (Token.t * Loc.t) list;
  }

  let peek st =
    match st.toks with
    | [] -> (Token.EOF, Loc.dummy)
    | t :: _ -> t

  let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

  let fail st msg =
    let tok, loc = peek st in
    raise (Error (Printf.sprintf "%s (found '%s')" msg (Token.to_string tok), loc))

  let expect st tok what =
    let t, _ = peek st in
    if Token.equal t tok then advance st else fail st (Printf.sprintf "expected %s" what)

  let expect_ident st what =
    match peek st with
    | Token.IDENT name, _ ->
      advance st;
      name
    | _ -> fail st (Printf.sprintf "expected %s" what)

  (* expr ::= term (("+" | "-") term)* *)
  let rec parse_expr_p st =
    let rec loop acc =
      match peek st with
      | Token.PLUS, loc ->
        advance st;
        loop (Ast.bin ~loc Ast.Add acc (parse_term st))
      | Token.MINUS, loc ->
        advance st;
        loop (Ast.bin ~loc Ast.Sub acc (parse_term st))
      | _ -> acc
    in
    loop (parse_term st)

  and parse_term st =
    let rec loop acc =
      match peek st with
      | Token.STAR, loc ->
        advance st;
        loop (Ast.bin ~loc Ast.Mul acc (parse_factor st))
      | Token.SLASH, loc ->
        advance st;
        loop (Ast.bin ~loc Ast.Div acc (parse_factor st))
      | _ -> acc
    in
    loop (parse_factor st)

  and parse_factor st =
    match peek st with
    | Token.MINUS, loc ->
      advance st;
      Ast.neg ~loc (parse_factor st)
    | Token.INT n, loc ->
      advance st;
      Ast.int_ ~loc n
    | Token.LPAREN, _ ->
      advance st;
      let e = parse_expr_p st in
      expect st Token.RPAREN "')'";
      e
    | Token.IDENT name, loc ->
      advance st;
      let subs = parse_subscripts st in
      if subs = [] then Ast.var ~loc name else Ast.aref ~loc name subs
    | _ -> fail st "expected an expression"

  and parse_subscripts st =
    match peek st with
    | Token.LBRACKET, _ ->
      advance st;
      let e = parse_expr_p st in
      expect st Token.RBRACKET "']'";
      e :: parse_subscripts st
    | _ -> []

  let parse_relop st =
    match peek st with
    | Token.EQ, _ -> advance st; Ast.Req
    | Token.NE, _ -> advance st; Ast.Rne
    | Token.LT, _ -> advance st; Ast.Rlt
    | Token.LE, _ -> advance st; Ast.Rle
    | Token.GT, _ -> advance st; Ast.Rgt
    | Token.GE, _ -> advance st; Ast.Rge
    | _ -> fail st "expected a relational operator"

  let parse_cond st =
    let lhs = parse_expr_p st in
    let rel = parse_relop st in
    let rhs = parse_expr_p st in
    { Ast.rel; lhs; rhs }

  let rec parse_stmt st =
    match peek st with
    | Token.KW_PARALLEL, loc ->
      advance st;
      expect st Token.KW_FOR "'for' after 'parallel'";
      parse_for st ~loc ~parallel:true
    | Token.KW_FOR, loc ->
      advance st;
      parse_for st ~loc ~parallel:false
    | Token.KW_IF, loc ->
      advance st;
      let cond = parse_cond st in
      expect st Token.KW_THEN "'then'";
      let then_ = parse_stmts st in
      let else_ =
        match peek st with
        | Token.KW_ELSE, _ ->
          advance st;
          parse_stmts st
        | _ -> []
      in
      expect st Token.KW_END "'end'";
      Ast.if_ ~loc cond then_ else_
    | Token.KW_READ, loc ->
      advance st;
      expect st Token.LPAREN "'('";
      let name = expect_ident st "a variable name" in
      expect st Token.RPAREN "')'";
      Ast.read ~loc name
    | Token.IDENT name, loc ->
      advance st;
      let subs = parse_subscripts st in
      expect st Token.ASSIGN "'='";
      let rhs = parse_expr_p st in
      let lv = if subs = [] then Ast.Lvar name else Ast.Larr (name, subs) in
      Ast.assign ~loc lv rhs
    | _ -> fail st "expected a statement"

  and parse_for st ~loc ~parallel =
    let var = expect_ident st "a loop variable" in
    expect st Token.ASSIGN "'='";
    let lo = parse_expr_p st in
    expect st Token.KW_TO "'to'";
    let hi = parse_expr_p st in
    let step =
      match peek st with
      | Token.KW_STEP, _ ->
        advance st;
        Some (parse_expr_p st)
      | _ -> None
    in
    expect st Token.KW_DO "'do'";
    let body = parse_stmts st in
    expect st Token.KW_END "'end'";
    Ast.for_ ~loc ?step ~parallel var lo hi body

  and parse_stmts st =
    match peek st with
    | (Token.KW_END | Token.KW_ELSE | Token.EOF), _ -> []
    | _ ->
      let s = parse_stmt st in
      s :: parse_stmts st

  let parse_program src =
    let st = { toks = Lexer.tokenize src } in
    let prog = parse_stmts st in
    (match peek st with
     | Token.EOF, _ -> ()
     | _ -> fail st "expected end of input");
    prog

  let parse_expr src =
    let st = { toks = Lexer.tokenize src } in
    let e = parse_expr_p st in
    (match peek st with
     | Token.EOF, _ -> ()
     | _ -> fail st "expected end of input");
    e
end
