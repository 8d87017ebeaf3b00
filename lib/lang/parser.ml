exception Error of string * Loc.t

(* A cursor over the lexer's token arrays. The cursor never moves past
   the final EOF: every [advance] follows a match on a token other than
   EOF. *)
type state = {
  t : Lexer.tokens;
  mutable i : int;
}

let peek st = st.t.Lexer.toks.(st.i)
let loc st = Lexer.loc st.t st.i
let advance st = st.i <- st.i + 1

let fail st msg =
  let found = Token.to_string (peek st) in
  raise (Error (Printf.sprintf "%s (found '%s')" msg found, loc st))

let expect st tok what =
  if Token.equal (peek st) tok then advance st
  else fail st (Printf.sprintf "expected %s" what)

let expect_ident st what =
  match peek st with
  | Token.IDENT name ->
    advance st;
    name
  | _ -> fail st (Printf.sprintf "expected %s" what)

(* [loc st] is taken before [advance]: a node sits at its first token. *)

(* expr ::= term (("+" | "-") term)* *)
let rec parse_expr_p st =
  let rec loop acc =
    match peek st with
    | Token.PLUS ->
      let loc = loc st in
      advance st;
      loop (Ast.bin ~loc Ast.Add acc (parse_term st))
    | Token.MINUS ->
      let loc = loc st in
      advance st;
      loop (Ast.bin ~loc Ast.Sub acc (parse_term st))
    | _ -> acc
  in
  loop (parse_term st)

and parse_term st =
  let rec loop acc =
    match peek st with
    | Token.STAR ->
      let loc = loc st in
      advance st;
      loop (Ast.bin ~loc Ast.Mul acc (parse_factor st))
    | Token.SLASH ->
      let loc = loc st in
      advance st;
      loop (Ast.bin ~loc Ast.Div acc (parse_factor st))
    | _ -> acc
  in
  loop (parse_factor st)

and parse_factor st =
  match peek st with
  | Token.MINUS ->
    let loc = loc st in
    advance st;
    Ast.neg ~loc (parse_factor st)
  | Token.INT n ->
    let loc = loc st in
    advance st;
    Ast.int_ ~loc n
  | Token.LPAREN ->
    advance st;
    let e = parse_expr_p st in
    expect st Token.RPAREN "')'";
    e
  | Token.IDENT name ->
    let loc = loc st in
    advance st;
    let subs = parse_subscripts st in
    if subs = [] then Ast.var ~loc name else Ast.aref ~loc name subs
  | _ -> fail st "expected an expression"

and parse_subscripts st =
  match peek st with
  | Token.LBRACKET ->
    advance st;
    let e = parse_expr_p st in
    expect st Token.RBRACKET "']'";
    e :: parse_subscripts st
  | _ -> []

let parse_relop st =
  let rel =
    match peek st with
    | Token.EQ -> Ast.Req
    | Token.NE -> Ast.Rne
    | Token.LT -> Ast.Rlt
    | Token.LE -> Ast.Rle
    | Token.GT -> Ast.Rgt
    | Token.GE -> Ast.Rge
    | _ -> fail st "expected a relational operator"
  in
  advance st;
  rel

let parse_cond st =
  let lhs = parse_expr_p st in
  let rel = parse_relop st in
  let rhs = parse_expr_p st in
  { Ast.rel; lhs; rhs }

let rec parse_stmt st =
  match peek st with
  | Token.KW_PARALLEL ->
    let loc = loc st in
    advance st;
    expect st Token.KW_FOR "'for' after 'parallel'";
    parse_for st ~loc ~parallel:true
  | Token.KW_FOR ->
    let loc = loc st in
    advance st;
    parse_for st ~loc ~parallel:false
  | Token.KW_IF ->
    let loc = loc st in
    advance st;
    let cond = parse_cond st in
    expect st Token.KW_THEN "'then'";
    let then_ = parse_stmts st in
    let else_ =
      match peek st with
      | Token.KW_ELSE ->
        advance st;
        parse_stmts st
      | _ -> []
    in
    expect st Token.KW_END "'end'";
    Ast.if_ ~loc cond then_ else_
  | Token.KW_READ ->
    let loc = loc st in
    advance st;
    expect st Token.LPAREN "'('";
    let name = expect_ident st "a variable name" in
    expect st Token.RPAREN "')'";
    Ast.read ~loc name
  | Token.IDENT name ->
    let loc = loc st in
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
    | Token.KW_STEP ->
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
  | Token.KW_END | Token.KW_ELSE | Token.EOF -> []
  | _ ->
    let s = parse_stmt st in
    s :: parse_stmts st

(* Each domain lexes into the same token arrays, parse after parse:
   parses on one domain never overlap (no parse nests in another, and
   the program runs no systhreads), and the AST keeps no reference to
   the arrays. *)
let scratch = Domain.DLS.new_key Lexer.create

(* The whole input is lexed before parsing starts, so a lexical error
   anywhere wins over a syntax error earlier in the input. *)
let parse_all parse src =
  let st = { t = Lexer.scan ~into:(Domain.DLS.get scratch) src; i = 0 } in
  let v = parse st in
  (match peek st with
   | Token.EOF -> ()
   | _ -> fail st "expected end of input");
  v

let parse_program src = parse_all parse_stmts src
let parse_expr src = parse_all parse_expr_p src
