exception Error of string * Loc.t

type tokens = {
  mutable toks : Token.t array;
  mutable lines : int array;
  mutable cols : int array;
  mutable count : int;
}

let create () =
  {
    toks = Array.make 256 Token.EOF;
    lines = Array.make 256 0;
    cols = Array.make 256 0;
    count = 0;
  }

let keywords =
  [|
    ("for", Token.KW_FOR);
    ("parallel", Token.KW_PARALLEL);
    ("to", Token.KW_TO);
    ("step", Token.KW_STEP);
    ("do", Token.KW_DO);
    (* "end for" / "end if" would be ambiguous with "end" followed by a
       new loop, so the suffixed closers are single keywords. *)
    ("end", Token.KW_END);
    ("endfor", Token.KW_END);
    ("endif", Token.KW_END);
    ("if", Token.KW_IF);
    ("then", Token.KW_THEN);
    ("else", Token.KW_ELSE);
    ("read", Token.KW_READ);
  |]

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* Does [src.[start .. start + len - 1]] spell [kw]? Compared in place,
   so a keyword costs no substring. *)
let spells src start len kw =
  String.length kw = len
  &&
  let rec eq i =
    i = len
    || (String.unsafe_get src (start + i) = String.unsafe_get kw i && eq (i + 1))
  in
  eq 0

let word src start len =
  let rec find k =
    if k = Array.length keywords then Token.IDENT (String.sub src start len)
    else
      let kw, tok = Array.unsafe_get keywords k in
      if spells src start len kw then tok else find (k + 1)
  in
  find 0

(* Up to 17 digits cannot overflow a 63-bit int; longer literals go
   through [int_of_string_opt], whose range is the language's. *)
let number src start len =
  if len <= 17 then begin
    let n = ref 0 in
    for i = start to start + len - 1 do
      n := (10 * !n) + (Char.code (String.unsafe_get src i) - 48)
    done;
    Some !n
  end
  else int_of_string_opt (String.sub src start len)

(* The arrays grow by doubling; a token's location is its line and the
   column of its first byte, 1-based. *)
let push t tok line col =
  let n = t.count in
  if n = Array.length t.toks then begin
    let grow a fill =
      let b = Array.make (max 256 (2 * n)) fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.toks <- grow t.toks Token.EOF;
    t.lines <- grow t.lines 0;
    t.cols <- grow t.cols 0
  end;
  Array.unsafe_set t.toks n tok;
  Array.unsafe_set t.lines n line;
  Array.unsafe_set t.cols n col;
  t.count <- n + 1

(* One pass over [src] with integer positions: [line] and [bol] (the
   offset where the line begins) give every column as [pos - bol + 1]. *)
let scan ?(into = create ()) src =
  let t = into in
  t.count <- 0;
  let len = String.length src in
  let error msg line col = raise (Error (msg, Loc.make ~line ~col)) in
  let pos = ref 0 and line = ref 1 and bol = ref 0 in
  while !pos < len do
    let p = !pos in
    let col = p - !bol + 1 in
    match String.unsafe_get src p with
    | '\n' ->
      incr line;
      bol := p + 1;
      pos := p + 1
    | ' ' | '\t' | '\r' -> pos := p + 1
    | '#' ->
      (* A comment runs to the newline, which the next step counts. *)
      let q = ref p in
      while !q < len && String.unsafe_get src !q <> '\n' do
        incr q
      done;
      pos := !q
    | '0' .. '9' ->
      let q = ref (p + 1) in
      while !q < len && is_digit (String.unsafe_get src !q) do
        incr q
      done;
      (match number src p (!q - p) with
       | Some n -> push t (Token.INT n) !line col
       | None ->
         (* Reported where the literal ends. *)
         error
           (Printf.sprintf "integer literal out of range: %s"
              (String.sub src p (!q - p)))
           !line
           (!q - !bol + 1));
      pos := !q
    | c when is_alpha c ->
      let q = ref (p + 1) in
      while !q < len && is_alnum (String.unsafe_get src !q) do
        incr q
      done;
      push t (word src p (!q - p)) !line col;
      pos := !q
    | ('=' | '<' | '>' | '!') as c ->
      (* An operator that may be followed by '=' ("<" / "<="); a bare
         '!' is not a token. *)
      let double = p + 1 < len && String.unsafe_get src (p + 1) = '=' in
      let tok =
        match c, double with
        | '=', true -> Token.EQ
        | '=', false -> Token.ASSIGN
        | '<', true -> Token.LE
        | '<', false -> Token.LT
        | '>', true -> Token.GE
        | '>', false -> Token.GT
        | '!', true -> Token.NE
        | _ -> error "expected '=' after '!'" !line col
      in
      push t tok !line col;
      pos := if double then p + 2 else p + 1
    | c ->
      let tok =
        match c with
        | '+' -> Token.PLUS
        | '-' -> Token.MINUS
        | '*' -> Token.STAR
        | '/' -> Token.SLASH
        | '(' -> Token.LPAREN
        | ')' -> Token.RPAREN
        | '[' -> Token.LBRACKET
        | ']' -> Token.RBRACKET
        | ',' -> Token.COMMA
        | c -> error (Printf.sprintf "unexpected character '%c'" c) !line col
      in
      push t tok !line col;
      pos := p + 1
  done;
  push t Token.EOF !line (len - !bol + 1);
  t

let loc t i = Loc.make ~line:t.lines.(i) ~col:t.cols.(i)

let tokenize src =
  let t = scan src in
  List.init t.count (fun i -> (t.toks.(i), loc t i))
