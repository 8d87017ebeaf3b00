(* Front-end tests: lexer, parser, pretty-printer round-trip, semantic
   checks, interpreter, and the trace oracle on the paper's motivating
   examples. *)

open Dda_lang

let program = Alcotest.testable Pretty.pp_program Ast.equal_program
let expr = Alcotest.testable Pretty.pp_expr Ast.equal_expr

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int) "eof only" 1 (List.length (toks ""));
  Alcotest.(check bool) "keywords" true
    (toks "for to step do end if then else read"
     = Token.[ KW_FOR; KW_TO; KW_STEP; KW_DO; KW_END; KW_IF; KW_THEN; KW_ELSE; KW_READ; EOF ]);
  Alcotest.(check bool) "operators" true
    (toks "+ - * / = == != < <= > >= ( ) [ ] ,"
     = Token.[ PLUS; MINUS; STAR; SLASH; ASSIGN; EQ; NE; LT; LE; GT; GE;
               LPAREN; RPAREN; LBRACKET; RBRACKET; COMMA; EOF ]);
  Alcotest.(check bool) "numbers and idents" true
    (toks "a1 42 foo_bar" = Token.[ IDENT "a1"; INT 42; IDENT "foo_bar"; EOF ]);
  Alcotest.(check bool) "comments skipped" true
    (toks "a # comment here\nb" = Token.[ IDENT "a"; IDENT "b"; EOF ])

let test_lexer_locations () =
  let spanned = Lexer.tokenize "a\n  b" in
  match spanned with
  | [ (Token.IDENT "a", l1); (Token.IDENT "b", l2); (Token.EOF, _) ] ->
    Alcotest.(check int) "a line" 1 l1.Loc.line;
    Alcotest.(check int) "a col" 1 l1.Loc.col;
    Alcotest.(check int) "b line" 2 l2.Loc.line;
    Alcotest.(check int) "b col" 3 l2.Loc.col
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_errors () =
  let fails src =
    try ignore (Lexer.tokenize src); false with Lexer.Error _ -> true
  in
  Alcotest.(check bool) "bad char" true (fails "a $ b");
  Alcotest.(check bool) "lone bang" true (fails "a ! b");
  Alcotest.(check bool) "huge literal" true
    (fails "999999999999999999999999999999")

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_paper_intro () =
  (* First loop of the paper's introduction. *)
  let prog = Parser.parse_program "for i = 1 to 10 do a[i] = a[i+10] + 3 endfor" in
  let expected =
    [
      Ast.for_ "i" (Ast.int_ 1) (Ast.int_ 10)
        [
          Ast.assign
            (Ast.Larr ("a", [ Ast.var "i" ]))
            (Ast.bin Ast.Add
               (Ast.aref "a" [ Ast.bin Ast.Add (Ast.var "i") (Ast.int_ 10) ])
               (Ast.int_ 3));
        ];
    ]
  in
  Alcotest.check program "intro loop" expected prog

let test_parse_precedence () =
  Alcotest.check expr "mul binds tighter"
    (Ast.bin Ast.Add (Ast.var "a") (Ast.bin Ast.Mul (Ast.var "b") (Ast.var "c")))
    (Parser.parse_expr "a + b * c");
  Alcotest.check expr "parens override"
    (Ast.bin Ast.Mul (Ast.bin Ast.Add (Ast.var "a") (Ast.var "b")) (Ast.var "c"))
    (Parser.parse_expr "(a + b) * c");
  Alcotest.check expr "left assoc sub"
    (Ast.bin Ast.Sub (Ast.bin Ast.Sub (Ast.var "a") (Ast.var "b")) (Ast.var "c"))
    (Parser.parse_expr "a - b - c");
  Alcotest.check expr "unary minus"
    (Ast.bin Ast.Add (Ast.var "a") (Ast.neg (Ast.var "b")))
    (Parser.parse_expr "a + -b")

let test_parse_full_features () =
  let src =
    "read(n)\n\
     for i = 1 to n step 2 do\n\
    \  if i < n then\n\
    \    a[i][i+1] = b[2*i] + 1\n\
    \  else\n\
    \    t = t / 2\n\
    \  endif\n\
     endfor"
  in
  match Parser.parse_program src with
  | [ { sdesc = Ast.Read "n"; _ }; { sdesc = Ast.For f; _ } ] ->
    Alcotest.(check string) "loop var" "i" f.var;
    Alcotest.(check bool) "has step" true (f.step <> None);
    (match f.body with
     | [ { sdesc = Ast.If (_, [ _ ], [ _ ]); _ } ] -> ()
     | _ -> Alcotest.fail "expected if with one stmt per branch")
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_errors () =
  let fails src =
    try ignore (Parser.parse_program src); false with Parser.Error _ -> true
  in
  Alcotest.(check bool) "missing do" true (fails "for i = 1 to 10 a[i] = 1 end");
  Alcotest.(check bool) "missing end" true (fails "for i = 1 to 10 do a[i] = 1");
  Alcotest.(check bool) "bad expr" true (fails "a[i] = +");
  Alcotest.(check bool) "trailing junk" true (fails "a = 1 )");
  Alcotest.(check bool) "missing bracket" true (fails "a[i = 3")

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trip                                           *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (pretty p) = p" ~count:300
    Test_support.Gen_ast.arb_program
    (fun p ->
       let printed = Pretty.program_to_string p in
       match Parser.parse_program printed with
       | p' -> Ast.equal_program p p'
       | exception (Parser.Error (msg, loc)) ->
         QCheck.Test.fail_reportf "parse error %s at %s on:@.%s" msg
           (Loc.to_string loc) printed)

(* The front end must never crash on garbage: any byte string either
   parses or raises the two documented exceptions. *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser is total (errors, never crashes)" ~count:1000
    QCheck.(string_gen_of_size (Gen.int_range 0 60) Gen.printable)
    (fun s ->
       match Parser.parse_program s with
       | _ -> true
       | exception Parser.Error _ -> true
       | exception Lexer.Error _ -> true)

(* Token soup: sequences of valid tokens stress the parser's error
   recovery more than random bytes do. *)
let prop_parser_total_token_soup =
  QCheck.Test.make ~name:"parser is total on token soup" ~count:1000
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 30)
            (oneofl
               [ "for"; "to"; "do"; "end"; "if"; "then"; "else"; "read"; "step";
                 "i"; "a"; "(„ÅÇ"; "1"; "42"; "+"; "-"; "*"; "/"; "="; "==";
                 "<"; "<="; ">"; ">="; "!="; "("; ")"; "["; "]"; "," ])
          >>= fun toks -> return (String.concat " " toks)))
    (fun s ->
       match Parser.parse_program s with
       | _ -> true
       | exception Parser.Error _ -> true
       | exception Lexer.Error _ -> true)

let test_roundtrip_tricky () =
  (* Cases where precedence-aware printing matters. *)
  List.iter
    (fun src ->
       let e = Parser.parse_expr src in
       let printed = Pretty.expr_to_string e in
       Alcotest.check expr src e (Parser.parse_expr printed))
    [
      "a - (b - c)";
      "a / (b / c)";
      "-(a + b)";
      "-a * b";
      "(a + b) * (c - d)";
      "a - -b";
      "2 * a[i + -1][j]";
    ]

(* ------------------------------------------------------------------ *)
(* Semantic checks                                                     *)
(* ------------------------------------------------------------------ *)

let errors_of src = Semant.check (Parser.parse_program src)

let test_semant_accepts () =
  Alcotest.(check int) "clean program" 0
    (List.length
       (errors_of
          "read(n)\nfor i = 1 to n do\n  a[i] = a[i-1] + n\nend"))

let test_semant_rejects () =
  let has_error src = errors_of src <> [] in
  Alcotest.(check bool) "assign to loop var" true
    (has_error "for i = 1 to 10 do i = 3 end");
  Alcotest.(check bool) "shadowed loop var" true
    (has_error "for i = 1 to 10 do for i = 1 to 10 do a[i] = 1 end end");
  Alcotest.(check bool) "rank mismatch" true
    (has_error "for i = 1 to 10 do a[i] = a[i][i] end");
  Alcotest.(check bool) "zero step" true
    (has_error "for i = 1 to 10 step 0 do a[i] = 1 end");
  Alcotest.(check bool) "non-constant step" true
    (has_error "read(n)\nfor i = 1 to 10 step n do a[i] = 1 end");
  Alcotest.(check bool) "undefined scalar" true
    (has_error "a[1] = q + 1");
  Alcotest.(check bool) "read into loop var" true
    (has_error "for i = 1 to 10 do read(i) end")

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let test_interp_scalars () =
  let prog = Parser.parse_program "t = 2\nu = t * 3 + 1" in
  Alcotest.(check (option int)) "u = 7" (Some 7) (Interp.scalar_value prog "u")

let test_interp_loop_sum () =
  (* Sum 1..10 into acc. *)
  let prog = Parser.parse_program "acc = 0\nfor i = 1 to 10 do acc = acc + i end" in
  Alcotest.(check (option int)) "sum" (Some 55) (Interp.scalar_value prog "acc")

let test_interp_step_and_if () =
  let prog =
    Parser.parse_program
      "acc = 0\nfor i = 1 to 10 step 2 do\n  if i > 5 then acc = acc + i end\nend"
  in
  (* i in {1,3,5,7,9}; those > 5 sum to 16. *)
  Alcotest.(check (option int)) "sum" (Some 16) (Interp.scalar_value prog "acc");
  let down =
    Parser.parse_program "acc = 0\nfor i = 5 to 1 step -2 do acc = acc + i end"
  in
  Alcotest.(check (option int)) "downward" (Some 9) (Interp.scalar_value down "acc")

let test_interp_inputs () =
  let prog = Parser.parse_program "read(n)\nt = n + 1" in
  Alcotest.(check (option int)) "input used" (Some 6)
    (Interp.scalar_value ~inputs:[ ("n", 5) ] prog "t");
  Alcotest.(check (option int)) "default 0" (Some 1) (Interp.scalar_value prog "t")

let test_interp_memory () =
  let prog = Parser.parse_program "a[3] = 7\nt = a[3] + a[4]" in
  Alcotest.(check (option int)) "load stored and default" (Some 7)
    (Interp.scalar_value prog "t")

let test_interp_trace () =
  let prog = Parser.parse_program "for i = 1 to 3 do a[i] = a[i+1] end" in
  let accesses = Interp.run prog in
  (* Per iteration: one read, one write. *)
  Alcotest.(check int) "6 accesses" 6 (List.length accesses);
  let writes = List.filter (fun (a : Interp.access) -> a.role = `Write) accesses in
  Alcotest.(check int) "3 writes" 3 (List.length writes);
  List.iteri
    (fun k (a : Interp.access) ->
       Alcotest.(check (list (pair string int))) "iteration vector"
         [ ("i", k + 1) ] a.iter;
       Alcotest.(check (list int)) "indices" [ k + 1 ] a.indices)
    writes

let test_interp_fuel () =
  let prog = Parser.parse_program "for i = 1 to 1000 do a[i] = i end" in
  Alcotest.(check bool) "fuel exhausts" true
    (try ignore (Interp.run ~fuel:50 prog); false
     with Interp.Runtime_error ("execution budget exhausted", _) -> true);
  Alcotest.(check int) "enough fuel" 1000
    (List.length (Interp.run ~fuel:2000 prog));
  Alcotest.(check int) "unlimited by default" 1000 (List.length (Interp.run prog))

let test_interp_div_by_zero () =
  let prog = Parser.parse_program "t = 1 / 0" in
  Alcotest.(check bool) "raises" true
    (try ignore (Interp.run prog); false with Interp.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Trace oracle                                                        *)
(* ------------------------------------------------------------------ *)

(* The single distinct-site pair of a one-statement loop (self pairs of
   the write are also enumerated; skip them). *)
let sites_of prog =
  match
    List.filter (fun (s1, s2, _) -> not (Loc.equal s1 s2)) (Trace.all_site_pairs prog)
  with
  | [ (s1, s2, _) ] -> (s1, s2)
  | pairs -> Alcotest.fail (Printf.sprintf "expected 1 pair, got %d" (List.length pairs))

let test_oracle_intro_independent () =
  (* Paper intro, first loop: writes a[1..10], reads a[11..20]. *)
  let prog = Parser.parse_program "for i = 1 to 10 do a[i] = a[i+10] + 3 end" in
  let s1, s2 = sites_of prog in
  let obs = Trace.observe prog ~site1:s1 ~site2:s2 in
  Alcotest.(check bool) "independent" false obs.dependent

let test_oracle_intro_dependent () =
  (* Paper intro, second loop: a[i+1] = a[i] + 3, distance 1. *)
  let prog = Parser.parse_program "for i = 1 to 10 do a[i+1] = a[i] + 3 end" in
  let s1, s2 = sites_of prog in
  let obs = Trace.observe prog ~site1:s1 ~site2:s2 in
  Alcotest.(check bool) "dependent" true obs.dependent;
  Alcotest.(check bool) "direction <" true (obs.directions = [ [ Trace.Lt ] ]);
  Alcotest.(check bool) "distance 1" true (obs.distances = [ [ 1 ] ])

let test_oracle_self_pair () =
  (* A write site paired with itself: a[i] = ... never overlaps across
     distinct iterations; a[i/2]-style would. Use a[5] which always hits
     the same cell. *)
  let prog = Parser.parse_program "for i = 1 to 4 do a[5] = i end" in
  (match Trace.all_site_pairs prog with
   | [ (s1, s2, "a") ] ->
     Alcotest.(check bool) "self pair" true (Loc.equal s1 s2);
     let obs = Trace.observe prog ~site1:s1 ~site2:s2 in
     Alcotest.(check bool) "output dependent" true obs.dependent;
     Alcotest.(check bool) "all non-eq directions" true
       (obs.directions = [ [ Trace.Lt ]; [ Trace.Gt ] ])
   | _ -> Alcotest.fail "expected single self pair");
  let indep = Parser.parse_program "for i = 1 to 4 do a[i] = i end" in
  (match Trace.all_site_pairs indep with
   | [ (s1, s2, "a") ] ->
     let obs = Trace.observe indep ~site1:s1 ~site2:s2 in
     Alcotest.(check bool) "disjoint writes independent" false obs.dependent
   | _ -> Alcotest.fail "expected single self pair")

let test_oracle_multi_vector () =
  (* Paper section 6: a[i][j] = a[2i][j] has direction vectors "(<,=)"
     and "(=,any)". Here the write is a[i][j], read a[2i][j]. *)
  let prog =
    Parser.parse_program
      "for i = 0 to 10 do for j = 0 to 10 do a[i][j] = a[2*i][j] + 7 end end"
  in
  let s1, s2 = sites_of prog in
  let obs = Trace.observe prog ~site1:s1 ~site2:s2 in
  Alcotest.(check bool) "dependent" true obs.dependent;
  (* Observed directions on (i, j): i = 2i' only for i = i' = 0 giving
     (=,...); write at i later read at 2i gives (<, =) instances; no
     (>, _) since 2i >= i on this range. Check that (=,=) and (<,=) are
     both observed. *)
  (* Overlap needs i = 2i', so the write's iteration is >= the read's:
     (=,=) at i = i' = 0 and (>,=) for i' >= 1. *)
  Alcotest.(check bool) "(=,=) observed" true
    (List.mem [ Trace.Eq; Trace.Eq ] obs.directions);
  Alcotest.(check bool) "(>,=) observed" true
    (List.mem [ Trace.Gt; Trace.Eq ] obs.directions);
  Alcotest.(check bool) "no (<,_) observed" true
    (List.for_all (function Trace.Lt :: _ -> false | _ -> true) obs.directions)

let test_oracle_pair_enumeration () =
  let prog =
    Parser.parse_program
      "for i = 1 to 3 do\n  a[i] = b[i] + a[i]\n  b[i+1] = a[i] * 2\nend"
  in
  (* References: writes a[i] (w1), b[i+1] (w2); reads b[i], a[i](rhs1),
     a[i](rhs2). Pairs on same array with a write:
     a: w1-w1, w1-r_a1, w1-r_a2; b: r_b-w2 (order by position), w2-w2.
     That's 5. *)
  Alcotest.(check int) "pair count" 5 (List.length (Trace.all_site_pairs prog))

(* ------------------------------------------------------------------ *)
(* Front end vs the reference                                          *)
(* ------------------------------------------------------------------ *)

(* The array lexer and cursor parser against the list-based front end
   they replaced ([Test_support.Ref_front]): the same tokens and
   locations, the same AST (compared structurally, locations
   included), and the same error — lexical or syntax, message and
   location. Since both lex the whole input first, a lexical error
   anywhere must win over an earlier syntax error in both. *)

type 'a front_result =
  | Done of 'a
  | Lexical of string * Loc.t
  | Syntax of string * Loc.t

let run_front f src =
  match f src with
  | v -> Done v
  | exception Lexer.Error (msg, loc) -> Lexical (msg, loc)
  | exception Parser.Error (msg, loc) -> Syntax (msg, loc)

let show_front = function
  | Done _ -> "ok"
  | Lexical (msg, loc) -> Printf.sprintf "lexical error at %s: %s" (Loc.to_string loc) msg
  | Syntax (msg, loc) -> Printf.sprintf "syntax error at %s: %s" (Loc.to_string loc) msg

let front_agrees src =
  let tokens = run_front Lexer.tokenize src in
  let ref_tokens = run_front Test_support.Ref_front.Lexer.tokenize src in
  let ast = run_front Parser.parse_program src in
  let ref_ast = run_front Test_support.Ref_front.Parser.parse_program src in
  if tokens <> ref_tokens then
    QCheck.Test.fail_reportf "tokens differ (%s vs reference %s) on:@.%S"
      (show_front tokens) (show_front ref_tokens) src;
  if ast <> ref_ast then
    QCheck.Test.fail_reportf "parse differs (%s vs reference %s) on:@.%S"
      (show_front ast) (show_front ref_ast) src;
  true

(* Sources: fuzzed programs of both profiles, seed-shifted PERFECT
   programs, and any of those with 1 to 4 bytes from the whole 0x00 -
   0xff range inserted at random offsets. *)
let gen_front_source =
  let open QCheck.Gen in
  let fuzzed =
    map3
      (fun profile seed index -> Dda_perfect.Fuzz.program profile ~seed ~index)
      (oneofl [ Dda_perfect.Fuzz.Small; Dda_perfect.Fuzz.Mixed ])
      (int_bound 100_000) (int_bound 1_000)
  in
  let perfect =
    map2
      (fun (spec : Dda_perfect.Programs.spec) k ->
        Dda_perfect.Programs.source { spec with seed = spec.seed + (7919 * k) })
      (oneofl Dda_perfect.Programs.all)
      (int_bound 3)
  in
  let insert src =
    list_size (int_range 1 4) (pair (int_bound max_int) (map Char.chr (int_bound 255)))
    >|= List.fold_left
          (fun s (at, c) ->
            let at = at mod (String.length s + 1) in
            String.sub s 0 at ^ String.make 1 c ^ String.sub s at (String.length s - at))
          src
  in
  let base = frequency [ (4, fuzzed); (1, perfect) ] in
  frequency [ (1, base); (2, base >>= insert) ]

let prop_front_matches_reference =
  QCheck.Test.make ~name:"front end equals the reference (tokens, AST, errors)"
    ~count:400
    (QCheck.make ~print:(Printf.sprintf "%S") gen_front_source)
    front_agrees

let test_front_error_precedence () =
  List.iter
    (fun (src, expect) ->
      ignore (front_agrees src);
      Alcotest.(check string) (String.escaped src) expect
        (show_front (run_front Parser.parse_program src)))
    [
      (* A syntax error on line 1, a lexical one later: lexical wins. *)
      ("for for\n a[i] = $", "lexical error at 2:9: unexpected character '$'");
      ("a = = b\nc = 1 ! 2", "lexical error at 2:7: expected '=' after '!'");
      ( "end\nx = 99999999999999999999999",
        "lexical error at 2:28: integer literal out of range: 99999999999999999999999" );
      ("a = (1\n# comment \255\n\000", "lexical error at 3:1: unexpected character '\000'");
      (* No lexical error: the syntax error stands, at its token. *)
      ("for i = 1 to do\nend", "syntax error at 1:14: expected an expression (found 'do')");
      ("a[1] = 2 )", "syntax error at 1:10: expected a statement (found ')')");
      ("a[1] = 2\n  end", "syntax error at 2:3: expected end of input (found 'end')");
      ("x = 1\n\n  y", "syntax error at 3:4: expected '=' (found '<eof>')");
      (* 17 and 18+ digits: the fast and the checked literal path. *)
      ("x = 99999999999999999", "ok");
      ("x = 4611686018427387903", "ok");
      ("x = 4611686018427387904", "lexical error at 1:24: integer literal out of range: 4611686018427387904");
    ]

let test_front_perfect_sources () =
  List.iter
    (fun (spec : Dda_perfect.Programs.spec) ->
      ignore (front_agrees (Dda_perfect.Programs.source spec)))
    Dda_perfect.Programs.all

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "locations" `Quick test_lexer_locations;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper intro" `Quick test_parse_paper_intro;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "full features" `Quick test_parse_full_features;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "tricky precedence" `Quick test_roundtrip_tricky;
          qt prop_roundtrip;
          qt prop_parser_total;
          qt prop_parser_total_token_soup;
        ] );
      ( "front-end",
        [
          Alcotest.test_case "lexical errors win over syntax errors" `Quick
            test_front_error_precedence;
          Alcotest.test_case "PERFECT sources equal the reference" `Quick
            test_front_perfect_sources;
          qt prop_front_matches_reference;
        ] );
      ( "semant",
        [
          Alcotest.test_case "accepts clean" `Quick test_semant_accepts;
          Alcotest.test_case "rejects bad" `Quick test_semant_rejects;
        ] );
      ( "interp",
        [
          Alcotest.test_case "scalars" `Quick test_interp_scalars;
          Alcotest.test_case "loop sum" `Quick test_interp_loop_sum;
          Alcotest.test_case "step and if" `Quick test_interp_step_and_if;
          Alcotest.test_case "inputs" `Quick test_interp_inputs;
          Alcotest.test_case "memory" `Quick test_interp_memory;
          Alcotest.test_case "trace" `Quick test_interp_trace;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "division by zero" `Quick test_interp_div_by_zero;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "intro independent" `Quick test_oracle_intro_independent;
          Alcotest.test_case "intro dependent" `Quick test_oracle_intro_dependent;
          Alcotest.test_case "self pair" `Quick test_oracle_self_pair;
          Alcotest.test_case "multiple vectors" `Quick test_oracle_multi_vector;
          Alcotest.test_case "pair enumeration" `Quick test_oracle_pair_enumeration;
        ] );
    ]
