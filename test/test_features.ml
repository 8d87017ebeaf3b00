(* Tests for the paper's "further optimizations", implemented as
   features: symmetric-pair memoization, dependence-kind
   classification, and memo tables carried across compilations. *)

open Dda_lang
open Dda_core

let parse = Parser.parse_program

let exact_with memo =
  {
    Analyzer.default_config with
    Analyzer.prune = Direction.no_pruning;
    memo;
    run_pipeline = false;
    within_nest_only = false;
  }

let dirs_to_string vs =
  String.concat " " (List.map (Format.asprintf "%a" Direction.pp_vector) vs)

(* ------------------------------------------------------------------ *)
(* Problem.swap                                                        *)
(* ------------------------------------------------------------------ *)

let problem_of src =
  let prog = parse (Pretty.program_to_string (parse src)) in
  let sites = Affine.extract prog in
  let w = List.find (fun (s : Affine.site) -> s.role = `Write) sites in
  let r = List.find (fun (s : Affine.site) -> s.role = `Read) sites in
  Option.get (Build_problem.build w r)

let test_swap_involution () =
  let p = problem_of "read(n)\nfor i = 1 to n do for j = 1 to i do aa[i][j] = aa[j][i+2] + 1 end end" in
  let pss = Problem.swap (Problem.swap p) in
  Alcotest.(check bool) "swap . swap = id on keys" true
    (Problem.to_key p = Problem.to_key pss);
  Alcotest.(check int) "n1 swapped" p.n1 (Problem.swap p).n2;
  Alcotest.(check bool) "names round trip" true (p.names = pss.names)

let test_swap_mirror_keys () =
  (* The paper's example: a[i] vs a[i-1] is the mirror of a[i-1] vs
     a[i]. *)
  let p1 = problem_of "for i = 1 to 10 do a[i] = a[i-1] + 1 end" in
  let p2 = problem_of "for i = 1 to 10 do a[i-1] = a[i] + 1 end" in
  Alcotest.(check bool) "different problems" true
    (Problem.to_key p1 <> Problem.to_key p2);
  Alcotest.(check bool) "swap of one keys as the other" true
    (Problem.to_key (Problem.swap p1) = Problem.to_key p2)

let test_swap_preserves_solutions () =
  let p = problem_of "for i = 1 to 10 do a[i+1] = a[i] + 1 end" in
  let s = Problem.swap p in
  (* (i, i') = (1, 2) solves p; the swapped problem is solved by the
     swapped point (2, 1). *)
  let z = Dda_numeric.Zint.of_int in
  Alcotest.(check bool) "p solved" true (Problem.satisfies [| z 1; z 2 |] p);
  Alcotest.(check bool) "swap solved by swapped point" true
    (Problem.satisfies [| z 2; z 1 |] s);
  Alcotest.(check bool) "swap rejects unswapped point" false
    (Problem.satisfies [| z 1; z 2 |] s)

(* ------------------------------------------------------------------ *)
(* Symmetric memoization                                               *)
(* ------------------------------------------------------------------ *)

let mirror_src =
  (* Two mirror-image nests on different arrays (same problem shape). *)
  "for i = 1 to 10 do\n  a[i] = a[i-1] + 1\nend\n\
   for i = 1 to 10 do\n  b[i-1] = b[i] + 1\nend"

let non_self (r : Analyzer.report) =
  List.filter (fun (p : Analyzer.pair_report) -> not p.self_pair) r.pair_reports

let test_symmetric_collapses_mirrors () =
  let improved = Analyzer.analyze ~config:(exact_with Analyzer.Memo_improved) (parse mirror_src) in
  let symmetric = Analyzer.analyze ~config:(exact_with Analyzer.Memo_symmetric) (parse mirror_src) in
  (* Improved keeps the two orientations apart; symmetric shares one
     entry (self pairs of the two writes also collapse in both). *)
  Alcotest.(check bool) "improved keeps them apart" true
    (improved.stats.memo_unique_full > symmetric.stats.memo_unique_full);
  Alcotest.(check int) "symmetric: one shared non-self entry + one self" 2
    symmetric.stats.memo_unique_full

let test_symmetric_mirrors_directions () =
  let report = Analyzer.analyze ~config:(exact_with Analyzer.Memo_symmetric) (parse mirror_src) in
  match non_self report with
  | [ r1; r2 ] -> (
      match (r1.outcome, r2.outcome) with
      | Analyzer.Tested t1, Analyzer.Tested t2 ->
        Alcotest.(check bool) "both dependent" true (t1.dependent && t2.dependent);
        (* a[i] = a[i-1]: the write's cell i is read when i' - 1 = i,
           i.e. i < i': direction (<), distance +1. The mirror nest
           b[i-1] = b[i] must come back flipped. *)
        Alcotest.(check string) "first (<)" "(<)" (dirs_to_string t1.directions);
        Alcotest.(check string) "second mirrored (>)" "(>)" (dirs_to_string t2.directions);
        let d1 = Option.get t1.distance and d2 = Option.get t2.distance in
        Alcotest.(check int) "distance 1" 1 (Dda_numeric.Zint.to_int_exn d1.(0));
        Alcotest.(check int) "mirrored distance -1" (-1) (Dda_numeric.Zint.to_int_exn d2.(0))
      | _ -> Alcotest.fail "expected tested outcomes")
  | rs -> Alcotest.failf "expected 2 non-self pairs, got %d" (List.length rs)

let prop_symmetric_transparent =
  QCheck.Test.make ~name:"symmetric memo preserves verdicts and covers vectors"
    ~count:150 Test_support.Gen_ast.arb_affine_nest
    (fun prog ->
       let off = Analyzer.analyze ~config:(exact_with Analyzer.Memo_off) prog in
       let sym = Analyzer.analyze ~config:(exact_with Analyzer.Memo_symmetric) prog in
       let covered concrete claim =
         Array.length concrete = Array.length claim
         && (let ok = ref true in
             Array.iteri
               (fun i c ->
                  match claim.(i) with
                  | Direction.Dany -> ()
                  | d -> if d <> c then ok := false)
               concrete;
             !ok)
       in
       List.for_all2
         (fun (a : Analyzer.pair_report) (b : Analyzer.pair_report) ->
            Loc.equal a.loc1 b.loc1 && Loc.equal a.loc2 b.loc2
            &&
            match (a.outcome, b.outcome) with
            | Analyzer.Tested ta, Analyzer.Tested tb ->
              ta.dependent = tb.dependent
              && List.for_all
                   (fun c -> List.exists (covered c) tb.directions)
                   ta.directions
            | oa, ob -> oa = ob)
         off.pair_reports sym.pair_reports)

(* ------------------------------------------------------------------ *)
(* Dependence kinds                                                    *)
(* ------------------------------------------------------------------ *)

let kinds_of src =
  let report = Analyzer.analyze ~config:(exact_with Analyzer.Memo_simple) (parse src) in
  List.concat_map
    (fun (r : Analyzer.pair_report) ->
       match r.outcome with
       | Analyzer.Tested t when t.dependent ->
         List.map (fun v -> Analyzer.vector_kind r v) t.directions
       | _ -> [])
    (non_self report)

let test_kind_flow () =
  (* a[i+1] = a[i]: write at i, read at i' = i + 1 later: flow. *)
  Alcotest.(check bool) "flow" true
    (kinds_of "for i = 1 to 10 do a[i+1] = a[i] + 1 end" = [ Analyzer.Flow ])

let test_kind_anti () =
  (* a[i] = a[i+1]: the read of cell i+1 happens before its write. *)
  Alcotest.(check bool) "anti" true
    (kinds_of "for i = 1 to 10 do a[i] = a[i+1] + 1 end" = [ Analyzer.Anti ])

let test_kind_output () =
  let src = "for i = 1 to 10 do\n  a[i] = 1\n  a[i+1] = 2\nend" in
  let ks = kinds_of src in
  Alcotest.(check bool) "output dependence present" true (List.mem Analyzer.Output ks)

let test_kind_loop_independent () =
  (* Same-iteration write-then-read: all-= vector, textual order says
     the write is the source: flow. *)
  let src = "for i = 1 to 10 do\n  a[i] = 1\n  t = a[i]\nend" in
  Alcotest.(check bool) "loop-independent flow" true
    (kinds_of src = [ Analyzer.Flow ])

(* ------------------------------------------------------------------ *)
(* Sessions: memo caches carried across compilations                   *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "dda_memo" ".cache" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let strip (r : Analyzer.report) =
  List.map
    (fun (p : Analyzer.pair_report) ->
       ( p.loc1,
         p.loc2,
         match p.outcome with
         | Analyzer.Tested t ->
           ("t", t.dependent, List.map (Format.asprintf "%a" Direction.pp_vector) t.directions)
         | Analyzer.Constant d -> ("c", d, [])
         | Analyzer.Gcd_independent -> ("g", false, [])
         | Analyzer.Assumed_dependent -> ("a", true, []) ))
    r.pair_reports

let test_session_accumulates () =
  let prog = parse mirror_src in
  let cache = Analyzer.memory_cache () in
  let r1 = Analyzer.analyze ~cache prog in
  let r2 = Analyzer.analyze ~cache prog in
  Alcotest.(check bool) "same outcomes" true (strip r1 = strip r2);
  Alcotest.(check int) "second run all hits" r2.stats.memo_lookups_full
    r2.stats.memo_hits_full;
  Alcotest.(check bool) "first run had misses" true
    (r1.stats.memo_hits_full < r1.stats.memo_lookups_full)

(* The durable store [analyze --memo-file] and [prime] use: a table
   written by one run and reopened under the same configuration answers
   the next run from its replayed entries. *)
let test_session_save_load () =
  with_temp_file (fun path ->
      Sys.remove path;
      let config = Analyzer.default_config in
      let prog = parse mirror_src in
      let run () =
        let d, _ = Dda_cache.Durable.create ~path ~config () in
        Fun.protect
          ~finally:(fun () -> Dda_cache.Durable.close d)
          (fun () -> Analyzer.analyze ~config ~cache:(Dda_cache.Durable.cache d) prog)
      in
      let r1 = run () in
      let r2 = run () in
      Alcotest.(check bool) "same outcomes after reload" true (strip r1 = strip r2);
      Alcotest.(check int) "reloaded table: all hits" r2.stats.memo_lookups_full
        r2.stats.memo_hits_full;
      Alcotest.(check int) "no new entries" r1.stats.memo_unique_full
        r2.stats.memo_unique_full)

let test_session_priming () =
  (* The paper's suggestion: prime a standard table from a benchmark
     suite, then compile something else. Shared shapes hit. *)
  let train = parse "for i = 1 to 10 do a[i] = a[i-1] + 1 end" in
  let fresh = parse "for i = 1 to 10 do zz[i] = zz[i-1] + 1 end" in
  let cache = Analyzer.memory_cache () in
  ignore (Analyzer.analyze ~cache train);
  let r = Analyzer.analyze ~cache fresh in
  Alcotest.(check int) "different array, same shape: all hits"
    r.stats.memo_lookups_full r.stats.memo_hits_full

let test_within_nest_only () =
  (* Two separate nests touching the same array: skipped under the
     default, tested with --cross-nest semantics. *)
  let src =
    "for i = 1 to 10 do a[i] = 1 end\nfor j = 1 to 10 do t = a[j + 20] end"
  in
  let count cfg =
    List.length
      (List.filter
         (fun (r : Analyzer.pair_report) -> not r.self_pair)
         (Analyzer.analyze ~config:cfg (parse src)).pair_reports)
  in
  Alcotest.(check int) "default skips cross-nest" 0
    (count { (exact_with Analyzer.Memo_off) with Analyzer.within_nest_only = true });
  Alcotest.(check int) "cross-nest enabled" 1
    (count { (exact_with Analyzer.Memo_off) with Analyzer.within_nest_only = false })

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "features"
    [
      ( "swap",
        [
          Alcotest.test_case "involution" `Quick test_swap_involution;
          Alcotest.test_case "mirror keys" `Quick test_swap_mirror_keys;
          Alcotest.test_case "preserves solutions" `Quick test_swap_preserves_solutions;
        ] );
      ( "symmetric-memo",
        [
          Alcotest.test_case "collapses mirrors" `Quick test_symmetric_collapses_mirrors;
          Alcotest.test_case "mirrors directions" `Quick test_symmetric_mirrors_directions;
          qt prop_symmetric_transparent;
        ] );
      ( "dependence-kinds",
        [
          Alcotest.test_case "flow" `Quick test_kind_flow;
          Alcotest.test_case "anti" `Quick test_kind_anti;
          Alcotest.test_case "output" `Quick test_kind_output;
          Alcotest.test_case "loop independent" `Quick test_kind_loop_independent;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "accumulates" `Quick test_session_accumulates;
          Alcotest.test_case "save/load" `Quick test_session_save_load;
          Alcotest.test_case "priming" `Quick test_session_priming;
          Alcotest.test_case "within-nest filtering" `Quick test_within_nest_only;
        ] );
    ]
