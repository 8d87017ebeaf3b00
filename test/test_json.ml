(* JSON emitter tests: escaping, structure, and the report rendering. *)

open Dda_core
open Json_out

let test_scalars () =
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "true" "true" (to_string (Bool true));
  Alcotest.(check string) "int" "-42" (to_string (Int (-42)));
  Alcotest.(check string) "string" "\"hi\"" (to_string (Str "hi"))

let test_escaping () =
  Alcotest.(check string) "quotes" "\"a\\\"b\"" (to_string (Str "a\"b"));
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (to_string (Str "a\\b"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (to_string (Str "a\nb"));
  Alcotest.(check string) "tab" "\"a\\tb\"" (to_string (Str "a\tb"));
  Alcotest.(check string) "control" "\"\\u0001\"" (to_string (Str "\001"))

let test_composite () =
  Alcotest.(check string) "empty array" "[]" (to_string (List []));
  Alcotest.(check string) "array" "[1,2,3]"
    (to_string (List [ Int 1; Int 2; Int 3 ]));
  Alcotest.(check string) "object" "{\"a\":1,\"b\":[true,null]}"
    (to_string (Obj [ ("a", Int 1); ("b", List [ Bool true; Null ]) ]));
  Alcotest.(check string) "empty object" "{}" (to_string (Obj []))

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_report_shape () =
  let prog =
    Dda_lang.Parser.parse_program "for i = 1 to 10 do a[i + 1] = a[i] + 3 end"
  in
  let r = Analyzer.analyze prog in
  let json = to_string (report r) in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("contains " ^ needle) true (contains needle json))
    [
      "\"pairs\":[";
      "\"array\":\"a\"";
      "\"verdict\":\"dependent\"";
      "\"directions\":\"(<)\"";
      "\"kind\":\"flow\"";
      "\"distance\":[1]";
      "\"stats\":{";
      "\"independent_pairs\":1";
      "\"dependent_pairs\":1";
    ]

let test_pp_reparses_as_same_compact () =
  (* The indented printer and the compact printer agree modulo
     whitespace. *)
  let j =
    Obj
      [
        ("x", List [ Int 1; Obj [ ("y", Str "s\"s") ]; Null ]);
        ("z", Bool false);
      ]
  in
  let pretty = Format.asprintf "%a" pp j in
  let strip s =
    String.to_seq s
    |> Seq.filter (fun c -> c <> ' ' && c <> '\n')
    |> String.of_seq
  in
  Alcotest.(check string) "same modulo whitespace" (strip (to_string j))
    (strip pretty)

(* The string escaper as it was before the single-pass writer: one
   fresh buffer per string, one case per byte. The writer must match it
   byte for byte. *)
let reference_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  "\"" ^ Buffer.contents buf ^ "\""

let check_string_rendering s =
  let out = to_string (Str s) in
  String.equal out (reference_escape s)
  && (match of_string out with Ok (Str s') -> String.equal s s' | _ -> false)
  && String.equal (to_line (Str s)) (out ^ "\n")

let test_every_byte () =
  let all = String.init 256 Char.chr in
  Alcotest.(check string) "all 256 bytes" (reference_escape all) (to_string (Str all));
  Alcotest.(check bool) "round-trips" true (check_string_rendering all);
  Alcotest.(check bool) "empty" true (check_string_rendering "")

(* [Gen.char] draws from the full 0x00-0xff range; the frequency mix
   keeps escapable runs next to plain ones, and at string ends. *)
let prop_escape_matches_reference =
  let gen_char =
    QCheck.Gen.(
      frequency
        [ (4, char); (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127' ]);
          (4, char_range 'a' 'z') ])
  in
  QCheck.Test.make ~name:"string rendering equals the reference escaper" ~count:2000
    (QCheck.make ~print:String.escaped (QCheck.Gen.string_size ~gen:gen_char (QCheck.Gen.int_bound 40)))
    check_string_rendering

let test_to_line () =
  let j = Obj [ ("a", List [ Int 1; Str "x\ny" ]); ("b", Null) ] in
  Alcotest.(check string) "to_line is to_string plus newline" (to_string j ^ "\n")
    (to_line j)

(* The leaf printers the renderer now calls directly, against the Format
   printers they replaced. *)
let test_leaf_printers () =
  List.iter
    (fun (line, col) ->
       let l = Dda_lang.Loc.make ~line ~col in
       Alcotest.(check string) "loc" (Format.asprintf "%d:%d" line col)
         (Dda_lang.Loc.to_string l);
       Alcotest.(check string) "Loc.pp" (Dda_lang.Loc.to_string l)
         (Format.asprintf "%a" Dda_lang.Loc.pp l))
    [ (0, 0); (1, 1); (12, 345); (99999, 7); (-1, 3); (max_int, min_int) ];
  let dirs = [ Direction.Dlt; Direction.Deq; Direction.Dgt; Direction.Dany ] in
  let rec vectors n =
    if n = 0 then [ [] ]
    else List.concat_map (fun v -> List.map (fun d -> d :: v) dirs) (vectors (n - 1))
  in
  let format_vector v =
    Format.asprintf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
         Direction.pp_dir)
      v
  in
  List.iter
    (fun n ->
       List.iter
         (fun v ->
            let a = Array.of_list v in
            Alcotest.(check string) "vector" (format_vector v) (Direction.vector_to_string a);
            Alcotest.(check string) "Direction.pp_vector" (Direction.vector_to_string a)
              (Format.asprintf "%a" Direction.pp_vector a))
         (vectors n))
    [ 0; 1; 2; 3; 4 ];
  Alcotest.(check (list string)) "directions" [ "<"; "="; ">"; "*" ]
    (List.map (Format.asprintf "%a" Direction.pp_dir) dirs);
  List.iter
    (fun (k, name) ->
       Alcotest.(check string) "dep kind" name (Analyzer.dep_kind_name k);
       Alcotest.(check string) "Analyzer.pp_dep_kind" name
         (Format.asprintf "%a" Analyzer.pp_dep_kind k))
    [ (Analyzer.Flow, "flow"); (Analyzer.Anti, "anti"); (Analyzer.Output, "output");
      (Analyzer.Input, "input") ]

(* ------------------------------------------------------------------ *)
(* One schema, two sinks                                               *)
(* ------------------------------------------------------------------ *)

(* [item_line] writes the report straight into a buffer from the same
   field tables [report] builds its tree from; the two renderings must
   agree to the byte. *)
let check_item_line ?(extra = []) file (r : Analyzer.report) =
  let tree = to_line (Obj ([ ("file", Str file); ("report", report r) ] @ extra)) in
  let streamed = item_line ~file ~extra r in
  if not (String.equal tree streamed) then
    Alcotest.failf "%s: streamed line differs from the tree@.tree:     %s@.streamed: %s"
      (String.escaped file) tree streamed

let test_schema_corpora () =
  let analyze text = Analyzer.analyze (Dda_lang.Parser.parse_program text) in
  List.iter
    (fun (spec : Dda_perfect.Programs.spec) ->
      check_item_line ("perfect:" ^ spec.name) (analyze (Dda_perfect.Programs.source spec)))
    Dda_perfect.Programs.all;
  List.iter
    (fun profile ->
      for index = 0 to 299 do
        let name =
          Printf.sprintf "fuzz:%s:7:%d" (Dda_perfect.Fuzz.profile_name profile) index
        in
        check_item_line name (analyze (Dda_perfect.Fuzz.program profile ~seed:7 ~index))
      done)
    Dda_perfect.Fuzz.all_profiles;
  (* A starved budget: degraded, inexact outcomes and a non-zero
     degraded_pairs in the stats block. *)
  let starved =
    {
      Analyzer.default_config with
      limits = { Analyzer.default_config.limits with max_steps = Some 5 };
    }
  in
  let r =
    Analyzer.analyze ~config:starved
      (Dda_lang.Parser.parse_program
         (Dda_perfect.Programs.source (List.hd Dda_perfect.Programs.all)))
  in
  Alcotest.(check bool) "the starved report degrades" true
    (r.Analyzer.stats.Analyzer.degraded_pairs > 0);
  check_item_line "starved" r

(* Every outcome shape, built by hand around one real pair. *)
let test_schema_crafted () =
  let base =
    Analyzer.analyze
      (Dda_lang.Parser.parse_program "for i = 1 to 10 do a[i + 1] = a[i] + 3 end")
  in
  let p = List.hd base.Analyzer.pair_reports in
  let big = Dda_numeric.Zint.of_string "123456789012345678901234567890" in
  let tested ?(dependent = true) ?(unknown = false) ?decided_by ?(directions = [])
      ?distance ?degraded () =
    Analyzer.Tested
      { dependent; unknown; decided_by; directions; distance; implicit_bb = false; degraded }
  in
  let pairs =
    List.map
      (fun outcome -> { p with Analyzer.outcome })
      [
        Analyzer.Constant true;
        Analyzer.Constant false;
        Analyzer.Gcd_independent;
        Analyzer.Assumed_dependent;
        tested ~dependent:false ~decided_by:Cascade.T_svpc ();
        tested ~unknown:true ~degraded:Budget.Steps
          ~directions:[ [| Direction.Dany; Direction.Dany |] ] ();
        tested ~unknown:true ~degraded:Budget.Deadline ();
        tested ~decided_by:Cascade.T_fourier
          ~directions:
            [ [| Direction.Dlt; Direction.Deq |]; [| Direction.Dgt |]; [||] ]
          ~distance:[| big; Dda_numeric.Zint.neg big; Dda_numeric.Zint.of_int (-3) |]
          ();
        tested ~distance:[||] ();
      ]
    @ [
        {
          p with
          Analyzer.array_name = "q\"uo\\te\001";
          loc1 = Dda_lang.Loc.make ~line:max_int ~col:min_int;
          loc2 = Dda_lang.Loc.make ~line:(-1) ~col:0;
          role1 = `Read;
          self_pair = true;
        };
      ]
  in
  let stats = Analyzer.fresh_stats () in
  stats.Analyzer.degraded_pairs <- 2;
  stats.Analyzer.memo_hits_full <- -7;
  let crafted = { Analyzer.pair_reports = pairs; stats } in
  List.iter
    (fun file -> check_item_line file crafted)
    [ "plain.dd"; "with \"quotes\" and \\"; "ctl\000\001\n\r\t\x1f\x7f\xff"; "" ];
  check_item_line "empty pair list" { base with Analyzer.pair_reports = [] };
  check_item_line "with extras"
    ~extra:[ ("verification", Obj [ ("errors", Int 0) ]); ("lint", List [ Str "x\n" ]) ]
    base

let () =
  Alcotest.run "json"
    [
      ( "emitter",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "composite" `Quick test_composite;
          Alcotest.test_case "pp vs compact" `Quick test_pp_reparses_as_same_compact;
          Alcotest.test_case "every byte" `Quick test_every_byte;
          QCheck_alcotest.to_alcotest prop_escape_matches_reference;
          Alcotest.test_case "to_line" `Quick test_to_line;
          Alcotest.test_case "leaf printers" `Quick test_leaf_printers;
        ] );
      ("report", [ Alcotest.test_case "shape" `Quick test_report_shape ]);
      ( "schema",
        [
          Alcotest.test_case "PERFECT, fuzz and starved reports" `Quick
            test_schema_corpora;
          Alcotest.test_case "crafted outcomes, distances and names" `Quick
            test_schema_crafted;
        ] );
    ]
