(* C back-end tests: the generated C is compiled with a real C compiler
   and executed; its final-state dump must equal the reference
   interpreter's. With OpenMP enabled and several threads, the loops
   the analysis marked parallel actually run concurrently — a racy
   (wrong) "parallel" verdict shows up as a divergent dump. *)

open Dda_lang
open Dda_core
open Dda_codegen

let gcc_available = Sys.command "gcc --version > /dev/null 2>&1" = 0

let require_gcc () = if not gcc_available then Alcotest.skip ()

let read_all ic =
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> "(unreadable: " ^ msg ^ ")"

(* A failed step of compile-and-run, reported with everything needed to
   tell a compiler problem from a runtime one: the step, its exit
   status, its stderr and the source. *)
exception C_step_failed of string

let () =
  Printexc.register_printer (function
    | C_step_failed msg -> Some msg
    | _ -> None)

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit status %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let compile_and_run ?(openmp = false) ?(threads = 1) c_src =
  let dir = Filename.temp_file "dda_cg" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () ->
       let c_file = Filename.concat dir "prog.c" in
       let exe = Filename.concat dir "prog" in
       let cc_err = Filename.concat dir "cc.err" in
       let run_err = Filename.concat dir "run.err" in
       let oc = open_out c_file in
       output_string oc c_src;
       close_out oc;
       let flags = if openmp then "-fopenmp" else "" in
       let cmd =
         Printf.sprintf "gcc -O1 %s -o %s %s 2> %s" flags
           (Filename.quote exe) (Filename.quote c_file) (Filename.quote cc_err)
       in
       let cc_status = Sys.command cmd in
       if cc_status <> 0 then
         raise
           (C_step_failed
              (Printf.sprintf
                 "gcc %s exited with status %d\n--- gcc stderr ---\n%s--- source ---\n%s"
                 flags cc_status (read_file cc_err) c_src));
       let run_cmd =
         Printf.sprintf "OMP_NUM_THREADS=%d %s 2> %s" threads (Filename.quote exe)
           (Filename.quote run_err)
       in
       let ic = Unix.open_process_in run_cmd in
       let output = read_all ic in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 -> output
       | status ->
         raise
           (C_step_failed
              (Printf.sprintf
                 "generated program (OMP_NUM_THREADS=%d) ended with %s\n\
                  --- stderr ---\n%s--- stdout (%d bytes) ---\n%s--- source ---\n%s"
                 threads (status_to_string status) (read_file run_err)
                 (String.length output) output c_src)))

(* The lines where the interpreter's state dump and the C program's
   differ, with their line numbers. *)
let state_diff expected actual =
  let e = Array.of_list (String.split_on_char '\n' expected)
  and a = Array.of_list (String.split_on_char '\n' actual) in
  let line arr i = if i < Array.length arr then arr.(i) else "(missing)" in
  let diffs = ref [] in
  for i = max (Array.length e) (Array.length a) - 1 downto 0 do
    if line e i <> line a i then
      diffs :=
        Printf.sprintf "line %d: interpreter %S, C %S" (i + 1) (line e i) (line a i)
        :: !diffs
  done;
  String.concat "\n" !diffs

let parallel_flags prog =
  let prepared = Dda_passes.Pipeline.run prog in
  let sites = Affine.extract prepared in
  let report =
    Analyzer.analyze
      ~config:{ Analyzer.default_config with Analyzer.run_pipeline = false }
      prepared
  in
  (prepared, Analyzer.parallel_loops report sites)

let check_against_interp ?(openmp = false) ?(threads = 1) name prog =
  let prepared, parallel = parallel_flags prog in
  match C_emit.emit ~parallel prepared with
  | Error reason -> Alcotest.failf "%s: emit rejected: %s" name reason
  | Ok c_src ->
    let expected = C_emit.state_dump (fst (Interp.final_state prepared)) in
    let actual = compile_and_run ~openmp ~threads c_src in
    Alcotest.(check string) (name ^ ": C output equals interpreter state")
      expected actual

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let codegen_kernels =
  (* Kernels without read() — those have symbolic bounds the back end
     rejects. *)
  List.filter
    (fun (k : Dda_perfect.Kernels.kernel) ->
       not (String.length k.source >= 4 && String.sub k.source 0 4 = "read"))
    Dda_perfect.Kernels.all

let test_kernels_sequential () =
  require_gcc ();
  List.iter
    (fun (k : Dda_perfect.Kernels.kernel) ->
       check_against_interp k.name (Parser.parse_program k.source))
    codegen_kernels

let test_kernels_openmp () =
  require_gcc ();
  List.iter
    (fun (k : Dda_perfect.Kernels.kernel) ->
       check_against_interp ~openmp:true ~threads:4 k.name
         (Parser.parse_program k.source))
    codegen_kernels

let test_pragma_placement () =
  let prog = Parser.parse_program "for i = 1 to 100 do\n  c[i] = a[i] + b[i]\nend" in
  let prepared, parallel = parallel_flags prog in
  (match C_emit.emit ~parallel prepared with
   | Ok src ->
     let contains needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "pragma present" true
       (contains "#pragma omp parallel for lastprivate(v_i)" src)
   | Error e -> Alcotest.fail e);
  (* A serial loop gets no pragma. *)
  let prog2 = Parser.parse_program "for i = 2 to 100 do\n  s[i] = s[i-1] + 1\nend" in
  let prepared2, parallel2 = parallel_flags prog2 in
  match C_emit.emit ~parallel:parallel2 prepared2 with
  | Ok src ->
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "no pragma" false (contains "#pragma" src)
  | Error e -> Alcotest.fail e

(* An outer parallel loop's iterations each run the nested loops, so
   the nested loop variables must be private to each thread too — when
   they were shared, threads overwrote each other's [j] and [k] and
   cells went missing from the final state. When the copies cannot be
   carried out exactly (a nested loop that may not run in the last
   iteration, a scalar assignment in the body), the loop stays serial. *)
let test_nested_loop_variables_private () =
  let pragmas src =
    let prepared, parallel = parallel_flags (Parser.parse_program src) in
    match C_emit.emit ~parallel prepared with
    | Error e -> Alcotest.fail e
    | Ok c ->
      List.filter_map
        (fun line ->
          let line = String.trim line in
          if String.length line > 7 && String.sub line 0 7 = "#pragma" then Some line
          else None)
        (String.split_on_char '\n' c)
  in
  Alcotest.(check (list string)) "nested variables privatized"
    [
      "#pragma omp parallel for lastprivate(v_i, v_j, v_k)";
      "#pragma omp parallel for lastprivate(v_k)";
    ]
    (pragmas
       "for i = 1 to 4 do\n\
       \  for j = 0 to 3 do\n\
       \    for k = 2 to 4 do\n\
       \      c[j + 2 * k - 1][j + 2 * k - 2 * i - 3] = c[2 * i - k + 3][2 * i + 2] + 8\n\
       \    end\n\
       \  end\n\
        end");
  Alcotest.(check (list string)) "an empty nested range keeps the outer loop serial"
    [ "#pragma omp parallel for lastprivate(v_j)" ]
    (pragmas "for i = 1 to 4 do\n  for j = 3 to 1 do\n    a[i][j] = 1\n  end\nend");
  Alcotest.(check (list string)) "a nested loop under an if keeps it serial"
    [ "#pragma omp parallel for lastprivate(v_j)" ]
    (pragmas
       "for i = 1 to 4 do\n\
       \  if i > 2 then\n\
       \    for j = 1 to 3 do a[i][j] = 1 end\n\
       \  end\n\
        end");
  require_gcc ();
  check_against_interp ~openmp:true ~threads:4 "racy nest, openmp x4"
    (Parser.parse_program
       "for i = 1 to 40 do\n\
       \  for j = 1 to 30 do\n\
       \    for k = 1 to 20 do\n\
       \      a[i][j + k] = i + j\n\
       \    end\n\
       \  end\n\
        end")

let test_rejections () =
  let reject src =
    match C_emit.emit (Parser.parse_program src) with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "read rejected" true (reject "read(n)\nfor i = 1 to n do a[i] = 1 end");
  Alcotest.(check bool) "unbounded scalar subscript rejected" true
    (reject "t = 5\nread(t)\na[t] = 1" || reject "a[q] = 1");
  Alcotest.(check bool) "constant program accepted" false
    (reject "for i = 1 to 3 do a[i] = i end")

let test_fortran_loop_semantics () =
  require_gcc ();
  (* Last-executed value, zero-trip untouched, bounds evaluated once. *)
  check_against_interp "loop semantics"
    (Parser.parse_program
       "t = 7\n\
        for i = 5 to 1 do t = i end\n\
        for j = 1 to 4 do u = j end\n\
        m = 3\n\
        for k = 1 to m do m = 1 end");
  check_against_interp "negative indices"
    (Parser.parse_program "for i = 1 to 5 do a[0 - i] = i end")

(* ------------------------------------------------------------------ *)
(* Property: random affine nests through gcc                           *)
(* ------------------------------------------------------------------ *)

(* A failing case reports which step failed: the compiler or the run
   (status and stderr, via [C_step_failed]), or the final state (the
   differing lines). *)
let codegen_matches_interp ?openmp ?threads prog =
  QCheck.assume gcc_available;
  let prepared, parallel = parallel_flags prog in
  match C_emit.emit ~parallel prepared with
  | Error _ -> QCheck.assume_fail ()
  | Ok c_src ->
    let expected = C_emit.state_dump (fst (Interp.final_state prepared)) in
    let actual = compile_and_run ?openmp ?threads c_src in
    String.equal expected actual
    || QCheck.Test.fail_reportf "final state differs:@.%s@.--- source ---@.%s"
         (state_diff expected actual) c_src

let prop_codegen_matches_interp =
  QCheck.Test.make ~name:"generated C reproduces the interpreter state (gcc)"
    ~count:30 Test_support.Gen_ast.arb_affine_nest
    (fun prog -> codegen_matches_interp prog)

let prop_codegen_openmp_matches_interp =
  QCheck.Test.make
    ~name:"generated C with OpenMP (4 threads) reproduces the interpreter state"
    ~count:15 Test_support.Gen_ast.arb_affine_nest
    (fun prog -> codegen_matches_interp ~openmp:true ~threads:4 prog)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "codegen"
    [
      ( "unit",
        [
          Alcotest.test_case "kernels, sequential" `Quick test_kernels_sequential;
          Alcotest.test_case "kernels, openmp x4" `Quick test_kernels_openmp;
          Alcotest.test_case "pragma placement" `Quick test_pragma_placement;
          Alcotest.test_case "nested loop variables are private" `Quick
            test_nested_loop_variables_private;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "fortran loop semantics" `Quick test_fortran_loop_semantics;
        ] );
      ( "property",
        [ qt prop_codegen_matches_interp; qt prop_codegen_openmp_matches_interp ] );
    ]
