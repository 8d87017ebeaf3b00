(* The payoff pipeline end to end: analyze a kernel, prove loops
   parallel, and emit C where those loops carry OpenMP pragmas.
   (The test suite actually compiles this output with gcc -fopenmp and
   checks the 4-thread execution against the reference interpreter.)

   Run with: dune exec examples/compile_to_c.exe *)

open Dda_lang
open Dda_core

let () =
  let kernel = Option.get (Dda_perfect.Kernels.find "matmul") in
  print_endline ("# kernel: " ^ kernel.name);
  print_endline kernel.source;
  let { Analyzer.program = prog; sites; pairs } =
    Analyzer.prepare Analyzer.default_config (Parser.parse_program kernel.source)
  in
  let report = Analyzer.analyze_sites pairs in
  let parallel = Analyzer.parallel_loops report sites in
  let names = Affine.loop_table sites in
  List.iter
    (fun (lid, p) ->
       Printf.printf "# loop %s: %s\n"
         (Option.value (List.assoc_opt lid names) ~default:"?")
         (if p then "parallel -> pragma" else "serial"))
    parallel;
  print_newline ();
  match Dda_codegen.C_emit.emit ~parallel prog with
  | Ok c -> print_string c
  | Error reason -> prerr_endline ("codegen rejected: " ^ reason)
