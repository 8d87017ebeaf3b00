(* The benchmark's in-process side (see perfbench/README.md).

   harness [--budget-steps N] COMMAND ...

   harness gen-perfect SHIFT COPIES DIR
     Write seed-shifted copies SHIFT .. SHIFT+COPIES-1 of each PERFECT
     program to DIR.
   harness gen-fuzz SEED START COUNT DIR
     Write fuzz programs START .. START+COUNT-1 of corpus SEED to DIR.
   harness reference OUT (--fuzz SEED START COUNT | FILE...)
     Certified reference verdicts, one JSON line per program.
   harness trace MODE OUT (--fuzz SEED START COUNT | FILE...)
     The traced per-layer pass; MODE is [fresh] (a memo per item) or
     [shared] (one live-shared memo). Writes the metrics as one JSON
     object to OUT and the spans to OUT.spans.json.
   harness open-store STORE OUT
     Time opening (and replaying) a copy of the durable store STORE.

   Every layer is timed from here, around calls into its public
   functions: the program itself carries no benchmark code. *)

open Dda_lang
open Dda_core

let budget_steps, args =
  match List.tl (Array.to_list Sys.argv) with
  | "--budget-steps" :: n :: rest -> (Some (int_of_string n), rest)
  | rest -> (None, rest)

(* The configuration [ddtest] runs under with the flags run.py passes:
   the defaults plus the per-query step budget. *)
let config =
  {
    Analyzer.default_config with
    limits = { Analyzer.default_config.limits with max_steps = budget_steps };
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type program = { name : string; text : string }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* Copies SHIFT .. SHIFT+COPIES-1 of the PERFECT suite. Copy [k] uses
   the seed shift that [Stream.of_perfect] gives its amplified copy
   [k]. *)
let gen_perfect ~shift ~copies dir =
  for k = shift to shift + copies - 1 do
    List.iter
      (fun (spec : Dda_perfect.Programs.spec) ->
        let text =
          Dda_perfect.Programs.source { spec with seed = spec.seed + (7919 * k) }
        in
        write_file
          (Filename.concat dir (Printf.sprintf "p%d-%s.dd" k spec.name))
          text)
      Dda_perfect.Programs.all
  done

(* The fuzz profile of every fuzz corpus the benchmark runs ([ddtest
   --fuzz-profile small]): tiny constant bounds, small enough for the
   exhaustive oracle of the reference pass. *)
let profile = Dda_perfect.Fuzz.Small

let fuzz_name ~seed i =
  Printf.sprintf "fuzz:%s:%d:%d" (Dda_perfect.Fuzz.profile_name profile) seed i

let gen_fuzz ~seed ~start ~count dir =
  for i = start to start + count - 1 do
    write_file
      (Filename.concat dir (Printf.sprintf "f%06d.dd" i))
      (Dda_perfect.Fuzz.program profile ~seed ~index:i)
  done

(* The corpus named on the command line: [--fuzz SEED START COUNT] is
   items START .. START+COUNT-1 of the corpus [ddtest batch --fuzz N
   --seed SEED] streams, anything else is a list of files (named by
   path, as [ddtest batch] does). *)
let corpus = function
  | [ "--fuzz"; seed; start; count ] ->
    let seed = int_of_string seed and start = int_of_string start in
    List.init (int_of_string count) (fun i ->
        let i = start + i in
        {
          name = fuzz_name ~seed i;
          text = Dda_perfect.Fuzz.program profile ~seed ~index:i;
        })
  | files -> List.map (fun f -> { name = f; text = read_file f }) files

let prepare program =
  let program =
    if config.Analyzer.run_pipeline then Dda_passes.Pipeline.run program
    else program
  in
  Analyzer.site_pairs config
    (Affine.extract ~symbolic:config.Analyzer.symbolic program)

(* ------------------------------------------------------------------ *)
(* Reference verdicts                                                  *)
(* ------------------------------------------------------------------ *)

(* Each program is analyzed with a memo of its own and certified by the
   independent checker: every witness and infeasibility certificate is
   replayed, and the exhaustive oracle runs where the iteration space
   is small. run.py compares every timed op's verdicts to these. *)
let reference out programs =
  Out_channel.with_open_bin out (fun oc ->
      List.iter
        (fun p ->
          let pairs = prepare (Parser.parse_program p.text) in
          let report = Analyzer.analyze_sites ~config pairs in
          let check =
            Dda_check.Verify.verify_report ~oracle:true ~config pairs report
          in
          let unknown =
            List.length
              (List.filter
                 (fun (r : Analyzer.pair_report) ->
                   match r.outcome with
                   | Analyzer.Tested t -> t.unknown
                   | Analyzer.Assumed_dependent -> true
                   | Analyzer.Constant _ | Analyzer.Gcd_independent -> false)
                 report.pair_reports)
          in
          Out_channel.output_string oc
            (Json_out.to_string
               (Json_out.Obj
                  [
                    ("name", Json_out.Str p.name);
                    ( "pairs",
                      Json_out.List (List.map Json_out.pair report.pair_reports)
                    );
                    ("certificates", Json_out.Int check.certificates);
                    ("errors", Json_out.Int check.errors);
                    ("unknown", Json_out.Int unknown);
                  ]));
          Out_channel.output_char oc '\n')
        programs)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* The layers, named after the modules whose public call each span
   wraps. [op] is the root span of one program; it is not a layer. A miss is two spans: [cache.miss] is
   the whole lookup, [core.memo.miss] the compute closure inside it,
   so the lookup's self time is the cache's own cost on a miss. *)
let span_names =
  [|
    "op";
    "lang.parse";
    "passes.pipeline";
    "core.extract";
    "core.pairs";
    "core.analyze";
    "core.memo.hit";
    "cache.miss";
    "core.memo.miss";
    "core.render";
  |]

let s_op = 0
let s_parse = 1
let s_pipeline = 2
let s_extract = 3
let s_pairs = 4
let s_analyze = 5
let s_hit = 6
let s_miss = 7
let s_compute = 8
let s_render = 9

(* Spans are kept in growable parallel arrays and only turned into
   self times after the pass, so recording one costs two clock reads
   and a few stores. *)
type spans = {
  mutable kind : int array;
  mutable op : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable len : int;
  mutable current : int;  (** the open span, -1 at top level *)
  mutable cur_op : int;
}

let spans () =
  let n = 1 lsl 16 in
  {
    kind = Array.make n 0;
    op = Array.make n 0;
    start = Array.make n 0;
    stop = Array.make n 0;
    parent = Array.make n 0;
    len = 0;
    current = -1;
    cur_op = 0;
  }

let grow s =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  s.kind <- g s.kind;
  s.op <- g s.op;
  s.start <- g s.start;
  s.stop <- g s.stop;
  s.parent <- g s.parent

let enter s kind =
  if s.len = Array.length s.kind then grow s;
  let i = s.len in
  s.len <- i + 1;
  s.kind.(i) <- kind;
  s.op.(i) <- s.cur_op;
  s.parent.(i) <- s.current;
  s.current <- i;
  s.start.(i) <- now_ns ();
  i

let leave s i kind =
  s.stop.(i) <- now_ns ();
  s.kind.(i) <- kind;
  s.current <- s.parent.(i)

let span s kind f =
  let i = enter s kind in
  match f () with
  | v ->
    leave s i kind;
    v
  | exception e ->
    leave s i kind;
    raise e

(* Self time per span kind: a span's duration minus its children's. *)
let self_times s =
  let self = Array.make (Array.length span_names) 0 in
  for i = 0 to s.len - 1 do
    let d = s.stop.(i) - s.start.(i) in
    self.(s.kind.(i)) <- self.(s.kind.(i)) + d;
    let p = s.parent.(i) in
    if p >= 0 then self.(s.kind.(p)) <- self.(s.kind.(p)) - d
  done;
  self

let op_durations s =
  let acc = ref [] in
  for i = s.len - 1 downto 0 do
    if s.kind.(i) = s_op then acc := (s.stop.(i) - s.start.(i)) :: !acc
  done;
  !acc

(* Chrome trace-event JSON: loadable in chrome://tracing or Perfetto. *)
let write_spans path s =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "{\"traceEvents\":[\n";
      let t0 = if s.len > 0 then s.start.(0) else 0 in
      for i = 0 to s.len - 1 do
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d}}\n"
          (if i = 0 then "" else ",")
          span_names.(s.kind.(i))
          (float_of_int (s.start.(i) - t0) /. 1e3)
          (float_of_int (s.stop.(i) - s.start.(i)) /. 1e3)
          s.op.(i) s.parent.(i)
      done;
      Out_channel.output_string oc "]}\n")

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable lookups : int;
  mutable hits : int;
  mutable pairs : int;
  mutable render_bytes : int;
  stage_calls : int array;
  stage_ns : int array;
}

let counts () =
  let n = List.length Dda_obs.Attrib.all_stages in
  {
    lookups = 0;
    hits = 0;
    pairs = 0;
    render_bytes = 0;
    stage_calls = Array.make n 0;
    stage_ns = Array.make n 0;
  }

(* The analyzer's public cache record, with a span around every lookup
   and around every compute closure. *)
let traced_cache s c (cache : Analyzer.cache) =
  let wrap find key compute =
    c.lookups <- c.lookups + 1;
    let i = enter s s_miss in
    let computed = ref false in
    let value, hit =
      find key (fun () ->
          computed := true;
          span s s_compute compute)
    in
    leave s i (if !computed then s_miss else s_hit);
    if hit then c.hits <- c.hits + 1;
    (value, hit)
  in
  {
    cache with
    Analyzer.find_or_add_gcd = (fun k f -> wrap cache.find_or_add_gcd k f);
    find_or_add_full = (fun k f -> wrap cache.find_or_add_full k f);
  }

(* One op rendered as [ddtest batch --format json] prints it. *)
let render_op name (report : Analyzer.report) =
  Json_out.to_string
    (Json_out.Obj [ ("file", Json_out.Str name); ("report", Json_out.report report) ])

(* One pass over the corpus on this domain. [cache_for] gives the memo
   each op runs against. With [trace], spans and counts are recorded
   and every analysis runs in an attribution window. *)
let pass ?trace ~cache_for programs =
  List.iteri
    (fun k p ->
      match trace with
      | None ->
        let pairs = prepare (Parser.parse_program p.text) in
        let report = Analyzer.analyze_sites ~config ~cache:(cache_for ()) pairs in
        ignore (Sys.opaque_identity (render_op p.name report))
      | Some (s, c) ->
        s.cur_op <- k;
        span s s_op (fun () ->
            let prog = span s s_parse (fun () -> Parser.parse_program p.text) in
            let prog =
              span s s_pipeline (fun () -> Dda_passes.Pipeline.run prog)
            in
            let sites =
              span s s_extract (fun () ->
                  Affine.extract ~symbolic:config.Analyzer.symbolic prog)
            in
            let pairs =
              span s s_pairs (fun () -> Analyzer.site_pairs config sites)
            in
            c.pairs <- c.pairs + List.length pairs;
            let report, snap =
              span s s_analyze (fun () ->
                  Dda_obs.Attrib.collect (fun () ->
                      Analyzer.analyze_sites ~config
                        ~cache:(traced_cache s c (cache_for ()))
                        pairs))
            in
            List.iteri
              (fun j (_, (st : Dda_obs.Attrib.stage_stat)) ->
                c.stage_calls.(j) <- c.stage_calls.(j) + st.calls;
                c.stage_ns.(j) <- c.stage_ns.(j) + st.ns)
              snap.stages;
            let out = span s s_render (fun () -> render_op p.name report) in
            c.render_bytes <- c.render_bytes + String.length out))
    programs

type mode = Fresh | Shared

(* A fresh memo source for one pass: the memo tables never carry over
   from one pass to the next, so every pass does the same work. *)
let memo = function
  | Fresh -> fun () -> Analyzer.memory_cache ()
  | Shared ->
    let shared = Analyzer.shared_cache (Analyzer.create_shared ()) in
    fun () -> Analyzer.counted_cache shared

(* [Durable.create] on a copy of the store a daemon left behind, timed. *)
let open_store store out =
  let path = store ^ ".open" in
  write_file path (read_file store);
  let t0 = now_ns () in
  let durable, recovery = Dda_cache.Durable.create ~path ~fsync:true ~config () in
  let open_ns = now_ns () - t0 in
  let records =
    match recovery with Some (r : Dda_cache.Store.recovery) -> r.records | None -> 0
  in
  Dda_cache.Durable.close durable;
  Sys.remove path;
  write_file out
    (Printf.sprintf "{\"cache.open_ms\":%.6f,\"cache.records_replayed\":%d}\n"
       (float_of_int open_ns /. 1e6)
       records)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let wall f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) /. 1e9)

(* [Stream.run] over the corpus at [jobs], rendering items as the CLI
   does and discarding them: the engine's own wall time. *)
let stream_seconds ~share_memo ~jobs programs =
  let rest = ref programs in
  let source () =
    match !rest with
    | [] -> None
    | p :: tl ->
      rest := tl;
      Some { Dda_engine.Stream.name = p.name; text = (fun () -> p.text) }
  in
  let render = function
    | Dda_engine.Stream.Analyzed a -> render_op a.name a.report
    | Dda_engine.Stream.Quarantined q -> failwith ("quarantined: " ^ q.error)
  in
  snd
    (wall (fun () ->
         Dda_engine.Stream.run ~config ~share_memo ~jobs ~render
           ~emit:ignore source))

(* An untraced pass: its wall time, and the allocation it did, which
   repeats exactly from pass to pass on one domain. *)
let plain_pass mode programs =
  let cache_for = memo mode in
  Gc.full_major ();
  let g0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let (), secs = wall (fun () -> pass ~cache_for programs) in
  (* The domain's counters are exact only at a collection boundary. *)
  Gc.minor ();
  let g1 = Gc.quick_stat () and a1 = Gc.allocated_bytes () in
  ( secs,
    ( a1 -. a0,
      g1.minor_collections - g0.minor_collections,
      g1.major_collections - g0.major_collections ) )

let traced_pass mode s programs =
  let cache_for = memo mode in
  let c = counts () in
  Gc.full_major ();
  let (), secs = wall (fun () -> pass ~trace:(s, c) ~cache_for programs) in
  (secs, (s, c))

let trace mode out programs =
  Dda_obs.Attrib.set_time_source now_ns;
  (* Untraced and traced passes in pairs, alternating which goes first;
     the overhead is the median of the paired ratios, which cancels
     drift in the machine's speed. *)
  let rounds = 5 in
  (* The span buffers exist before the first pass, so that every pass,
     traced or not, runs against the same heap. *)
  let buffers = Array.init rounds (fun _ -> spans ()) in
  (* A warm-up pass first: one-time initialisation allocates, and the
     heap grows to its working size. *)
  ignore (plain_pass mode programs);
  let pairs =
    List.init rounds (fun r ->
        let p () = plain_pass mode programs in
        let t () = traced_pass mode buffers.(r) programs in
        if r mod 2 = 0 then
          let a = p () in
          (a, t ())
        else
          let b = t () in
          (p (), b))
  in
  let overhead =
    median
      (List.map (fun ((p, _), (t, _)) -> 100. *. ((t /. p) -. 1.)) pairs)
  in
  let _, (alloc, minor, major) = fst (List.hd pairs) in
  (* Layer figures come from the traced pass with the median wall. *)
  let traced_wall, (s, c) =
    List.nth
      (List.sort (fun (a, _) (b, _) -> compare a b) (List.map snd pairs))
      (rounds / 2)
  in
  write_spans (out ^ ".spans.json") s;
  let self = self_times s in
  let cascade_ns = Array.fold_left ( + ) 0 c.stage_ns in
  (* Every stage runs inside a compute closure: take it out of the
     closure's self time so that each nanosecond has one owner. *)
  self.(s_compute) <- self.(s_compute) - cascade_ns;
  let ms ns = float_of_int ns /. 1e6 in
  let layer_ns =
    Array.fold_left ( + ) cascade_ns (Array.sub self 1 (Array.length self - 1))
  in
  let ops = op_durations s in
  let sorted = List.sort (fun a b -> compare b a) ops in
  let top = max 1 (List.length ops / 100) in
  let top_ns = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < top) sorted) in
  let all_ns = List.fold_left ( + ) 0 ops in
  let share_memo = mode = Shared in
  let engine =
    List.init 3 (fun _ ->
        let one = stream_seconds ~share_memo ~jobs:1 programs in
        (one, stream_seconds ~share_memo ~jobs:2 programs))
  in
  let jobs1 = median (List.map fst engine) and jobs2 = median (List.map snd engine) in
  let f x = Printf.sprintf "%.6f" x and i = string_of_int in
  let metrics =
    [
      ("lang.parse_ms", f (ms self.(s_parse)));
      ("passes.pipeline_ms", f (ms self.(s_pipeline)));
      ("core.extract_ms", f (ms self.(s_extract)));
      ("core.pairs_ms", f (ms self.(s_pairs)));
      ("core.pairs", i c.pairs);
      ("core.analyze_ms", f (ms self.(s_analyze)));
      ("core.memo.lookups", i c.lookups);
      ("core.memo.hits", i c.hits);
      ( "core.memo.hit_ratio",
        f (if c.lookups = 0 then 0. else float c.hits /. float c.lookups) );
      ("core.memo.hit_ms", f (ms self.(s_hit)));
      ("core.memo.miss_ms", f (ms self.(s_compute)));
    ]
    @ List.concat
        (List.mapi
           (fun j st ->
             let n = "core.cascade." ^ Dda_obs.Attrib.stage_name st in
             [ (n ^ ".calls", i c.stage_calls.(j)); (n ^ ".ms", f (ms c.stage_ns.(j))) ])
           Dda_obs.Attrib.all_stages)
    @ [
        ("core.render_ms", f (ms self.(s_render)));
        ("core.render_bytes", i c.render_bytes);
        ("engine.speedup", f (jobs1 /. jobs2));
        ("engine.tail_top1pct_share", f (float top_ns /. float (max 1 all_ns)));
        ("cache.miss_overhead_ms", f (ms self.(s_miss)));
        ("runtime.alloc_mb", f (alloc /. 1048576.));
        ("runtime.minor_gcs", i minor);
        ("runtime.major_gcs", i major);
        ("obs.trace_overhead_pct", f overhead);
        ("obs.layer_coverage_pct", f (100. *. ms layer_ns /. (traced_wall *. 1e3)));
        ("obs.traced_wall_ms", f (traced_wall *. 1e3));
        ("obs.ops", i (List.length programs));
      ]
  in
  write_file out
    ("{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) metrics)
    ^ "}\n")

let () =
  match args with
  | [ "gen-perfect"; shift; copies; dir ] ->
    gen_perfect ~shift:(int_of_string shift) ~copies:(int_of_string copies) dir
  | [ "gen-fuzz"; seed; start; count; dir ] ->
    gen_fuzz ~seed:(int_of_string seed) ~start:(int_of_string start)
      ~count:(int_of_string count) dir
  | "reference" :: out :: rest -> reference out (corpus rest)
  | [ "open-store"; store; out ] -> open_store store out
  | "trace" :: mode :: out :: rest ->
    let mode =
      match mode with
      | "fresh" -> Fresh
      | "shared" -> Shared
      | _ -> failwith ("unknown mode " ^ mode)
    in
    trace mode out (corpus rest)
  | _ ->
    prerr_endline "usage: see the comment at the top of perfbench/harness/harness.ml";
    exit 2
