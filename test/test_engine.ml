(* The parallel batch engine: the domain pool's scheduling and failure
   behavior, the memo/stats merge APIs, the paper's hash function, and
   the batch driver's determinism guarantee — analyzing a corpus on N
   domains is byte-identical to the sequential path for every N. *)

open Dda_core
open Dda_engine

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_basic () =
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check int) "size" 4 (Pool.size pool);
  Alcotest.(check int) "run" 42 (Pool.run pool (fun () -> 6 * 7));
  Pool.shutdown pool

let test_pool_many_tasks () =
  (* Hundreds of tiny tasks all complete, and [map] restores input
     order whatever order the workers finished in. *)
  let pool = Pool.create ~jobs:4 in
  let inputs = List.init 500 Fun.id in
  let results = Pool.map pool (fun i -> i * i) inputs in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun i -> i * i) inputs)
    results

let test_pool_exception_propagates () =
  let pool = Pool.create ~jobs:2 in
  let boom = Pool.submit pool (fun () -> failwith "boom") in
  let fine = Pool.submit pool (fun () -> 1) in
  Alcotest.check_raises "task exception reaches the caller" (Failure "boom")
    (fun () -> ignore (Pool.await boom));
  Alcotest.(check int) "other task unaffected" 1 (Pool.await fine);
  (* The worker that ran the failing task survives: the pool still
     drains new work. *)
  Alcotest.(check (list int)) "pool usable after a failure" [ 0; 2; 4 ]
    (Pool.map pool (fun i -> 2 * i) [ 0; 1; 2 ]);
  Pool.shutdown pool

let test_pool_jobs1_sequential () =
  (* A single worker pops a FIFO queue: tasks run in submission order. *)
  let pool = Pool.create ~jobs:1 in
  let log = ref [] in
  let promises =
    List.init 100 (fun i ->
        Pool.submit pool (fun () ->
            log := i :: !log;
            i))
  in
  let results = List.map Pool.await promises in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "results" (List.init 100 Fun.id) results;
  Alcotest.(check (list int)) "executed in submission order"
    (List.init 100 Fun.id)
    (List.rev !log)

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:3 in
  (* Queued tasks finish before the workers are joined. *)
  let promises = List.init 50 (fun i -> Pool.submit pool (fun () -> i + 1)) in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "queued work completed before join"
    (List.init 50 (fun i -> i + 1))
    (List.map Pool.await promises);
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: the pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())));
  Alcotest.check_raises "jobs must not be negative"
    (Invalid_argument "Pool.create: jobs must be >= 0") (fun () ->
      ignore (Pool.create ~jobs:(-1)))

(* The zero-worker pool: no domain is spawned, an awaited task runs on
   the awaiting domain, and shutdown runs what nobody awaited. *)
let test_pool_zero_workers_on_caller () =
  let pool = Pool.create ~jobs:0 in
  Alcotest.(check int) "size" 0 (Pool.size pool);
  let self = (Domain.self () :> int) in
  let log = ref [] in
  let promises =
    List.init 20 (fun i ->
        Pool.submit pool (fun () ->
            log := i :: !log;
            (Domain.self () :> int)))
  in
  Alcotest.(check (list int)) "nothing runs before it is awaited" [] !log;
  Alcotest.(check (list int)) "every task ran on the awaiting domain"
    (List.init 20 (fun _ -> self))
    (List.map Pool.await promises);
  Alcotest.(check (list int)) "in await order" (List.init 20 Fun.id)
    (List.rev !log);
  Alcotest.(check int) "a second await returns the stored value" self
    (Pool.await (List.hd promises));
  Alcotest.(check int) "run" 42 (Pool.run pool (fun () -> 6 * 7));
  Alcotest.(check (list int)) "map keeps input order" [ 0; 2; 4 ]
    (Pool.map pool (fun i -> 2 * i) [ 0; 1; 2 ]);
  Pool.shutdown pool

let zero_worker_raise () : int = raise (Failure "zero-worker boom")
[@@inline never]

let test_pool_zero_workers_exception () =
  Printexc.record_backtrace true;
  let pool = Pool.create ~jobs:0 in
  let p = Pool.submit pool zero_worker_raise in
  (match Pool.await p with
   | _ -> Alcotest.fail "the task's exception was swallowed"
   | exception Failure msg ->
     let bt = Printexc.get_raw_backtrace () in
     Alcotest.(check string) "message" "zero-worker boom" msg;
     (* The innermost frame is the task's raise, not [await]'s
        re-raise: the original backtrace travelled with the exception. *)
     let innermost =
       Option.bind (Printexc.backtrace_slots bt) (fun slots ->
           Array.to_seq slots
           |> Seq.find_map (fun slot ->
               Option.map
                 (fun l -> l.Printexc.filename)
                 (Printexc.Slot.location slot)))
     in
     Alcotest.(check (option string))
       (Printf.sprintf "innermost frame of\n%s"
          (Printexc.raw_backtrace_to_string bt))
       (Some "test/test_engine.ml") innermost);
  Alcotest.check_raises "re-raised on every await"
    (Failure "zero-worker boom") (fun () -> ignore (Pool.await p));
  Alcotest.(check int) "the pool still runs tasks" 7
    (Pool.run pool (fun () -> 7));
  Pool.shutdown pool

let test_pool_zero_workers_shutdown_drains () =
  let pool = Pool.create ~jobs:0 in
  let ran = ref [] in
  let promises =
    List.init 5 (fun i ->
        Pool.submit pool (fun () ->
            ran := i :: !ran;
            i * 10))
  in
  Alcotest.(check int) "awaited one" 0 (Pool.await (List.hd promises));
  Pool.shutdown pool;
  Alcotest.(check (list int)) "shutdown ran every still-queued task once"
    [ 0; 1; 2; 3; 4 ] (List.rev !ran);
  Alcotest.(check (list int)) "their results are stored"
    [ 0; 10; 20; 30; 40 ]
    (List.map Pool.await promises);
  Alcotest.(check (list int)) "awaiting after shutdown runs nothing again"
    [ 0; 1; 2; 3; 4 ] (List.rev !ran);
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: the pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

let test_pool_stress_mixed_failures () =
  (* A pool bombarded with interleaved failing and succeeding tasks
     keeps every promise straight. *)
  let pool = Pool.create ~jobs:4 in
  let promises =
    List.init 300 (fun i ->
        (i, Pool.submit pool (fun () -> if i mod 7 = 0 then failwith "die" else i)))
  in
  List.iter
    (fun (i, p) ->
       if i mod 7 = 0 then
         Alcotest.check_raises (Printf.sprintf "task %d fails" i) (Failure "die")
           (fun () -> ignore (Pool.await p))
       else Alcotest.(check int) (Printf.sprintf "task %d" i) i (Pool.await p))
    promises;
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Stats merging, carried caches and the paper's hash                  *)
(* ------------------------------------------------------------------ *)

let prop_hash_formula =
  (* hash_key agrees with the paper's h(x) = size(x) + sum 2^i x_i on
     every key, including permuted variants of the same multiset (the
     formula is position-dependent by design, so a permutation hashes
     through the same formula, not to the same value). *)
  let formula key =
    (* Independent rendering of h(x) = size(x) + sum 2^i x_i, with the
       same native wrapping arithmetic the table uses (2^i wraps to 0
       past the word size, so long keys stay deterministic too). *)
    let h, _ =
      List.fold_left
        (fun (h, p) x -> (h + (p * x), p * 2))
        (List.length key, 1)
        key
    in
    h land max_int
  in
  QCheck.Test.make ~name:"hash_key matches the paper's formula" ~count:500
    QCheck.(pair (list (int_range (-8) 8)) (list small_int))
    (fun (key, shuffle_seed) ->
       (* A cheap deterministic permutation driven by the second list. *)
       let permuted =
         List.map snd
           (List.sort compare
              (List.mapi
                 (fun i x ->
                    ((List.nth_opt shuffle_seed (i mod max 1 (List.length shuffle_seed))
                      |> Option.value ~default:0)
                     + i * 7919 mod 101, x))
                 key))
       in
       Memo_table.hash_key (Array.of_list key) = formula key
       && Memo_table.hash_key (Array.of_list permuted) = formula permuted)

(* ------------------------------------------------------------------ *)
(* Sharded_table                                                       *)
(* ------------------------------------------------------------------ *)

let test_sharded_basic () =
  let t = Sharded_table.create ~stripes:5 () in
  Alcotest.(check int) "stripes rounded up to a power of two" 8
    (Sharded_table.stripes t);
  let v, hit = Sharded_table.find_or_add t [| 1; 2 |] (fun () -> "a") in
  Alcotest.(check (pair string bool)) "miss computes" ("a", false) (v, hit);
  let v, hit = Sharded_table.find_or_add t [| 1; 2 |] (fun () -> "BUG") in
  Alcotest.(check (pair string bool)) "hit returns stored" ("a", true) (v, hit);
  Alcotest.(check (option string)) "find" (Some "a")
    (Sharded_table.find t [| 1; 2 |]);
  Sharded_table.add t [| 1; 2 |] "b";
  Alcotest.(check (option string)) "add replaces" (Some "b")
    (Sharded_table.find t [| 1; 2 |]);
  Alcotest.(check int) "replace keeps one binding" 1 (Sharded_table.length t);
  Alcotest.check_raises "raising compute stores nothing" (Failure "boom")
    (fun () -> ignore (Sharded_table.find_or_add t [| 7 |] (fun () -> failwith "boom")));
  Alcotest.(check (option string)) "nothing cached after raise" None
    (Sharded_table.find t [| 7 |])

let test_sharded_stats_aggregate () =
  let t = Sharded_table.create ~stripes:4 () in
  for i = 0 to 199 do
    ignore (Sharded_table.find_or_add t [| i; i * 3 |] (fun () -> i))
  done;
  for i = 0 to 99 do
    ignore (Sharded_table.find_or_add t [| i; i * 3 |] (fun () -> -1))
  done;
  let st = Sharded_table.stats t in
  Alcotest.(check int) "size sums stripes" 200 st.Memo_table.size;
  Alcotest.(check int) "size agrees with length" (Sharded_table.length t)
    st.Memo_table.size;
  Alcotest.(check int) "lookups" 300 st.Memo_table.lookups;
  Alcotest.(check int) "hits" 100 st.Memo_table.hits;
  let seen = ref 0 in
  Sharded_table.iter (fun k v -> if k.(0) = v then incr seen) t;
  Alcotest.(check int) "iter visits every binding" 200 !seen;
  Sharded_table.reset_counters t;
  let st = Sharded_table.stats t in
  Alcotest.(check (pair int int)) "counters reset, bindings kept" (0, 0)
    (st.Memo_table.lookups, st.Memo_table.hits);
  Alcotest.(check int) "bindings kept" 200 (Sharded_table.length t)

let test_sharded_across_domains () =
  (* Four domains hammer one table over an overlapping key space. Every
     lookup must come back with the value the key's compute produces
     (computes are deterministic functions of the key), the final size
     must be the distinct-key count, and the lookup total must be
     jobs-invariant: one count per find_or_add whatever the timing. *)
  let t = Sharded_table.create ~stripes:8 () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for round = 0 to 49 do
              for k = 0 to 24 do
                let key = [| k; k * k; (d + round) mod 3 |] in
                let expect = key.(0) + key.(1) + key.(2) in
                let v, _ = Sharded_table.find_or_add t key (fun () -> expect) in
                if v <> expect then ok := false
              done
            done;
            !ok))
  in
  let oks = List.map Domain.join domains in
  Alcotest.(check (list bool)) "every domain saw consistent values"
    [ true; true; true; true ] oks;
  Alcotest.(check int) "distinct keys stored once" (25 * 3)
    (Sharded_table.length t);
  let st = Sharded_table.stats t in
  Alcotest.(check int) "lookup total is jobs-invariant" (4 * 50 * 25)
    st.Memo_table.lookups;
  (* Hits can lag lookups by at most the racy duplicate computes; they
     can never exceed lookups - distinct keys. *)
  Alcotest.(check bool) "hits bounded" true
    (st.Memo_table.hits <= st.Memo_table.lookups - Sharded_table.length t);
  Alcotest.(check bool) "contention counter is sane" true
    (Sharded_table.contended t >= 0)

(* ------------------------------------------------------------------ *)
(* Stats merge                                                         *)
(* ------------------------------------------------------------------ *)

let parse = Dda_lang.Parser.parse_program

let test_merge_stats () =
  let p1 = parse "for i = 1 to 10 do\n  a[i + 1] = a[i] + 1\nend" in
  let p2 = parse "for i = 1 to 8 do\n  b[2 * i] = b[i] + 1\nend" in
  let r1 = Analyzer.analyze p1 and r2 = Analyzer.analyze p2 in
  let merged = Analyzer.fresh_stats () in
  Analyzer.merge_stats ~into:merged r1.Analyzer.stats;
  Analyzer.merge_stats ~into:merged r2.Analyzer.stats;
  let s1 = r1.Analyzer.stats and s2 = r2.Analyzer.stats in
  Alcotest.(check int) "pairs" (s1.Analyzer.pairs + s2.Analyzer.pairs)
    merged.Analyzer.pairs;
  Alcotest.(check int) "dependent"
    (s1.Analyzer.dependent_pairs + s2.Analyzer.dependent_pairs)
    merged.Analyzer.dependent_pairs;
  Alcotest.(check int) "independent"
    (s1.Analyzer.independent_pairs + s2.Analyzer.independent_pairs)
    merged.Analyzer.independent_pairs;
  Alcotest.(check int) "memo lookups"
    (s1.Analyzer.memo_lookups_full + s2.Analyzer.memo_lookups_full)
    merged.Analyzer.memo_lookups_full;
  Alcotest.(check int) "dir counts svpc"
    (s1.Analyzer.dir_counts.Direction.by_test.(0)
     + s2.Analyzer.dir_counts.Direction.by_test.(0))
    merged.Analyzer.dir_counts.Direction.by_test.(0)

(* One memory cache carried across three programs holds the union of
   their problems: the cross-compilation table of the paper. *)
let test_carried_cache_unions () =
  let config = Analyzer.default_config in
  let p1 = parse "for i = 1 to 10 do\n  a[i + 1] = a[i] + 1\nend" in
  let p2 = parse "for i = 1 to 10 do\n  b[i + 1] = b[i] + 2\nend" in
  let p3 = parse "for i = 1 to 8 do\n  c[2 * i] = c[i] + 1\nend" in
  let full_entries (c : Analyzer.cache) =
    (snd (c.Analyzer.cache_stats ())).Memo_table.size
  in
  let alone p =
    let c = Analyzer.memory_cache () in
    ignore (Analyzer.analyze ~config ~cache:c p);
    full_entries c
  in
  let carried = Analyzer.memory_cache () in
  List.iter (fun p -> ignore (Analyzer.analyze ~config ~cache:carried p)) [ p1; p2; p3 ];
  let union = full_entries carried in
  Alcotest.(check bool) "union at least as large as each program" true
    (List.for_all (fun p -> union >= alone p) [ p1; p2; p3 ]);
  (* p1 and p2 key identically (names are not part of the key), so the
     union must be strictly smaller than the sum. *)
  Alcotest.(check bool) "union deduplicates shared problems" true
    (union < alone p1 + alone p2 + alone p3);
  let r = Analyzer.analyze ~config ~cache:carried p3 in
  Alcotest.(check int) "every pair of p3 now hits"
    r.Analyzer.stats.Analyzer.memo_lookups_full
    r.Analyzer.stats.Analyzer.memo_hits_full

(* ------------------------------------------------------------------ *)
(* The batch driver                                                    *)
(* ------------------------------------------------------------------ *)

let corpus_of_programs = Test_support.Collect.of_programs
let run = Test_support.Collect.run

(* Render everything a batch run reports — per-item verdicts, direction
   vectors, distances and merged statistics — to one canonical string. *)
let fingerprint reports merged =
  String.concat "\n"
    (List.map
       (fun (name, report) ->
          name ^ " " ^ Json_out.to_string (Json_out.report report))
       reports)
  ^ "\n" ^ Json_out.to_string (Json_out.stats merged)

let test_batch_empty_and_small () =
  let summary, outcomes = run ~jobs:4 [] in
  Alcotest.(check int) "empty corpus" 0 (List.length outcomes);
  Alcotest.(check int) "no pairs" 0 summary.Stream.merged.Analyzer.pairs;
  let one =
    corpus_of_programs [ parse "for i = 1 to 9 do\n  a[i + 1] = a[i] + 1\nend" ]
  in
  let _, outcomes = run ~jobs:8 one in
  Alcotest.(check int) "one item, more jobs than items" 1
    (List.length (Test_support.Collect.reports outcomes));
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Stream.run: jobs must be >= 1") (fun () ->
      ignore (run ~jobs:0 one))

let arb_corpus =
  QCheck.make
    ~print:(fun progs ->
      String.concat "\n---\n" (List.map Dda_lang.Pretty.program_to_string progs))
    QCheck.Gen.(list_size (int_range 2 5) (QCheck.gen Test_support.Gen_ast.arb_affine_nest))

let prop_batch_deterministic =
  (* The issue's headline property: on random corpora of affine nests,
     batch output (verdicts, direction vectors, merged stats) is
     identical for jobs in {1, 2, 4} and byte-identical to the
     sequential path. *)
  QCheck.Test.make ~name:"batch output invariant under the job count" ~count:20
    arb_corpus
    (fun programs ->
       let corpus = corpus_of_programs programs in
       let sequential =
         (* The sequential path, no driver involved. *)
         let reports =
           List.map
             (fun (name, text) -> (name, Analyzer.analyze (parse text)))
             corpus
         in
         let merged = Analyzer.fresh_stats () in
         List.iter
           (fun (_, r) -> Analyzer.merge_stats ~into:merged r.Analyzer.stats)
           reports;
         fingerprint reports merged
       in
       List.for_all
         (fun jobs ->
            let summary, outcomes = run ~jobs corpus in
            fingerprint (Test_support.Collect.reports outcomes)
              summary.Stream.merged
            = sequential)
         [ 1; 2; 4 ])

let prop_batch_share_memo_verdicts =
  (* Shared-memo mode may change memo counters but never verdicts,
     direction vectors or distances. *)
  QCheck.Test.make ~name:"shared-memo batch preserves all verdicts" ~count:15
    arb_corpus
    (fun programs ->
       let corpus = corpus_of_programs programs in
       let pairs_only (_, outcomes) =
         List.map
           (fun (_, r) -> List.map Json_out.pair r.Analyzer.pair_reports)
           (Test_support.Collect.reports outcomes)
       in
       let isolated = pairs_only (run ~jobs:1 corpus) in
       List.for_all
         (fun jobs -> pairs_only (run ~share_memo:true ~jobs corpus) = isolated)
         [ 1; 3 ])

(* The live-shared tables' distinct-problem counts, (gcd, full). *)
let uniques (summary : Stream.summary) =
  match summary.Stream.memo_tables with
  | Some (gcd, full) -> (gcd.Memo_table.size, full.Memo_table.size)
  | None -> Alcotest.fail "share_memo run without memo_tables"

let prop_batch_live_jobs_invariant =
  (* The live-sharing oracle: at 2 and 4 jobs the shared tables are
     queried by several domains at once, yet every per-item report
     (verdicts, direction vectors, distances) is byte-identical to the
     one-job run, and so are the distinct-problem counts. Only who hits
     depends on scheduling. *)
  QCheck.Test.make ~name:"live-shared multi-job runs equal one job"
    ~count:15 arb_corpus
    (fun programs ->
       let corpus = corpus_of_programs programs in
       let reports_bytes outcomes =
         String.concat "\n"
           (List.map
              (fun (name, r) ->
                 name ^ " "
                 ^ String.concat ";"
                     (List.map
                        (fun p -> Json_out.to_string (Json_out.pair p))
                        r.Analyzer.pair_reports))
              (Test_support.Collect.reports outcomes))
       in
       let solo, solo_outcomes = run ~share_memo:true ~jobs:1 corpus in
       List.for_all
         (fun jobs ->
            let live, outcomes = run ~share_memo:true ~jobs corpus in
            reports_bytes outcomes = reports_bytes solo_outcomes
            && uniques live = uniques solo)
         [ 2; 4 ])

let test_batch_share_memo_unique_counts () =
  (* Two copies of the same program: whichever domain analyzes each
     copy, the shared tables hold each distinct problem once. *)
  let prog = parse "for i = 1 to 10 do\n  a[i + 2] = a[i] + 1\nend" in
  let corpus = corpus_of_programs [ prog; prog ] in
  let solo, _ = run ~share_memo:true ~jobs:1 (corpus_of_programs [ prog ]) in
  let r1, _ = run ~share_memo:true ~jobs:1 corpus in
  let r2, _ = run ~share_memo:true ~jobs:2 corpus in
  Alcotest.(check int) "jobs=1: second copy adds no unique problems"
    (snd (uniques solo)) (snd (uniques r1));
  Alcotest.(check int) "jobs=2: domains share one table"
    (snd (uniques solo)) (snd (uniques r2));
  Alcotest.(check int) "jobs=1: summed per-item misses agree"
    (snd (uniques solo)) r1.Stream.merged.Analyzer.memo_unique_full

(* At [--jobs 1] the pool runs without a worker domain; a failure of
   the pool job itself (outside per-item isolation) must still
   quarantine, with attempts 0, exactly as on a worker. *)
let with_failpoint spec f =
  Failpoint.set spec;
  Fun.protect ~finally:Failpoint.clear f

let test_batch_jobs1_pool_job_failure () =
  (* The in-memory sink [ddtest batch] collects outcomes with. *)
  let corpus =
    [
      ("p0", "for i = 1 to 9 do\n  a[i + 1] = a[i] + 1\nend");
      ("p1", "for i = 1 to 9 do\n  b[2 * i] = b[2 * i + 1]\nend");
    ]
  in
  let summary, outcomes =
    with_failpoint "pool.job=raise@1-2" (fun () -> run ~jobs:1 corpus)
  in
  Alcotest.(check int) "both quarantined" 2 summary.Stream.quarantined;
  Alcotest.(check (list (pair string int)))
    "every item quarantined, attempts 0" [ ("p0", 0); ("p1", 0) ]
    (List.map
       (function
         | Stream.Quarantined q -> (q.name, q.attempts)
         | Stream.Analyzed a -> (a.name, -1))
       outcomes)

let test_stream_jobs1_pool_job_failure () =
  let outcomes = ref [] in
  let summary =
    with_failpoint "pool.job=raise@2" (fun () ->
        Stream.run ~jobs:1
          ~render:(fun o ->
            outcomes := o :: !outcomes;
            "")
          ~emit:ignore
          (Stream.of_fuzz ~profile:Dda_perfect.Fuzz.Small ~seed:5 4))
  in
  Alcotest.(check int) "one quarantined" 1 summary.Stream.quarantined;
  Alcotest.(check (list string))
    "only the second item, attempts 0"
    [ "analyzed"; "quarantined after 0"; "analyzed"; "analyzed" ]
    (List.rev_map
       (function
         | Stream.Analyzed _ -> "analyzed"
         | Stream.Quarantined q ->
           Printf.sprintf "quarantined after %d" q.attempts)
       !outcomes)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "basic" `Quick test_pool_basic;
          Alcotest.test_case "many tasks, input order" `Quick test_pool_many_tasks;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "jobs=1 is in-order sequential" `Quick
            test_pool_jobs1_sequential;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "jobs=0 runs tasks on the awaiting domain" `Quick
            test_pool_zero_workers_on_caller;
          Alcotest.test_case "jobs=0 re-raises with the backtrace" `Quick
            test_pool_zero_workers_exception;
          Alcotest.test_case "jobs=0 shutdown drains queued tasks" `Quick
            test_pool_zero_workers_shutdown_drains;
          Alcotest.test_case "stress with mixed failures" `Quick
            test_pool_stress_mixed_failures;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge_stats sums fields" `Quick test_merge_stats;
          Alcotest.test_case "carried cache unions tables" `Quick
            test_carried_cache_unions;
          qt prop_hash_formula;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "basic protocol" `Quick test_sharded_basic;
          Alcotest.test_case "stats aggregate stripes" `Quick
            test_sharded_stats_aggregate;
          Alcotest.test_case "shared across four domains" `Quick
            test_sharded_across_domains;
        ] );
      ( "batch",
        [
          Alcotest.test_case "empty and small corpora" `Quick
            test_batch_empty_and_small;
          Alcotest.test_case "shared-memo unique counts" `Quick
            test_batch_share_memo_unique_counts;
          qt prop_batch_deterministic;
          qt prop_batch_share_memo_verdicts;
          qt prop_batch_live_jobs_invariant;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "batch --jobs 1: pool.job failure quarantines"
            `Quick test_batch_jobs1_pool_job_failure;
          Alcotest.test_case "stream --jobs 1: pool.job failure quarantines"
            `Quick test_stream_jobs1_pool_job_failure;
        ] );
    ]
