open Dda_lang
open Dda_core

type item = {
  name : string;
  program : Ast.program;
}

type analyzed = {
  index : int;
  name : string;
  report : Analyzer.report;
  verification : Dda_check.Verify.summary option;
  lint : Dda_analysis.Lint.result option;
  attempts : int;
}

type quarantined = {
  q_index : int;
  q_name : string;
  q_attempts : int;
  q_error : string;
}

type result = {
  items : analyzed list;
  quarantined : quarantined list;
  retried : int;
  merged : Analyzer.stats;
  table_stats : (Memo_table.stats * Memo_table.stats) option;
  contended : int option;
}

let chunks ~jobs n =
  List.init jobs (fun b -> (b * n / jobs, (b + 1) * n / jobs))

(* Items, retries and quarantines are per-corpus-item events — the
   counters come out the same whatever the worker count (the chunking
   only decides *where* an item runs). *)
let m_items = Dda_obs.Metrics.counter "batch.items"
let m_retries = Dda_obs.Metrics.counter "batch.retries"
let m_quarantined = Dda_obs.Metrics.counter "batch.quarantined"

let run ?(config = Analyzer.default_config) ?(share_memo = false)
    ?(memo_merge_after = false) ?(verify = false) ?(lint = false)
    ?(retries = 1) ?(backoff_ms = 50) ?item_timeout_ms ~jobs items =
  if jobs < 1 then invalid_arg "Batch.run: jobs must be >= 1";
  if retries < 0 then invalid_arg "Batch.run: retries must be >= 0";
  if backoff_ms < 0 then invalid_arg "Batch.run: backoff_ms must be >= 0";
  let arr = Array.of_list items in
  (* Live sharing is the default memo-sharing mode: one lock-striped
     table pair every worker queries during the run, so a cross-item
     repeat is a hit whichever domain computed it first. The per-chunk
     session + merge-after path survives behind [memo_merge_after] as
     the differential oracle (and is what [--jobs 1] sharing used to
     mean — at one worker the two are equivalent). *)
  let shared =
    if share_memo && not memo_merge_after then Some (Analyzer.create_shared ())
    else None
  in
  let shared_c = Option.map Analyzer.shared_cache shared in
  (* Verification replays the analyzer's own pair enumeration and
     checks the report actually produced — memoized or not. It runs
     under the same per-item deadline as the analysis. *)
  let verification cancel program report =
    if not verify then None
    else begin
      let prepared =
        if config.Analyzer.run_pipeline then Dda_passes.Pipeline.run program
        else program
      in
      let sites = Affine.extract ~symbolic:config.Analyzer.symbolic prepared in
      let pairs = Analyzer.site_pairs config sites in
      Some (Dda_check.Verify.verify_report ~cancel ~config pairs report)
    end
  in
  (* The lint summary rides on the report the item already produced —
     the edges and verdicts are re-derived from the recorded direction
     vectors, not from a second analysis. *)
  let lint_summary cancel program report =
    if not lint then None
    else begin
      let prepared =
        if config.Analyzer.run_pipeline then Dda_passes.Pipeline.run program
        else program
      in
      let sites = Affine.extract ~symbolic:config.Analyzer.symbolic prepared in
      Some (Dda_analysis.Lint.of_report ~config ~cancel ~prepared ~sites report)
    end
  in
  let item_cancel () =
    match item_timeout_ms with
    | None -> fun () -> false
    | Some ms ->
      let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
      fun () -> Unix.gettimeofday () > deadline
  in
  (* One item, with fault isolation: an exception (a worker bug, an
     injected failure, a blown budget escaping some future stage) is
     retried with jittered exponential backoff ({!Retry}), then the
     item is quarantined.
     The watchdog deadline is cooperative — the budget polls [cancel]
     and degrades the verdict — so a stuck item comes back conservative
     rather than killed. *)
  let process session idx =
    let it : item = arr.(idx) in
    Dda_obs.Metrics.incr m_items;
    let rec go attempt =
      match
        Dda_obs.Trace.wrap ~name:"batch.item"
          ~args:(fun _ -> [ ("index", idx); ("attempt", attempt) ])
          (fun () ->
             Failpoint.hit "batch.item";
             let cancel = item_cancel () in
             let report =
               match session, shared_c with
               | Some s, _ -> Analyzer.analyze_session ~cancel s it.program
               | None, Some c ->
                 (* Each item counts its own lookups/hits over the
                    shared backend; the raw aggregate would mix every
                    domain's traffic into this item's delta. *)
                 Analyzer.analyze ~config ~cancel
                   ~cache:(Analyzer.counted_cache c) it.program
               | None, None -> Analyzer.analyze ~config ~cancel it.program
             in
             ( report,
               verification cancel it.program report,
               lint_summary cancel it.program report ))
      with
      | report, ver, lnt ->
        Ok
          {
            index = idx;
            name = it.name;
            report;
            verification = ver;
            lint = lnt;
            attempts = attempt;
          }
      | exception e ->
        if attempt <= retries then begin
          Dda_obs.Metrics.incr m_retries;
          Dda_obs.Log.info "batch: retrying %s (attempt %d of %d): %s" it.name
            (attempt + 1) (retries + 1) (Printexc.to_string e);
          Retry.sleep ~base_ms:backoff_ms ~index:idx ~attempt;
          go (attempt + 1)
        end
        else begin
          Dda_obs.Metrics.incr m_quarantined;
          Dda_obs.Log.info "batch: quarantining %s after %d attempts: %s"
            it.name attempt (Printexc.to_string e);
          Error
            {
              q_index = idx;
              q_name = it.name;
              q_attempts = attempt;
              q_error = Printexc.to_string e;
            }
        end
    in
    go 1
  in
  let chunk (lo, hi) =
    (* The chunked item->domain assignment is a pure function of the
       corpus length (see the interface's determinism contract), so
       retries and quarantines never reshuffle memo-sharing. *)
    let session =
      if share_memo && memo_merge_after then
        Some (Analyzer.create_session ~config ())
      else None
    in
    let results = Array.init (hi - lo) (fun k -> process session (lo + k)) in
    (results, session)
  in
  (* One chunk runs on this domain: no worker domain at [jobs = 1]. *)
  let pool = Pool.create ~jobs:(if jobs = 1 then 0 else jobs) in
  let per_chunk =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
         let cs = chunks ~jobs (Array.length arr) in
         let promises =
           List.map (fun c -> (c, Pool.submit pool (fun () -> chunk c))) cs
         in
         List.map
           (fun ((lo, hi), p) ->
              match Pool.await p with
              | v -> v
              | exception e ->
                (* The chunk died before per-item isolation engaged
                   (e.g. session setup, or the pool job itself):
                   quarantine its items wholesale, attempts 0. *)
                ( Array.init (hi - lo) (fun k ->
                      Error
                        {
                          q_index = lo + k;
                          q_name = arr.(lo + k).name;
                          q_attempts = 0;
                          q_error = Printexc.to_string e;
                        }),
                  None ))
           promises)
  in
  let all =
    List.concat_map (fun (results, _) -> Array.to_list results) per_chunk
  in
  let items = List.filter_map (function Ok a -> Some a | Error _ -> None) all in
  let quarantined =
    List.filter_map (function Error q -> Some q | Ok _ -> None) all
  in
  let retried =
    List.length
      (List.filter
         (function Ok a -> a.attempts > 1 | Error q -> q.q_attempts > 1)
         all)
  in
  let merged = Analyzer.fresh_stats () in
  List.iter (fun a -> Analyzer.merge_stats ~into:merged a.report.Analyzer.stats) items;
  let table_stats =
    match shared with
    | Some sh ->
      (* The shared tables already hold the corpus-wide union; their
         sizes are the distinct-problem counts (racing domains that
         both computed a key still stored it once). Summed per-item
         misses can over-count exactly those races, so replace them. *)
      let gcd_stats, full_stats = Analyzer.shared_table_stats sh in
      merged.Analyzer.memo_unique_nobounds <- gcd_stats.Memo_table.size;
      merged.Analyzer.memo_unique_full <- full_stats.Memo_table.size;
      Some (gcd_stats, full_stats)
    | None ->
      (match List.filter_map snd per_chunk with
       | [] -> None
       | first :: rest ->
         (* Per-call unique counts from [analyze_session] are cumulative
            within a chunk, so their sum over-counts; replace them with the
            distinct-problem counts of the merged (union) tables. *)
         List.iter (fun s -> Analyzer.merge_sessions ~into:first s) rest;
         let gcd_unique, full_unique = Analyzer.session_table_sizes first in
         merged.Analyzer.memo_unique_nobounds <- gcd_unique;
         merged.Analyzer.memo_unique_full <- full_unique;
         Some (Analyzer.session_table_stats first))
  in
  let contended = Option.map Analyzer.shared_contended shared in
  { items; quarantined; retried; merged; table_stats; contended }
