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

(* The registry a batch report embeds. Every counter and histogram is
   a pure function of the per-item work, except the failpoint counters:
   a site such as [pool.job] is hit once per chunk, so its count
   follows the job count. *)
let metrics () =
  let snap = Dda_obs.Metrics.snapshot () in
  {
    snap with
    Dda_obs.Metrics.counters =
      List.filter
        (fun (name, _) -> not (String.starts_with ~prefix:"failpoint." name))
        snap.Dda_obs.Metrics.counters;
  }

let run ?(config = Analyzer.default_config) ?(share_memo = false)
    ?(verify = false) ?(lint = false)
    ?(retries = 1) ?(backoff_ms = 50) ?item_timeout_ms ~jobs items =
  if jobs < 1 then invalid_arg "Batch.run: jobs must be >= 1";
  if retries < 0 then invalid_arg "Batch.run: retries must be >= 0";
  if backoff_ms < 0 then invalid_arg "Batch.run: backoff_ms must be >= 0";
  let arr = Array.of_list items in
  (* With [share_memo], one lock-striped table pair every worker
     queries during the run, so a cross-item repeat is a hit whichever
     domain computed it first. *)
  let shared = if share_memo then Some (Analyzer.create_shared ()) else None in
  let shared_c = Option.map Analyzer.shared_cache shared in
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
  let process idx =
    let it : item = arr.(idx) in
    Dda_obs.Metrics.incr m_items;
    let rec go attempt =
      match
        Dda_obs.Trace.wrap ~name:"batch.item"
          ~args:(fun _ -> [ ("index", idx); ("attempt", attempt) ])
          (fun () ->
             Failpoint.hit "batch.item";
             let cancel = item_cancel () in
             let prepared = Analyzer.prepare config it.program in
             (* Each item counts its own lookups/hits over the shared
                backend; the raw aggregate would mix every domain's
                traffic into this item's delta. *)
             let cache = Option.map Analyzer.counted_cache shared_c in
             let report =
               Analyzer.analyze_sites ~config ~cancel ?cache prepared.pairs
             in
             (* Verification checks the report actually produced —
                memoized or not — and the lint summary re-derives edges
                from its recorded direction vectors: neither analyzes
                again. Both run under the item's deadline. *)
             ( report,
               (if verify then
                  Some
                    (Dda_check.Verify.verify_report ~cancel ~config
                       prepared.pairs report)
                else None),
               if lint then
                 Some (Dda_analysis.Lint.of_report ~config ~cancel prepared report)
               else None ))
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
    Array.init (hi - lo) (fun k -> process (lo + k))
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
                   (e.g. a failure of the pool job itself):
                   quarantine its items wholesale, attempts 0. *)
                Array.init (hi - lo) (fun k ->
                    Error
                      {
                        q_index = lo + k;
                        q_name = arr.(lo + k).name;
                        q_attempts = 0;
                        q_error = Printexc.to_string e;
                      }))
           promises)
  in
  let all = List.concat_map Array.to_list per_chunk in
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
    Option.map
      (fun sh ->
         (* The shared tables already hold the corpus-wide union; their
            sizes are the distinct-problem counts (racing domains that
            both computed a key still stored it once). Summed per-item
            misses can over-count exactly those races, so replace them. *)
         let gcd_stats, full_stats = Analyzer.shared_table_stats sh in
         merged.Analyzer.memo_unique_nobounds <- gcd_stats.Memo_table.size;
         merged.Analyzer.memo_unique_full <- full_stats.Memo_table.size;
         (gcd_stats, full_stats))
      shared
  in
  let contended = Option.map Analyzer.shared_contended shared in
  { items; quarantined; retried; merged; table_stats; contended }
