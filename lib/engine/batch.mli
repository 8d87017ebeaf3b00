(** The corpus batch driver: analyze many programs concurrently on a
    {!Pool} of domains and merge the per-program statistics into corpus
    totals.

    The corpus is split into [jobs] contiguous chunks — a pure function
    of the corpus length, never of scheduling — and each worker domain
    analyzes one chunk, so results always come back in input order and
    two runs over the same corpus produce identical output.

    {b Determinism.} In the default mode every program is analyzed
    independently (its own memo tables, exactly the sequential
    {!Analyzer.analyze} path), so reports {e and} merged statistics are
    byte-identical whatever [jobs] is. With [share_memo] every worker
    queries one {e live-shared} lock-striped table pair
    ({!Analyzer.shared}) during the run: verdicts, direction vectors
    and distinct-problem counts are unchanged at any [jobs] —
    memoization never alters answers, and the shared tables end up
    holding the same key set as at [jobs = 1] — but memo-{e hit} counters
    (and the gcd-table traffic, which only happens on full-table
    misses) then depend on cross-domain timing, so they are only
    deterministic at [--jobs 1]. The merged statistics report the
    shared tables' distinct-problem counts.

    {b Fault isolation.} A worker exception on one item — an analyzer
    bug, an injected {!Dda_core.Failpoint} failure — never aborts the
    batch: the item is retried with exponential backoff up to [retries]
    times and then {e quarantined}, its error recorded in the result
    while every other item completes normally. A per-item watchdog
    ([item_timeout_ms]) arms the budget's cooperative deadline, so a
    stuck item returns a degraded conservative report instead of
    hanging the batch. Merged statistics cover successfully analyzed
    items only. *)

open Dda_lang
open Dda_core

type item = {
  name : string;  (** label carried through to the result, e.g. a file name *)
  program : Ast.program;
}

type analyzed = {
  index : int;  (** position in the input corpus *)
  name : string;
  report : Analyzer.report;
  verification : Dda_check.Verify.summary option;
      (** present when the batch ran with [verify]: the report's
          verdicts re-derived and certificate-checked
          ({!Dda_check.Verify.verify_report}) *)
  lint : Dda_analysis.Lint.result option;
      (** present when the batch ran with [lint]: the report's
          dependences classified and every loop's parallelizability
          summarized ({!Dda_analysis.Lint.of_report}) *)
  attempts : int;  (** attempts used; [> 1] means the item was retried *)
}

(** An item abandoned after every attempt failed. *)
type quarantined = {
  q_index : int;  (** position in the input corpus *)
  q_name : string;
  q_attempts : int;
      (** attempts made; [0] when the whole chunk failed before
          per-item isolation engaged *)
  q_error : string;  (** printed form of the last exception *)
}

type result = {
  items : analyzed list;  (** successful items, in input order *)
  quarantined : quarantined list;  (** failed items, in input order *)
  retried : int;  (** items that needed more than one attempt *)
  merged : Analyzer.stats;
      (** totals over [items] only ({!Analyzer.merge_stats}) *)
  table_stats : (Memo_table.stats * Memo_table.stats) option;
      (** with [share_memo]: [(gcd, full)] {!Dda_core.Memo_table.stats}
          of the corpus-wide live-shared tables, aggregated over
          stripes. [None] in the independent mode. *)
  contended : int option;
      (** live-shared mode only: stripe-lock acquisitions that had to
          block ({!Analyzer.shared_contended}) — a load signal, never
          deterministic. [None] otherwise. *)
}

val metrics : unit -> Dda_obs.Metrics.snapshot
(** The {!Dda_obs.Metrics} registry without its [failpoint.*] counters:
    what [ddtest batch --format json] embeds. Every remaining counter
    and histogram is a pure function of the per-item work, so the
    snapshot after a run is the same at any [jobs]; a failpoint such as
    [pool.job] is hit once per chunk, so its count is not. *)

val chunks : jobs:int -> int -> (int * int) list
(** [chunks ~jobs n] splits [0..n-1] into [jobs] contiguous [(lo, hi)]
    half-open ranges whose sizes differ by at most one (ranges may be
    empty when [n < jobs]). Exposed for tests. *)

val run :
  ?config:Analyzer.config ->
  ?share_memo:bool ->
  ?verify:bool ->
  ?lint:bool ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?item_timeout_ms:int ->
  jobs:int ->
  item list ->
  result
(** Analyze the corpus on [jobs] domains ([jobs = 1]: the calling
    domain, no worker is spawned). [share_memo] defaults to
    [false] (the fully [jobs]-independent mode described above); when
    set, workers share the memo tables live.
    [verify] (default [false]) certificate-checks each program's
    report on its worker domain and fills [verification]. [lint]
    (default [false]) classifies each program's dependences and
    summarizes loop parallelizability on its worker domain, filling
    [lint]; the [lint.*] metrics counters stay jobs-invariant because
    each item is linted exactly once whatever the chunking.

    [retries] (default [1]) is how many times a failed item is retried
    before quarantine; [backoff_ms] (default [50]) the first retry's
    delay, doubled each further retry. [item_timeout_ms] (default none)
    arms each attempt's cooperative deadline: analysis past it degrades
    to a flagged conservative verdict rather than being killed.
    @raise Invalid_argument when [jobs < 1], [retries < 0] or
    [backoff_ms < 0]. *)
