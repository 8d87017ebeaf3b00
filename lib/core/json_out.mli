(** Minimal JSON emission (strings, numbers, booleans, arrays,
    objects) and the analyzer report rendered as JSON — enough for
    tooling to consume analysis results without scraping text — plus a
    parser for exactly the subset this module emits, so the batch
    journal can read its own records back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Strings escape ['"'], ['\\'], ["\n"], ["\r"] and
    ["\t"] as two-character escapes and every other byte below 0x20 as
    [\u00XX] (lowercase hex); all other bytes, 0x7f and non-ASCII
    included, pass through unchanged. *)

val to_line : t -> string
(** [to_string j ^ "\n"]: one JSONL line, rendered into a buffer the
    calling domain reuses from line to line. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering. *)

val of_string : string -> (t, string) result
(** Parse the subset of JSON this module emits — in particular, numbers
    must be integers (no fraction or exponent). Round-trips
    {!to_string}: [of_string (to_string j) = Ok j]. Used by the batch
    journal reader; the error carries a byte offset. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the value bound to [k]; [None] when
    absent or when the value is not an object. *)

(** {1 The analyzer report}

    The report's schema is written once, against a stream of JSON
    events, and has two sinks: {!report}, {!pair} and {!stats} build
    the tree, {!item_line} writes the compact rendering straight into
    a reused buffer without building one. The two renderings are
    byte-identical (test_json.ml, group [schema]). *)

val report : Analyzer.report -> t
(** The whole report: one object per pair (locations, roles, outcome,
    direction vectors with dependence kinds, distance) plus the
    statistics block. *)

val item_line : file:string -> ?extra:(string * t) list -> Analyzer.report -> string
(** [item_line ~file ~extra r] is
    [to_line (Obj (("file", Str file) :: ("report", report r) :: extra))]
    — one streamed batch item — rendered without building [report r]. *)

val pair : Analyzer.pair_report -> t
(** One pair object, as embedded in {!report}. *)

val stats : Analyzer.stats -> t
(** The statistics block alone (used for the batch driver's merged
    corpus statistics). *)

val metrics : Dda_obs.Metrics.snapshot -> t
(** A metrics-registry snapshot: counters as a name-keyed object,
    histograms as [{count, sum, buckets: [[lo, n], ...]}]. *)
