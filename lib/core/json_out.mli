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
(** [to_string j ^ "\n"], rendered into one buffer: one JSONL line. *)

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

val report : Analyzer.report -> t
(** The whole report: one object per pair (locations, roles, outcome,
    direction vectors with dependence kinds, distance) plus the
    statistics block. *)

val pair : Analyzer.pair_report -> t
(** One pair object, as embedded in {!report}. *)

val stats : Analyzer.stats -> t
(** The statistics block alone (used for the batch driver's merged
    corpus statistics). *)

val metrics : Dda_obs.Metrics.snapshot -> t
(** A metrics-registry snapshot: counters as a name-keyed object,
    histograms as [{count, sum, buckets: [[lo, n], ...]}]. *)
