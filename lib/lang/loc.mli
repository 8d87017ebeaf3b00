(** Source locations: 1-based line and column. Locations double as the
    identity of array-reference sites throughout the analyzer, so every
    AST node carries one. *)

type t = { line : int; col : int }

val dummy : t
val make : line:int -> col:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string
(** ["line:col"]. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
