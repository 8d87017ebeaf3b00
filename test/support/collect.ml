(* Drive {!Dda_engine.Stream.run} over an in-memory corpus of named
   source texts and keep every outcome, in input order: the sink
   [ddtest batch] uses for its in-memory JSON document. *)

open Dda_engine

let source items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | (name, text) :: tl ->
      rest := tl;
      Some { Stream.name; text = (fun () -> text) }

let run ?config ?share_memo ?verify ?lint ?retries ?backoff_ms
    ?item_timeout_ms ~jobs items =
  let outcomes = ref [] in
  let summary =
    Stream.run ?config ?share_memo ?verify ?lint ?retries ?backoff_ms
      ?item_timeout_ms ~jobs
      ~render:(fun o ->
        outcomes := o :: !outcomes;
        "")
      ~emit:ignore (source items)
  in
  (summary, List.rev !outcomes)

(* A corpus of generated programs, named [p0], [p1], ... *)
let of_programs programs =
  List.mapi
    (fun i p -> (Printf.sprintf "p%d" i, Dda_lang.Pretty.program_to_string p))
    programs

(* The analyzed items' [(name, report)], quarantines left out. *)
let reports outcomes =
  List.filter_map
    (function
      | Stream.Analyzed a -> Some (a.name, a.report)
      | Stream.Quarantined _ -> None)
    outcomes
