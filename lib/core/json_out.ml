open Dda_lang

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Strings are copied in runs: a string with nothing to escape (nearly
   every one: names, locations, verdicts) is a single blit, and each
   escape flushes the run before it and is written straight into [buf]. *)
let rec add_escaped buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let c = String.unsafe_get s i in
    if c <> '"' && c <> '\\' && Char.code c >= 0x20 then
      add_escaped buf s start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      Buffer.add_char buf '\\';
      (match c with
       | '\n' -> Buffer.add_char buf 'n'
       | '\r' -> Buffer.add_char buf 'r'
       | '\t' -> Buffer.add_char buf 't'
       | '"' | '\\' -> Buffer.add_char buf c
       | c ->
         Buffer.add_string buf "u00";
         Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
         Buffer.add_char buf "0123456789abcdef".[Char.code c land 0xf]);
      add_escaped buf s (i + 1) (i + 1)
    end

let add_str buf s =
  Buffer.add_char buf '"';
  add_escaped buf s 0 0;
  Buffer.add_char buf '"'

(* Decimal digits straight into [buf], without [string_of_int]'s
   intermediate string. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* Direct recursion rather than [List.iteri]: no closure per container. *)
let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Str s -> add_str buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
    Buffer.add_char buf '[';
    write buf item;
    write_items buf items;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
    Buffer.add_char buf '{';
    write_field buf field;
    write_fields buf fields;
    Buffer.add_char buf '}'

and write_items buf = function
  | [] -> ()
  | item :: items ->
    Buffer.add_char buf ',';
    write buf item;
    write_items buf items

and write_field buf (k, v) =
  add_str buf k;
  Buffer.add_char buf ':';
  write buf v

and write_fields buf = function
  | [] -> ()
  | field :: fields ->
    Buffer.add_char buf ',';
    write_field buf field;
    write_fields buf fields

(* One render buffer per domain, reused from string to string: a
   rendering costs its final string and nothing else once the buffer
   has grown to the largest one. A buffer a freak value grew past 1 MiB
   is given back rather than kept for the rest of the run. Renderings
   do not nest and the program runs no systhreads, so one buffer per
   domain is enough. *)
let render_buffer = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let render f =
  let buf = Domain.DLS.get render_buffer in
  Buffer.clear buf;
  f buf;
  let s = Buffer.contents buf in
  if Buffer.length buf > 1 lsl 20 then Buffer.reset buf;
  s

let to_string j = render (fun buf -> write buf j)

let to_line j =
  render (fun buf ->
      write buf j;
      Buffer.add_char buf '\n')

let rec pp fmt = function
  | (Null | Bool _ | Int _ | Str _) as j -> Format.pp_print_string fmt (to_string j)
  | List [] -> Format.pp_print_string fmt "[]"
  | List items ->
    Format.fprintf fmt "[@[<v 1>";
    List.iteri
      (fun i item ->
         if i > 0 then Format.fprintf fmt ",@,";
         pp fmt item)
      items;
    Format.fprintf fmt "@]]"
  | Obj [] -> Format.pp_print_string fmt "{}"
  | Obj fields ->
    Format.fprintf fmt "{@[<v 1>";
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Format.fprintf fmt ",@,";
         Format.fprintf fmt "%s: %a" (to_string (Str k)) pp v)
      fields;
    Format.fprintf fmt "@]}"

(* ------------------------------------------------------------------ *)
(* Parsing (the subset this module emits)                              *)
(* ------------------------------------------------------------------ *)

exception Parse_fail of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_fail (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos >= n then '\x00' else s.[!pos] in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf code =
    (* Decode \uXXXX escapes back to UTF-8 bytes (no surrogate pairs:
       the emitter never produces them). *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; incr pos
             | '\\' -> Buffer.add_char buf '\\'; incr pos
             | '/' -> Buffer.add_char buf '/'; incr pos
             | 'n' -> Buffer.add_char buf '\n'; incr pos
             | 'r' -> Buffer.add_char buf '\r'; incr pos
             | 't' -> Buffer.add_char buf '\t'; incr pos
             | 'b' -> Buffer.add_char buf '\b'; incr pos
             | 'f' -> Buffer.add_char buf '\x0c'; incr pos
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                | Some code -> add_utf8 buf code; pos := !pos + 5
                | None -> fail "bad \\u escape")
             | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ()
        | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = '-' then incr pos;
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    (match peek () with
     | '.' | 'e' | 'E' -> fail "non-integer numbers are not supported"
     | _ -> ());
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin incr pos; List [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; elems (v :: acc)
          | ']' -> incr pos; List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin incr pos; Obj [] end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value ())
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; fields (kv :: acc)
          | '}' -> incr pos; Obj (List.rev (kv :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | '-' | '0' .. '9' -> Int (parse_int ())
    | _ -> fail "expected a JSON value"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The report schema, written once against a sink                      *)
(* ------------------------------------------------------------------ *)

(* The pair, outcome, vector and stats objects are described once, as
   static tables of fields: a key, whether the field is present for a
   given value, and how to render its value into a sink. [Tree_sink]
   turns a table into an [Obj] (fields in table order, no reversal),
   [Buffer_sink] writes it straight out as compact JSON — so the two
   renderings cannot drift apart. *)
type ('sink, 'v, 'a) field = {
  key : string;
  present : 'a -> bool;
  value : 'sink -> 'a -> 'v;
}

(* A [Tested] outcome's fields, out of the inline record so the field
   table can take them as one value. *)
type tested = {
  pair : Analyzer.pair_report;
  dependent : bool;
  unknown : bool;
  degraded : Budget.reason option;
  decided_by : Cascade.test option;
  directions : Direction.dir array list;
  distance : Dda_numeric.Zint.t array option;
}

module type SINK = sig
  type t
  type v

  val bool : t -> bool -> v
  val int : t -> int -> v
  val str : t -> string -> v

  val loc : t -> Loc.t -> v
  (** The string ["line:col"]. *)

  val list : t -> (t -> 'a -> v) -> 'a list -> v
  val obj : t -> (t, v, 'a) field list -> 'a -> v
end

module Schema (S : SINK) = struct
  let always _ = true
  let field key value = { key; present = always; value }
  let str key get = field key (fun o x -> S.str o (get x))
  let int key get = field key (fun o x -> S.int o (get x))

  let role o = function `Read -> S.str o "read" | `Write -> S.str o "write"

  let vector_fields =
    [
      str "directions" (fun (_, v) -> Direction.vector_to_string v);
      str "kind" (fun (r, v) -> Analyzer.dep_kind_name (Analyzer.vector_kind r v));
    ]

  let distance o d =
    S.list o
      (fun o z ->
        match Dda_numeric.Zint.to_int z with
        | Some n -> S.int o n
        | None -> S.str o (Dda_numeric.Zint.to_string z))
      (Array.to_list d)

  let verdict dependent = if dependent then "dependent" else "independent"

  let decided how verdict_of =
    [ str "verdict" (fun x -> verdict (verdict_of x)); str "how" (fun _ -> how) ]

  let tested_fields =
    decided "tested" (fun t -> t.dependent)
    @ [
        field "exact" (fun o t -> S.bool o (not t.unknown));
        {
          key = "degraded";
          present = (fun t -> t.degraded <> None);
          value = (fun o t -> S.str o (Budget.reason_name (Option.get t.degraded)));
        };
        {
          key = "decided_by";
          present = (fun t -> t.decided_by <> None);
          value = (fun o t -> S.str o (Cascade.test_name (Option.get t.decided_by)));
        };
        {
          key = "vectors";
          present = (fun t -> t.directions <> []);
          value =
            (fun o t ->
              S.list o (fun o v -> S.obj o vector_fields (t.pair, v)) t.directions);
        };
        {
          key = "distance";
          present = (fun t -> t.distance <> None);
          value = (fun o t -> distance o (Option.get t.distance));
        };
      ]

  let constant_fields = decided "constant-subscripts" Fun.id
  let gcd_fields = decided "extended-gcd" (fun () -> false)
  let assumed_fields = decided "assumed-not-affine" (fun () -> true)

  let outcome o (r : Analyzer.pair_report) =
    match r.outcome with
    | Analyzer.Constant d -> S.obj o constant_fields d
    | Analyzer.Gcd_independent -> S.obj o gcd_fields ()
    | Analyzer.Assumed_dependent -> S.obj o assumed_fields ()
    | Analyzer.Tested t ->
      S.obj o tested_fields
        {
          pair = r;
          dependent = t.dependent;
          unknown = t.unknown;
          degraded = t.degraded;
          decided_by = t.decided_by;
          directions = t.directions;
          distance = t.distance;
        }

  let ref1_fields =
    [
      field "loc" (fun o (r : Analyzer.pair_report) -> S.loc o r.loc1);
      field "role" (fun o (r : Analyzer.pair_report) -> role o r.role1);
    ]

  let ref2_fields =
    [
      field "loc" (fun o (r : Analyzer.pair_report) -> S.loc o r.loc2);
      field "role" (fun o (r : Analyzer.pair_report) -> role o r.role2);
    ]

  let pair_fields =
    [
      str "array" (fun (r : Analyzer.pair_report) -> r.array_name);
      field "ref1" (fun o r -> S.obj o ref1_fields r);
      field "ref2" (fun o r -> S.obj o ref2_fields r);
      field "self" (fun o (r : Analyzer.pair_report) -> S.bool o r.self_pair);
      int "common_loops" (fun (r : Analyzer.pair_report) -> r.ncommon);
      field "outcome" outcome;
    ]

  let pair o r = S.obj o pair_fields r

  let by_test =
    [
      int "svpc" (fun a -> a.(0));
      int "acyclic" (fun a -> a.(1));
      int "loop_residue" (fun a -> a.(2));
      int "fourier" (fun a -> a.(3));
    ]

  let memo_fields =
    [
      int "gcd_lookups" (fun (s : Analyzer.stats) -> s.memo_lookups_nobounds);
      int "gcd_hits" (fun (s : Analyzer.stats) -> s.memo_hits_nobounds);
      int "gcd_unique" (fun (s : Analyzer.stats) -> s.memo_unique_nobounds);
      int "full_lookups" (fun (s : Analyzer.stats) -> s.memo_lookups_full);
      int "full_hits" (fun (s : Analyzer.stats) -> s.memo_hits_full);
      int "full_unique" (fun (s : Analyzer.stats) -> s.memo_unique_full);
    ]

  let stats_fields =
    [
      int "pairs" (fun (s : Analyzer.stats) -> s.pairs);
      int "constant_cases" (fun (s : Analyzer.stats) -> s.constant_cases);
      int "gcd_independent" (fun (s : Analyzer.stats) -> s.gcd_independent);
      int "assumed_dependent" (fun (s : Analyzer.stats) -> s.assumed);
      field "plain_tests" (fun o (s : Analyzer.stats) ->
          S.obj o by_test s.plain_by_test);
      field "direction_tests" (fun o (s : Analyzer.stats) ->
          S.obj o by_test s.dir_counts.Direction.by_test);
      field "memo" (fun o (s : Analyzer.stats) -> S.obj o memo_fields s);
      int "independent_pairs" (fun (s : Analyzer.stats) -> s.independent_pairs);
      int "dependent_pairs" (fun (s : Analyzer.stats) -> s.dependent_pairs);
      (* only when something degraded: keeps the output stable for the
         (overwhelmingly common) exact runs *)
      {
        key = "degraded_pairs";
        present = (fun (s : Analyzer.stats) -> s.degraded_pairs <> 0);
        value = (fun o (s : Analyzer.stats) -> S.int o s.degraded_pairs);
      };
    ]

  let stats o s = S.obj o stats_fields s

  let report_fields =
    [
      field "pairs" (fun o (r : Analyzer.report) -> S.list o pair r.pair_reports);
      field "stats" (fun o (r : Analyzer.report) -> stats o r.stats);
    ]

  let report o r = S.obj o report_fields r
end

type json = t

module Tree_sink = struct
  type t = unit
  type v = json

  let bool () b = Bool b
  let int () n = Int n
  let str () s = Str s
  let loc () l = Str (Loc.to_string l)

  let rec items f = function
    | [] -> []
    | x :: xs ->
      let v = f () x in
      v :: items f xs

  let list () f xs = List (items f xs)

  let rec fields fs x =
    match fs with
    | [] -> []
    | f :: fs ->
      if f.present x then
        let v = f.value () x in
        (f.key, v) :: fields fs x
      else fields fs x

  let obj () fs x = Obj (fields fs x)
end

(* Compact JSON, byte-identical to [write] on the tree. *)
module Buffer_sink = struct
  type t = Buffer.t
  type v = unit

  let bool buf b = Buffer.add_string buf (if b then "true" else "false")
  let int = add_int
  let str = add_str

  let loc buf (l : Loc.t) =
    Buffer.add_char buf '"';
    add_int buf l.line;
    Buffer.add_char buf ':';
    add_int buf l.col;
    Buffer.add_char buf '"'

  let rec items buf f = function
    | [] -> ()
    | x :: xs ->
      Buffer.add_char buf ',';
      f buf x;
      items buf f xs

  let list buf f = function
    | [] -> Buffer.add_string buf "[]"
    | x :: xs ->
      Buffer.add_char buf '[';
      f buf x;
      items buf f xs;
      Buffer.add_char buf ']'

  let rec fields buf first fs x =
    match fs with
    | [] -> ()
    | f :: fs ->
      if f.present x then begin
        if not first then Buffer.add_char buf ',';
        add_str buf f.key;
        Buffer.add_char buf ':';
        f.value buf x;
        fields buf false fs x
      end
      else fields buf first fs x

  let obj buf fs x =
    Buffer.add_char buf '{';
    fields buf true fs x;
    Buffer.add_char buf '}'
end

module Tree_schema = Schema (Tree_sink)
module Buffer_schema = Schema (Buffer_sink)

let pair r = Tree_schema.pair () r
let stats s = Tree_schema.stats () s
let report r = Tree_schema.report () r

let item_line ~file ?(extra = []) r =
  render (fun buf ->
      Buffer.add_string buf "{\"file\":";
      add_str buf file;
      Buffer.add_string buf ",\"report\":";
      Buffer_schema.report buf r;
      List.iter
        (fun field ->
          Buffer.add_char buf ',';
          write_field buf field)
        extra;
      Buffer.add_string buf "}\n")

let metrics (snap : Dda_obs.Metrics.snapshot) =
  Obj
    [
      ("counters", Obj (List.map (fun (n, v) -> (n, Int v)) snap.counters));
      ( "histograms",
        Obj
          (List.map
             (fun (n, (h : Dda_obs.Metrics.hist_snapshot)) ->
                ( n,
                  Obj
                    [
                      ("count", Int h.count);
                      ("sum", Int h.sum);
                      ( "buckets",
                        List
                          (List.map
                             (fun (i, c) ->
                                List [ Int (Dda_obs.Metrics.bucket_lo i); Int c ])
                             h.buckets) );
                    ] ))
             snap.histograms) );
    ]
