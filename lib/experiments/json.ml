type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else if Float.is_finite f then
        Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null" (* JSON has no nan/inf *)
  | Str s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the string                          *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let len = String.length word in
  if
    st.pos + len <= String.length st.src
    && String.sub st.src st.pos len = word
  then (
    st.pos <- st.pos + len;
    value)
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then fail st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (if st.pos >= String.length st.src then fail st "unterminated escape";
         let e = st.src.[st.pos] in
         st.pos <- st.pos + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             if st.pos + 4 > String.length st.src then
               fail st "truncated \\u escape";
             let hex = String.sub st.src st.pos 4 in
             st.pos <- st.pos + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with Failure _ -> fail st "bad \\u escape"
             in
             (* Escaped codepoints are emitted as raw UTF-8; the service
                protocol only ever escapes control characters, which are
                single bytes. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf
                 (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
         | _ -> fail st "unknown escape");
        go ()
    | c when Char.code c < 0x20 -> fail st "raw control character in string"
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume () = st.pos <- st.pos + 1 in
  (match peek st with Some '-' -> consume () | _ -> ());
  let digits () =
    let d = ref 0 in
    while
      match peek st with
      | Some ('0' .. '9') ->
          consume ();
          incr d;
          true
      | _ -> false
    do
      ()
    done;
    !d
  in
  if digits () = 0 then fail st "expected digits";
  (match peek st with
  | Some '.' ->
      is_float := true;
      consume ();
      if digits () = 0 then fail st "expected fraction digits"
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      consume ();
      (match peek st with Some ('+' | '-') -> consume () | _ -> ());
      if digits () = 0 then fail st "expected exponent digits"
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then (
        expect st '}';
        Obj [])
      else
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              fields ((k, v) :: acc)
          | Some '}' ->
              expect st '}';
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        fields []
  | Some '[' ->
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then (
        expect st ']';
        List [])
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              expect st ',';
              items (v :: acc)
          | Some ']' ->
              expect st ']';
              List (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        items []
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
      Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None
