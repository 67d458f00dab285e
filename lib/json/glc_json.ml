type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list
  | Int of int

(* ---- printer ---- *)

let escape buf s =
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
    s

let float x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else begin
    (* shortest decimal that round-trips, so equal floats always print
       identically (the ensemble's byte-for-byte determinism check) *)
    let s15 = Printf.sprintf "%.15g" x in
    if float_of_string s15 = x then s15 else Printf.sprintf "%.17g" x
  end

let to_string v =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let quoted s =
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Null -> add "null"
    | Bool b -> add (if b then "true" else "false")
    | Number x -> add (float x)
    | Int i -> add (string_of_int i)
    | String s -> quoted s
    | Array items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          items;
        Buffer.add_char buf ']'
    | Object fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            quoted k;
            Buffer.add_char buf ':';
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ---- reader ---- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* exactly four hex digits: int_of_string would also take '_' *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = 0 to 3 do
      let d =
        match s.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
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
             | 'b' -> Buffer.add_char buf '\b'; incr pos
             | 'f' -> Buffer.add_char buf '\012'; incr pos
             | 'n' -> Buffer.add_char buf '\n'; incr pos
             | 'r' -> Buffer.add_char buf '\r'; incr pos
             | 't' -> Buffer.add_char buf '\t'; incr pos
             | 'u' ->
                 incr pos;
                 let hi = hex4 () in
                 let code =
                   if
                     hi >= 0xD800 && hi <= 0xDBFF && !pos + 2 <= n
                     && s.[!pos] = '\\'
                     && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo < 0xDC00 || lo > 0xDFFF then
                       fail "bad surrogate pair";
                     0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                   end
                   else hi
                 in
                 (* a lone surrogate encodes no character *)
                 if not (Uchar.is_valid code) then fail "lone surrogate";
                 Buffer.add_utf_8_uchar buf (Uchar.of_int code)
             | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c -> Buffer.add_char buf c; incr pos; go ()
    in
    go ();
    Buffer.contents buf
  in
  (* RFC 8259 grammar: optional '-', then 0 or a digit run without a
     leading zero, then optional fraction and exponent, each carrying
     at least one digit — no leading zeros, no bare '.', no '+' sign *)
  let number () =
    let start = !pos in
    let digit () = !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' in
    let digits () =
      if not (digit ()) then fail "bad number";
      while digit () do
        incr pos
      done
    in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (string_lit ())
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Array []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; items (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Array (items [])
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Object []
        end
        else begin
          let field () =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            (k, v)
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; fields (f :: acc)
            | Some '}' -> incr pos; List.rev (f :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Object (fields [])
        end
    | Some ('-' | '0' .. '9') -> Number (number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member v k =
  match v with Object fields -> List.assoc_opt k fields | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_number = function
  | Number f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Number f when Float.is_integer f && Float.abs f <= 2. ** 53. ->
      Some (int_of_float f)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function Array l -> Some l | _ -> None
