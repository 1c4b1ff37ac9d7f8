(* The repository's one JSON codec: a recursive parser, one escaper and
   field accessors.  Every JSON reader (telemetry traces, service
   requests, veristat tables, triage artifacts, Chrome span traces) and
   every writer's string escaping goes through here, so the dialect is
   defined once.

   The parser reads untrusted bytes (serve/batch request lines, profile
   files), so it never raises anything but [Parse]: nesting is bounded
   by [max_depth] so a hostile document cannot overflow the stack, and
   [\u] escapes decode to UTF-8 with a lone surrogate turned into
   U+FFFD.  Outside escapes, string bytes are kept as they are, so any
   byte string survives [escape] followed by [parse]. *)

type t =
  | Jstr of string
  | Jnum of float
  | Jbool of bool
  | Jnull
  | Jarr of t list
  | Jobj of (string * t) list

exception Parse

(* Deeper than any document the repository writes (Chrome traces nest
   three levels), far shallower than the native stack. *)
let max_depth = 512

let hex_digit (c : char) : int =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise Parse

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Parse in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws ()
      | _ -> ()
  in
  let expect c = if peek () <> c then raise Parse else incr pos in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l; v
    end
    else raise Parse
  in
  let hex4 () =
    if !pos + 4 > n then raise Parse;
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      v := (!v lsl 4) lor hex_digit s.[i]
    done;
    pos := !pos + 4;
    !v
  in
  (* after "\u": one code point, combining a surrogate pair *)
  let code_point () =
    let u = hex4 () in
    if u >= 0xD800 && u <= 0xDBFF
       && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
      let save = !pos in
      pos := !pos + 2;
      let lo = hex4 () in
      if lo >= 0xDC00 && lo <= 0xDFFF then
        0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
      else (pos := save; 0xFFFD)
    end
    else if u >= 0xD800 && u <= 0xDFFF then 0xFFFD
    else u
  in
  let string () =
    expect '"';
    let start = !pos in
    let rec scan i =
      if i < n then
        match String.unsafe_get s i with '"' | '\\' -> i | _ -> scan (i + 1)
      else i
    in
    pos := scan start;
    if peek () = '"' then begin
      (* no escapes: the common case is one copy *)
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let b = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring b s start (!pos - start);
      let rec go () =
        match peek () with
        | '"' -> incr pos; Buffer.contents b
        | '\\' ->
          incr pos;
          let c = peek () in
          incr pos;
          (match c with
           | '"' | '\\' | '/' -> Buffer.add_char b c
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
           | _ -> raise Parse);
          go ()
        | c -> Buffer.add_char b c; incr pos; go ()
      in
      go ()
    end
  in
  let number () =
    let start = !pos in
    while !pos < n && (match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false)
    do incr pos done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> raise Parse
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | '{' ->
      if depth >= max_depth then raise Parse;
      incr pos; skip_ws ();
      if peek () = '}' then (incr pos; Jobj []) else members (depth + 1) []
    | '[' ->
      if depth >= max_depth then raise Parse;
      incr pos; skip_ws ();
      if peek () = ']' then (incr pos; Jarr []) else elements (depth + 1) []
    | '"' -> Jstr (string ())
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | 'n' -> literal "null" Jnull
    | '-' | '0' .. '9' -> number ()
    | _ -> raise Parse
  and members depth acc =
    skip_ws ();
    let k = string () in
    skip_ws ();
    expect ':';
    let v = value depth in
    skip_ws ();
    match peek () with
    | ',' -> incr pos; members depth ((k, v) :: acc)
    | '}' -> incr pos; Jobj (List.rev ((k, v) :: acc))
    | _ -> raise Parse
  and elements depth acc =
    let v = value depth in
    skip_ws ();
    match peek () with
    | ',' -> incr pos; elements depth (v :: acc)
    | ']' -> incr pos; Jarr (List.rev (v :: acc))
    | _ -> raise Parse
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then raise Parse;
  v

let parse_object (s : string) : (string * t) list =
  match parse s with
  | Jobj fields
    when List.for_all
        (fun (_, v) -> match v with Jarr _ | Jobj _ -> false | _ -> true)
        fields ->
    fields
  | _ -> raise Parse

let escape (b : Buffer.t) (s : string) : unit =
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | '\r' -> Buffer.add_string b "\\r"
       | c when Char.code c < 0x20 ->
         Printf.bprintf b "\\u%04x" (Char.code c)
       | c -> Buffer.add_char b c)
    s

(* -- Field accessors -------------------------------------------------- *)

let str (fields : (string * t) list) (k : string) : string option =
  match List.assoc_opt k fields with Some (Jstr s) -> Some s | _ -> None

let num (fields : (string * t) list) (k : string) : float option =
  match List.assoc_opt k fields with Some (Jnum f) -> Some f | _ -> None

let int (fields : (string * t) list) (k : string) : int option =
  match List.assoc_opt k fields with
  | Some (Jnum f) -> Some (int_of_float f)
  | _ -> None

let bool (fields : (string * t) list) (k : string) : bool option =
  match List.assoc_opt k fields with Some (Jbool b) -> Some b | _ -> None

let get : 'a option -> 'a = function Some v -> v | None -> raise Parse
