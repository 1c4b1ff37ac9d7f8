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

(* The longest JSONL line a reader keeps: four times the hex text of the
   largest program a request can carry (Prog.max_insns = 4096 slots of
   16 digits), room for whitespace between digits and the other
   fields. *)
let max_line = 262_144

(* Whether the eight bytes of [w] hold the byte whose copies fill
   [pattern]: [x] has a zero byte exactly where they do, and
   (x - 0x01..01) land (lnot x) land 0x80..80 is nonzero exactly when
   [x] has a zero byte. *)
let[@inline] has_byte (w : int64) (pattern : int64) : bool =
  let x = Int64.logxor w pattern in
  not
    (Int64.equal 0L
       (Int64.logand
          (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
          0x8080808080808080L))

let quotes = 0x2222222222222222L
let backslashes = 0x5c5c5c5c5c5c5c5cL
let newlines = 0x0a0a0a0a0a0a0a0aL

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
    (* the first quote or backslash; eight bytes a step while a whole
       word is left *)
    let rec scan i =
      if i < n then
        match String.unsafe_get s i with '"' | '\\' -> i | _ -> scan (i + 1)
      else i
    in
    let rec words i =
      if i + 8 > n then scan i
      else
        let w = String.get_int64_ne s i in
        if has_byte w quotes || has_byte w backslashes then scan i
        else words (i + 8)
    in
    pos := words start;
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

(* Runs of bytes that need no escape are copied in one piece. *)
let escape (b : Buffer.t) (s : string) : unit =
  let n = String.length s in
  let rec run start i =
    if i = n then Buffer.add_substring b s start (i - start)
    else
      match String.unsafe_get s i with
      | '"' | '\\' | '\000' .. '\031' as c ->
        Buffer.add_substring b s start (i - start);
        (match c with
         | '"' -> Buffer.add_string b "\\\""
         | '\\' -> Buffer.add_string b "\\\\"
         | '\n' -> Buffer.add_string b "\\n"
         | '\t' -> Buffer.add_string b "\\t"
         | '\r' -> Buffer.add_string b "\\r"
         | c -> Printf.bprintf b "\\u%04x" (Char.code c));
        run (i + 1) (i + 1)
      | _ -> run start (i + 1)
  in
  run 0 0

(* -- Lines -------------------------------------------------------------- *)

type line = Line of string | Too_long

type reader = {
  r_ic : in_channel;
  r_buf : Bytes.t;
  mutable r_pos : int;  (* the first byte not yet handed on *)
  mutable r_len : int;  (* the end of the bytes read into [r_buf] *)
  r_acc : Buffer.t;  (* a line that spans refills, while within the cap *)
}

let reader (ic : in_channel) : reader =
  { r_ic = ic; r_buf = Bytes.create 65_536; r_pos = 0; r_len = 0;
    r_acc = Buffer.create 256 }

(* A line that lies in the buffer is one copy out of it.  One that spans
   refills is gathered in [r_acc], and once it passes [max_line] its
   bytes are only counted up to its newline, never kept.  [input]
   returns what one read gives, so a line is handed on as soon as its
   newline arrives. *)
(* The first newline of [buf] in [i, len), or [len]; eight bytes a step
   while a whole word is left. *)
let newline_from (buf : Bytes.t) (i : int) (len : int) : int =
  let rec bytes i =
    if i < len && Bytes.unsafe_get buf i <> '\n' then bytes (i + 1) else i
  in
  let rec words i =
    if i + 8 > len then bytes i
    else if has_byte (Bytes.get_int64_ne buf i) newlines then bytes i
    else words (i + 8)
  in
  words i

let read_line (r : reader) : line option =
  let buf = r.r_buf and acc = r.r_acc in
  (* [size]: the bytes of this line in earlier fills *)
  let rec go size =
    let pos = r.r_pos and len = r.r_len in
    let stop = newline_from buf pos len in
    let size' = size + (stop - pos) in
    if stop < len then begin
      r.r_pos <- stop + 1;
      if size' > max_line then Some Too_long
      else if size = 0 then
        Some (Line (Bytes.sub_string buf pos (stop - pos)))
      else begin
        Buffer.add_subbytes acc buf pos (stop - pos);
        Some (Line (Buffer.contents acc))
      end
    end
    else begin
      if size' <= max_line then Buffer.add_subbytes acc buf pos (stop - pos);
      r.r_pos <- 0;
      r.r_len <- input r.r_ic buf 0 (Bytes.length buf);
      if r.r_len > 0 then go size'
      else if size' = 0 then None
      else if size' > max_line then Some Too_long
      else Some (Line (Buffer.contents acc))
    end
  in
  Buffer.reset acc;
  go 0

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
