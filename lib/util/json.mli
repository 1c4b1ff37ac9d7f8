(** The one JSON codec: every JSON reader and every writer's string
    escaping in the repository goes through this module.

    Writers build their lines with [Buffer]/[Printf] (field order and
    number formats are part of each schema) and call {!escape} for
    string contents.  Readers call {!parse}, or {!parse_object} for the
    flat one-object-per-line schemas, and read fields with the
    accessors below.

    Dialect: standard JSON values; numbers are read with
    [float_of_string]; [\u] escapes decode to UTF-8, a surrogate pair
    to one code point and a lone surrogate to U+FFFD; any other byte
    inside a string is kept as it is, so [escape] then [parse] gives
    back any byte string exactly.  Nesting deeper than a fixed bound is
    rejected, so hostile input raises {!Parse} instead of overflowing
    the stack. *)

type t =
  | Jstr of string
  | Jnum of float
  | Jbool of bool
  | Jnull
  | Jarr of t list
  | Jobj of (string * t) list  (** fields in document order *)

exception Parse
(** The only exception the parsers raise, on any malformed input. *)

val parse : string -> t
(** Parse one complete JSON value (surrounding whitespace allowed). *)

val parse_object : string -> (string * t) list
(** Parse one flat object: every field value is a string, number, bool
    or null.  Raises {!Parse} on anything else, nested values
    included — the schema check behind serve's ["malformed JSON"]. *)

val escape : Buffer.t -> string -> unit
(** Append a JSON-escaped copy of the string (no surrounding quotes):
    the quote, backslash, newline, tab and carriage return get their
    two-character escapes, the other control bytes a [\u00XX] escape,
    and every other byte is copied unchanged. *)

(** {1 Lines}

    JSONL input read with a bound: a line is never held past
    {!max_line} bytes, however long it runs before its newline. *)

val max_line : int
(** 262 144 bytes: four times the hex text of the largest program a
    request can carry (4096 slots of 16 digits), so every request the
    service can verify fits, with room for whitespace between the
    digits and for the other fields. *)

type line =
  | Line of string  (** the bytes before the newline (or end of input) *)
  | Too_long  (** more than {!max_line} bytes: skipped, not kept *)

type reader
(** An input channel and the bytes read from it but not yet handed
    on.  Read the channel only through its reader once it has one. *)

val reader : in_channel -> reader

val read_line : reader -> line option
(** The next line, without its newline; [None] at the end of input.  A
    last line with no newline is a [Line].  A [Too_long] line's
    bytes are read and dropped up to its newline, and the line after
    it comes next.  Returns as soon as the line's newline has been
    read, so a client that waits for each answer is served. *)

(** {1 Field accessors}

    Look a key up in an object's fields (first occurrence wins);
    [None] when it is absent or holds another type. *)

val str : (string * t) list -> string -> string option
val num : (string * t) list -> string -> float option

val int : (string * t) list -> string -> int option
(** A number, truncated with [int_of_float]. *)

val bool : (string * t) list -> string -> bool option

val get : 'a option -> 'a
(** The value of a required field; raises {!Parse} on [None]. *)
