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
