(* Verifier log buffer: leveled, capped, truncation-marked.  See the
   interface for the level semantics. *)

type t = {
  buf : Buffer.t;
  lvl : int;
  cap : int;
  mutable trunc : bool;
}

let default_cap = 1_048_576

let create ?(cap = default_cap) (lvl : int) : t =
  { buf = Buffer.create (if lvl > 0 then 256 else 0); lvl; cap;
    trunc = false }

let enabled (t : t) (l : int) : bool = t.lvl >= l

let add (t : t) (s : string) : unit =
  if not t.trunc then begin
    if Buffer.length t.buf + String.length s > t.cap then t.trunc <- true
    else Buffer.add_string t.buf s
  end

(* Below the active level the format string is skipped entirely
   ([ikfprintf] consumes the arguments without interpreting them) —
   disabled logging must not pay for formatting on the hot path. *)
let logf (t : t) ~(level : int) fmt =
  if t.lvl >= level then Format.kasprintf (add t) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let contents (t : t) : string =
  Buffer.contents t.buf ^ if t.trunc then "... log truncated\n" else ""
