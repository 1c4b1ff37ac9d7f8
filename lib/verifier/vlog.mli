(** The verifier log buffer.

    Mirrors the kernel's [bpf_verifier_log]: user space passes a level
    and a buffer with the load; the verifier appends per-instruction
    decisions (level 1) and abstract register states (level 2), and
    truncates at the buffer cap rather than growing without bound.

    - level 0 — silent (the default; logging costs nothing);
    - level 1 — one line per analyzed instruction plus the rejection
      message, the kernel's [BPF_LOG_LEVEL1];
    - level 2 — additionally the abstract register file before each
      instruction, the kernel's [BPF_LOG_LEVEL2] state dumps. *)

type t

val default_cap : int
(** Byte cap on the buffer contents (1 MiB, the kernel's
    [BPF_LOG_BUF_SIZE] ballpark): level-2 logs of branchy programs are
    otherwise unbounded. *)

val create : ?cap:int -> int -> t
(** [create level] — a fresh empty log at [level]. *)

val enabled : t -> int -> bool
(** [enabled t l]: would a message at level [l] be recorded?  Use to
    skip expensive formatting (state dumps) when the log is off. *)

val logf : t -> level:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Append a formatted message if [level t >= level].  Once the cap is
    reached further messages are dropped and the log is marked
    truncated. *)

val contents : t -> string
(** The accumulated log; ends with a ["... log truncated"] marker line
    when the cap was hit. *)
