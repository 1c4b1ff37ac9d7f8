(** Kernel bug reports — the raw material the oracle classifies into the
    paper's two correctness-bug indicators. *)

(** Which capture mechanism observed the anomaly. *)
type origin =
  | Sanitizer                (** a bpf_asan check in the program *)
  | Bpf_native               (** the program's own instruction faulted *)
  | Kernel_routine of string (** KASAN/lockdep/panic inside a routine *)

type kind =
  | Mem_fault of Kmem.fault
  | Lock_violation of Lockdep.violation
  | Panic of string
  | Warn of string
  | Alu_limit of { actual : int64; limit : int64; is_sub : bool }
  | Runaway_execution
  | Witness_escape of {
      wreg : int;
      wvalue : int64;
      wclaim : string;
      wclass : string;
    }
      (** a concrete register value left the verifier's recorded
          abstract state (the witness oracle, indicator #3) *)

type t = {
  origin : origin;
  kind : kind;
  pc : int option; (** guilty eBPF instruction, when known *)
}

val make : ?pc:int -> origin -> kind -> t
val to_string : t -> string

val fingerprint : t -> string
(** Stable deduplication key: collapses addresses, keeps the mechanism,
    fault class and faulting site. *)
