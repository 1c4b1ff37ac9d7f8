(** The kernel-veristat workflow over the simulated verifier: run a
    named program set through BPF_PROG_LOAD, record each program's
    performance counters, emit the table (text / JSONL), and diff two
    tables with a regression gate.

    Every counter in a row is deterministic; only [vr_time_s] is a real
    observation and is excluded from comparisons. *)

type row = {
  vr_name : string;     (** [selftest-0007] / [gen-0007] *)
  vr_prog_type : string;
  vr_insns : int;       (** pre-rewrite instruction count *)
  vr_verdict : string;  (** ["ok"] or the errno name *)
  vr_stats : Bvf_verifier.Vstats.t;
  vr_time_s : float;    (** wall time of the load; never compared *)
}

type table = {
  vt_kernel : string;   (** version the corpus ran under *)
  vt_rows : row list;   (** in corpus order *)
}

val run_selftests : ?count:int -> Bvf_ebpf.Version.t -> table
(** The selftest corpus (the paper's 708 programs by default). *)

val run_generated :
  seed:int -> count:int -> Bvf_ebpf.Version.t -> table
(** A structured-generator batch under a fixed seed. *)

(** {1 JSONL} *)

val to_json : table -> string
(** One header object, then one object per row — the same flat schema
    (and parser) as the telemetry trace. *)

exception Bad_table of string

val of_json : string -> table
(** @raise Bad_table on anything that is not a bvf veristat table. *)

val load_file : string -> table
(** {!of_json} over a file's contents. *)

val pp_table : Format.formatter -> table -> unit

(** {1 Comparison — [veristat --compare]} *)

type counter_delta = {
  cd_counter : string;
  cd_old : int;
  cd_new : int;
  cd_pct : float;
      (** (new - old) / old * 100; [infinity] when old = 0 < new *)
}

type comparison = {
  cmp_deltas : counter_delta list;  (** per-counter totals over common
                                        programs, canonical order *)
  cmp_added : string list;          (** programs only in new *)
  cmp_removed : string list;        (** programs only in old *)
  cmp_verdict_flips : (string * string * string) list;
      (** name, old verdict, new verdict *)
  cmp_worst : (string * counter_delta) list;
      (** per-program insn_processed regressions, worst first *)
}

val compare_tables : old_t:table -> new_t:table -> comparison

val regressions : threshold_pct:float -> comparison -> string list
(** The gate: one message per counter total growing by more than
    [threshold_pct] percent, plus one per verdict flip.  Empty means
    the gate passes; counters shrinking is never gated. *)

val pp_comparison : Format.formatter -> comparison -> unit
