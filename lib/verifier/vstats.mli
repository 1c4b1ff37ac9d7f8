(** Verifier performance counters (the kernel's [veristat] numbers).

    A {!t} lives in the verification environment and is bumped by the
    analysis loop.  All counters are deterministic — a pure function of
    (program, kernel config) — so campaigns fold them into digests.
    Wall-clock verification time deliberately lives outside this record:
    times are observations, never part of a deterministic identity. *)

type t = {
  mutable vs_insn_processed : int;
      (** instructions simulated across all explored paths *)
  mutable vs_total_states : int;
      (** abstract states stored for pruning *)
  mutable vs_peak_states : int;
      (** high-water mark of live stored states *)
  mutable vs_cur_states : int;  (** bookkeeping for [vs_peak_states] *)
  mutable vs_max_states_per_insn : int;
      (** most states stored at a single pc *)
  mutable vs_prune_hits : int;
      (** paths cut because an equal verified state existed *)
  mutable vs_prune_misses : int;
      (** pruning opportunities that found no matching state *)
  mutable vs_loops_detected : int;
      (** infinite-loop detections *)
  mutable vs_branch_depth : int;  (** bookkeeping for [vs_branch_hwm] *)
  mutable vs_branch_hwm : int;
      (** pending-branch worklist high-water mark *)
  mutable vs_widen_rounds : int;
      (** widening rounds applied at loop heads.  Not part of
          {!counters} (only of {!trace_counters}) — and so of no
          digest, JSON table or veristat baseline: the canonical
          counter schema is frozen by committed baselines;
          [vs_loops_detected] keeps its historical meaning
          (zero-progress infinite-loop rejections). *)
  mutable vs_loop_heads : int;
      (** back-edge targets in the program's CFG (also outside the
          frozen schema) *)
}

val zero : unit -> t

(** {1 Analysis-loop hooks} *)

val count_insn : t -> int
(** Bump [vs_insn_processed]; returns the new value (compared against
    the complexity limit by the caller). *)

val state_stored : t -> at_insn:int -> unit
(** A new state was stored for pruning; [at_insn] is the number of
    states now stored at that pc. *)

val state_done : t -> unit
(** A stored state's subtree is fully explored (no longer live). *)

val prune_hit : t -> unit
val prune_miss : t -> unit

val loop_detected : t -> unit

val widen_round : t -> unit
(** One widening application at a loop head. *)

val loop_heads_seen : t -> int -> unit
(** Record the program's loop-head count (back-edge targets). *)

val branch_pushed : t -> unit
val branch_popped : t -> unit

(** {1 Reporting} *)

val counters : t -> (string * int) list
(** Canonical [(name, value)] listing of the frozen schema, in the
    stable order every printer, JSON table and digest line uses. *)

val counter_names : string list
(** The names of {!counters}. *)

val trace_counters : t -> (string * int) list
(** {!counters}, then the trace-only [widen_rounds] and [loop_heads]:
    the fields of a trace's vstats event, in order. *)

val of_counters : (string -> int option) -> (t, string) result
(** The record whose {!trace_counters} [find] names.  [Error name]
    names the first frozen counter [find] has no value for; a
    trace-only counter it lacks reads as zero. *)

val pp : Format.formatter -> t -> unit

(** {1 Campaign aggregation}

    Totals, maxima and log2 histograms over every analyzed program.
    Merged across parallel shards exactly like coverage. *)

val log2_ladder : int array
(** [[|1; 2; 4; ...; 2^29|]]: bucket 0 holds value 0, bucket [i>=1]
    [2^(i-1), 2^i), bucket 30 the rest. *)

type agg = {
  mutable ag_programs : int;
  mutable ag_insn_processed : int;
  mutable ag_total_states : int;
  mutable ag_prune_hits : int;
  mutable ag_prune_misses : int;
  mutable ag_loops_detected : int;
  mutable ag_widen_rounds : int;
  mutable ag_loop_heads : int;
  mutable ag_peak_states_max : int;
  mutable ag_max_states_per_insn : int;
  mutable ag_branch_hwm_max : int;
  ag_hist_insn : Bvf_util.Hist.t;  (** insn_processed *)
  ag_hist_peak : Bvf_util.Hist.t;  (** peak_states *)
}

val agg_zero : unit -> agg
val agg_add : agg -> t -> unit
val agg_absorb : agg -> agg -> unit

val agg_digest_lines : agg -> string list
(** Deterministic canonical lines for campaign digests: totals, maxima,
    then only the non-empty histogram buckets.  No wall times. *)

val pp_agg : Format.formatter -> agg -> unit
