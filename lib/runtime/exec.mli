(** The execution engine: a concrete interpreter standing in for the JIT.

    The program's own loads/stores use the raw (unchecked) memory path
    like native code; the [bpf_asan_*] calls injected by the sanitation
    rewrite consult KASAN shadow memory and raise indicator-#1 reports;
    helper calls may raise indicator-#2 reports.  Execution aborts as
    soon as a new report lands. *)

type status =
  | Finished of int64 (** normal exit, R0 *)
  | Aborted           (** a bug report was raised *)
  | Error of string   (** environment problem, not a bug *)

type result = {
  status : status;
  insns_executed : int;
  reports : Bvf_kernel.Report.t list; (** new reports from this run *)
  witness : Bvf_kernel.Report.t list;
      (** witness-oracle escapes ([Report.Witness_escape]),
          deduplicated; kept out of [reports] so an escape never aborts
          or reorders the run *)
}

val is_transient : status -> bool
(** [Error]s modeling transient resource exhaustion (injected
    allocation failures, ENOMEM): a campaign may retry these. *)

val fuel_limit : int
(** Watchdog: instruction budget per execution. *)

val run :
  Bvf_kernel.Kstate.t -> run_attached:(string -> unit) ->
  Bvf_verifier.Verifier.loaded -> result
(** Execute a loaded program once.  [run_attached name] is invoked for
    every attach-point event fired during execution (the loader installs
    the dispatch to attached programs, depth-limited). *)
