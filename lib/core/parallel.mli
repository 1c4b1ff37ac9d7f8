(** Parallel campaign runner: shard one logical campaign across N
    OCaml 5 domains and merge the shard results into one
    {!Campaign.stats} — the syzkaller shape of fuzzing (independent VMs,
    central coverage merge) applied to the simulated kernel.

    Each shard owns its own simulated kernel, RNG stream
    ([seed + shard_index]), coverage map and corpus; shards share no
    mutable state, so the result is a pure function of
    [(seed, jobs, config, strategy)] regardless of domain scheduling.

    Shard-local iteration [j] of shard [s] maps to global iteration
    [j * jobs + s] (round-robin lockstep); with [jobs = 1] this is the
    identity and {!run} runs {!Campaign.run_t} in the calling domain,
    making the single-job path digest- and trace-identical to the
    sequential campaign. *)

(** One shard's outcome, in portable form. *)
type shard = {
  sh_index : int;
  sh_seed : int;
  sh_iterations : int;
  sh_stats : Campaign.stats;
  sh_corpus : Corpus.entry list;
  sh_edges : ((string * int) * int) list;
      (** {!Bvf_verifier.Coverage.named_edges} of the shard's map *)
}

type result = {
  pr_jobs : int;
  pr_iterations : int;
      (** iterations the shards completed: the whole budget, unless a
          supervised worker was retired *)
  pr_stats : Campaign.stats;
      (** merged: union coverage count, findings deduplicated at their
          earliest global iteration, counters and histograms summed, and
          a curve of summed per-shard edge counts (the raw per-VM signal,
          an upper bound on the union at each sample point) *)
  pr_cov : Bvf_verifier.Coverage.t; (** union coverage map *)
  pr_corpus : Corpus.t;
      (** shard corpora unioned and re-scored at global iterations *)
  pr_shards : shard list; (** in index order *)
}

val shard_iterations : iterations:int -> jobs:int -> int array
(** Round-robin split of the iteration budget: [iterations / jobs] each,
    plus one for the first [iterations mod jobs] shards.  Sums to
    [iterations].
    @raise Invalid_argument when [jobs < 1] or [iterations < 0]. *)

val global_iteration : jobs:int -> shard:int -> int -> int
(** [global_iteration ~jobs ~shard local] is [local * jobs + shard]. *)

val shard_trace_path : jobs:int -> string -> int -> string
(** [shard_trace_path ~jobs trace i] is the trace file shard [i]
    writes: [trace] itself when [jobs = 1], else
    [trace ^ ".shard" ^ i]. *)

(** {1 One shard setup and one join}

    Both executors — domains ({!run}) and forked processes
    ({!Supervisor.run}) — build a shard with {!with_shard}, step it with
    {!Campaign.run_t}, and fold the results with {!join}; their merged
    digests and traces are therefore byte-identical. *)

(** Shard [i]'s inputs. *)
type shard_env = {
  se_seed : int;  (** [seed + i] *)
  se_failslab : Bvf_kernel.Failslab.t option;
      (** seeded [failslab_seed + i] (default [seed + i]) when
          [failslab_rate > 0] *)
  se_telemetry : Telemetry.sink;
      (** writes {!shard_trace_path}, iterations rewritten to global
          numbering; {!Telemetry.null} without a trace *)
}

val with_shard :
  jobs:int -> seed:int -> failslab_rate:float option ->
  failslab_seed:int option -> trace:string option -> trace_pos:int option ->
  prof:Bvf_util.Prof.t -> int -> (shard_env -> 'a) -> 'a
(** [with_shard ... ~prof i f] builds shard [i]'s inputs and runs [f]
    inside one top-level "iterate" span on the track [prof].  With
    [trace_pos] the shard trace is {!Telemetry.reopen}ed at that offset
    (a restarted worker) instead of truncated.  The sink is closed when
    [f] returns or raises. *)

val join :
  jobs:int -> trace:string option ->
  prof:Bvf_util.Prof.t ->
  (int * (Campaign.snapshot, exn) Stdlib.result) list -> result
(** [join ~jobs ~trace ~prof finals] folds shard results:
    each [(i, Ok s)] is shard [i]'s final snapshot, renumbered from
    local to global iterations.  With a trace and [jobs > 1] the shard
    trace files are merged into [trace] and removed.  If any entry is
    [Error e], the shard traces are removed and the first such [e] is
    re-raised.  The coverage union, stats merge and corpus merge are
    recorded as "trace-merge", "absorb" and "merge" spans on [prof].
    @raise Campaign.Environment when no shard left a result. *)

val snapshot_of_result : Campaign.snapshot -> result -> Campaign.snapshot
(** [snapshot_of_result template r] is the join result [r] as a
    snapshot with [template]'s tool, kernel, seed and config flags and
    [sn_merged] set: reportable and re-mergeable, not resumable. *)

val merge_snapshots :
  Campaign.snapshot list -> Campaign.snapshot
(** Offline checkpoint merge (the [bvf merge] core): fold independent
    campaign snapshots — per-worker checkpoints, or checkpoints fuzzed
    on different machines — into one reportable snapshot through
    {!join}.  Inputs keep their own (already global) iteration numbers;
    nothing is renumbered.  Associative and commutative on everything
    {!Campaign.digest} covers (the capped, re-scored corpus and the
    summed wall-clock phase timers are the only order-sensitive fields,
    and both are outside the digest).  The result has [sn_merged] set:
    it can be merged again or reported, but {!Campaign.resume} refuses
    it.
    @raise Invalid_argument on an empty list.
    @raise Campaign.Environment when inputs disagree on tool, kernel
    version, or config flags. *)

val run :
  ?sample_every:int -> ?trace:string -> ?log_level:int ->
  ?failslab_rate:float -> ?failslab_seed:int ->
  ?on_step:(int -> Campaign.t -> unit) ->
  ?prof:Bvf_util.Prof.session ->
  jobs:int -> seed:int -> iterations:int -> Campaign.strategy ->
  Bvf_kernel.Kconfig.t -> result
(** Run [iterations] total fuzzing iterations sharded across [jobs]
    domains.  Shard [i] fuzzes with seed [seed + i] (and, when
    [failslab_rate > 0], a fault plan seeded [failslab_seed + i],
    defaulting [failslab_seed] to [seed]).  [jobs = 1] runs in the
    calling domain and is digest-identical to {!Campaign.run}.

    [trace] writes a {!Telemetry} JSONL stream: each shard writes
    [trace ^ ".shard" ^ i] with iterations rewritten to global
    numbering, and the join merges (stable-sorted by iteration) into
    [trace] and removes the shard files.  With [jobs = 1] the campaign
    writes [trace] directly, byte-identical to a sequential run's
    trace.  [log_level] sets the verifier log level for every load.
    [on_step shard] builds the per-shard step observer (the
    [--progress] status line); it runs on the shard's domain after each
    completed iteration and must not mutate the campaign.
    [prof] (default {!Bvf_util.Prof.null}) records the run as profiler
    spans: track [i] carries shard [i]'s "iterate" span with the
    campaign phase spans nested inside, track [jobs] the coordinator's
    spawn/join/trace-merge/absorb/merge work.  Pure observation — a
    profiled run's digest and trace are byte-identical to an
    unprofiled one.
    @raise Invalid_argument when [jobs < 1].
    @raise Campaign.Environment (or any other exception) if a shard
    raises it: every domain is joined and the shard trace files are
    removed first, and the lowest-indexed shard's exception wins. *)

val digest : result -> string
(** {!Campaign.digest} of the merged stats: one canonical hex digest for
    the whole parallel campaign, deterministic for fixed (seed, jobs). *)

val pp_summary : Format.formatter -> result -> unit
