(** Parallel campaign runner: shard one logical campaign into N shards,
    run them on at most one OCaml 5 domain per core, and merge the
    shard results into one {!Campaign.stats} — the syzkaller shape of
    fuzzing (independent VMs, central coverage merge) applied to the
    simulated kernel.

    Each shard owns its own simulated kernel, RNG stream
    ([seed + shard_index]), coverage map and corpus; shards share no
    mutable state, so the result is a pure function of
    [(seed, jobs, config, strategy)] regardless of domain scheduling.

    Shard-local iteration [j] of shard [s] maps to global iteration
    [j * jobs + s] (round-robin lockstep).  With [jobs = 1] this is the
    identity, and {!run} {i is} the sequential campaign: one shard
    stepped in the calling domain, digest- and trace-identical to
    {!Campaign.run}.  Every [bvf fuzz] without [--workers] runs here. *)

(** One shard's outcome, in portable form. *)
type shard = {
  sh_index : int;
  sh_seed : int;
  sh_iterations : int;
  sh_stats : Campaign.stats;
  sh_corpus : Corpus.entry list;
  sh_edges : ((string * int) * int) list;
      (** {!Bvf_verifier.Coverage.named_edges} of the shard's map *)
  sh_failslab : Bvf_kernel.Failslab.t;
      (** the shard's fault plan, as its final snapshot holds it *)
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

(** {1 One shard loop and one join}

    Both executors — domains ({!run}) and forked processes
    ({!Supervisor.run}) — build and step a shard with {!run_shard} and
    fold the results with {!join}; their merged digests and traces are
    therefore byte-identical. *)

val run_shard :
  ?sample_every:int -> ?log_level:int -> ?checkpoint_every:int ->
  ?checkpoint:(Telemetry.sink -> Campaign.t -> unit) ->
  ?resume_from:Campaign.snapshot -> ?skip:(Telemetry.sink -> int -> bool) ->
  ?stop:(unit -> bool) -> ?on_step:(Campaign.t -> unit) -> ?trace_pos:int ->
  jobs:int -> seed:int -> failslab_rate:float option ->
  failslab_seed:int option -> trace:string option -> prof:Bvf_util.Prof.t ->
  iterations:int -> finish:(Telemetry.sink -> Campaign.t -> 'a) ->
  Campaign.strategy -> Bvf_kernel.Kconfig.t -> int -> 'a
(** [run_shard ... ~finish strategy config i] builds shard [i] (seed
    [seed + i], the fault plan {!run} describes, a sink writing
    {!shard_trace_path} in global numbering) and steps it [iterations]
    times with {!Campaign.run_t}, whose hooks these are; [checkpoint]
    and [skip] also get the sink.  [finish sink c] makes the result from
    the final campaign while the sink is open.  With [trace_pos] the
    shard trace is {!Telemetry.reopen}ed at that offset (a restarted
    worker) instead of truncated.  Runs inside one "iterate" span on
    [prof]; the sink is closed when the shard returns or raises. *)

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
    recorded as "trace_merge", "absorb" and "merge" spans on [prof].
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
    {!Campaign.digest} covers (the capped, re-scored corpus is the only
    order-sensitive field, and it is outside the digest).  The result has [sn_merged] set:
    it can be merged again or reported, but {!Campaign.resume} refuses
    it.
    @raise Invalid_argument on an empty list.
    @raise Campaign.Environment when inputs disagree on tool, kernel
    version, or config flags. *)

val run :
  ?sample_every:int -> ?trace:string -> ?log_level:int ->
  ?failslab_rate:float -> ?failslab_seed:int -> ?checkpoint_every:int ->
  ?checkpoint:(int -> Campaign.t -> unit) ->
  ?resume_from:(int -> Campaign.snapshot) -> ?stop:(int -> unit -> bool) ->
  ?on_step:(int -> Campaign.t -> unit) ->
  ?prof:Bvf_util.Prof.session ->
  jobs:int -> seed:int -> iterations:int -> Campaign.strategy ->
  Bvf_kernel.Kconfig.t -> result
(** Run [iterations] total fuzzing iterations sharded into [jobs]
    shards, run over {!Bvf_util.Lanes}: at most one domain per core,
    the calling domain running shard 0.  Shard [i] fuzzes with seed
    [seed + i] (and, when [failslab_rate > 0], a fault plan seeded
    [failslab_seed + i], defaulting [failslab_seed] to [seed]).
    [jobs = 1] runs in the calling domain and is digest-identical to
    {!Campaign.run}: it is the sequential campaign.

    [trace] writes a {!Telemetry} JSONL stream: each shard writes
    [trace ^ ".shard" ^ i] with iterations rewritten to global
    numbering, and the join merges (stable-sorted by iteration) into
    [trace] and removes the shard files.  With [jobs = 1] the campaign
    writes [trace] directly, byte-identical to a sequential run's
    trace.  [log_level] sets the verifier log level for every load.
    [checkpoint_every] reboots each shard's kernel after every
    [checkpoint_every] shard-local iterations, the barrier schedule of
    a sequential campaign and of a supervised worker; by default there
    are no barriers.  [checkpoint shard], [resume_from shard] and
    [stop shard] are shard [shard]'s {!Campaign.run_t} hooks: a stopped
    shard finishes its in-flight iteration, and the join merges what
    every shard completed.
    [on_step shard] builds the per-shard step observer (the
    [--progress] status line); it runs on the domain of the shard's
    lane (shard 0: the caller) after each completed iteration and must
    not mutate the campaign.
    [prof] (default: a session that records no spans) collects the
    run's per-name totals and, when it records spans, its profiler
    spans: track [i] carries shard [i]'s "iterate" span with the
    campaign phase spans nested inside, track [jobs] the calling
    domain's coordinator work: "spawn" (starting the other lanes),
    "join" (waiting for them once its own shards are done),
    "trace_merge", "absorb" and "merge".  The CLI builds the
    trace's closing profile line from {!Bvf_util.Prof.session_totals}.  Pure observation — a
    profiled run's digest and trace are byte-identical to an
    unprofiled one.
    @raise Invalid_argument when [jobs < 1].
    @raise Campaign.Environment (or any other exception) if a shard
    raises it: every other shard still runs, every lane is joined and
    the shard trace files are removed first, and the lowest-indexed
    shard's exception wins. *)

val digest : result -> string
(** {!Campaign.digest} of the merged stats: one canonical hex digest for
    the whole parallel campaign, deterministic for fixed (seed, jobs). *)

val pp_summary : Format.formatter -> result -> unit
(** The merged {!Campaign.pp_summary}, then one line per shard when
    [pr_jobs > 1], then each shard's {!Bvf_kernel.Failslab.pp_summary}
    line when its plan injects faults. *)
