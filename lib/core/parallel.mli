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
    {!Campaign.run}.  {!run} is the one driver of every [bvf fuzz]:
    each shard task runs on a domain lane, or with [~supervise] on a
    supervised process lane ({!Supervisor.lanes}). *)

(** A shard's state: what its [shard-<i>.ckpt] file holds (see the
    state directory below), and what a run's join merges. *)
type state = {
  ss_shard : int;  (** shard index *)
  ss_jobs : int;   (** shard count the campaign was cut into *)
  ss_trace_pos : int;
      (** byte offset of the shard's trace when saved; a resumed shard
          reopens its trace here, so a shard resumed from a barrier
          writes a straight run's trace *)
  ss_snapshot : Campaign.snapshot;
      (** the point a resumed shard continues from, in shard-local
          iteration numbering: the last barrier's or the stop's
          snapshot (taken before its reboot), or the final one of a
          shard whose budget ended off a barrier *)
  ss_final : Campaign.snapshot option;
      (** a shard whose budget ended on a barrier or a stop: its final
          snapshot, which counts the reboot that followed the save *)
}

type result = {
  pr_jobs : int;
  pr_iterations : int;
      (** iterations the shards completed: the whole budget, unless a
          supervised worker was retired or the run was stopped *)
  pr_idle : bool;
      (** no shard ran: every shard file in the state directory already
          held its whole budget, and the trace was not touched *)
  pr_stats : Campaign.stats;
      (** merged: union coverage count, findings deduplicated at their
          earliest global iteration, counters and histograms summed, and
          a curve of summed per-shard edge counts (the raw per-VM signal,
          an upper bound on the union at each sample point) *)
  pr_cov : Bvf_verifier.Coverage.t; (** union coverage map *)
  pr_corpus : Corpus.t;
      (** shard corpora unioned and re-scored at global iterations *)
  pr_shards : state list;
      (** each shard's state as the join read it, in index order; its
          {!final_snapshot} holds the shard's own stats, coverage,
          corpus and fault plan *)
  pr_report : Supervisor.report option;
      (** process lanes ([~supervise]) only: each worker's outcome,
          restarts, crashes, quarantine and abandoned ranges *)
}

val shard_iterations : iterations:int -> jobs:int -> int array
(** Round-robin split of the iteration budget: [iterations / jobs] each,
    plus one for the first [iterations mod jobs] shards.  Sums to
    [iterations].
    @raise Invalid_argument when [jobs < 1] or [iterations < 0]. *)

val global_iteration : jobs:int -> shard:int -> int -> int
(** [global_iteration ~jobs ~shard local] is [local * jobs + shard]. *)

val final_snapshot : state -> Campaign.snapshot
(** [ss_final] when present, else [ss_snapshot]: the shard as it
    ended. *)

val shard_trace_path : jobs:int -> string -> int -> string
(** [shard_trace_path ~jobs trace i] is the trace file shard [i]
    writes: [trace] itself when [jobs = 1], else
    [trace ^ ".shard" ^ i]. *)

(** {1 The state directory}

    A run with a state directory, on either lane kind, keeps one file
    per shard: [shard-<i>.ckpt], one {!state} record in the
    {!Checkpoint} container.  A plain run is one shard.  A shard saves
    it at every [checkpoint_every] barrier, at a stop and when its
    budget is done; a rerun over the directory resumes each shard from
    its file, and a shard whose file holds its whole budget is
    reported, not re-run.  See [docs/RESILIENCE.md]. *)

exception Bad_state of string * Checkpoint.error
(** [Bad_state (path, e)]: [path] is not a readable shard file (damaged,
    another format or tag, or unreadable). *)

val state_path : string -> int -> string
(** [state_path dir i] is [dir/shard-<i>.ckpt]. *)

val lock_path : string -> string
(** [lock_path dir] is [dir/state.lock]: it holds the pid of the one
    live {!run} over [dir] while that run lasts, so two runs never
    write one directory's shard files.  A lock whose owner is dead is
    stale and is broken. *)

val load_state : string -> state
(** Read one shard file.
    @raise Bad_state when it cannot. *)

val save_state : string -> state -> unit
(** Atomically write one shard file.
    @raise Campaign.Environment when the write fails. *)

val saved_state :
  ?failslab_rate:float -> ?failslab_seed:int ->
  dir:string -> jobs:int -> seed:int -> iterations:int ->
  Campaign.strategy -> Bvf_kernel.Kconfig.t -> int -> state option
(** [saved_state ~dir ~jobs ~seed ~iterations strategy config i] loads
    shard [i]'s file of the [iterations]-long run over [jobs] shards
    ([None] when there is none) and checks that it belongs to that run.
    @raise Bad_state when the file cannot be read.
    @raise Campaign.Environment when it was cut for another run: a
    different shard count, shard, seed, tool, or config (any
    {!Bvf_kernel.Kconfig.fields} entry, the bug set included), a fault
    plan of another rate or seed than {!run}'s [failslab_rate] and
    [failslab_seed] build for the shard, a merged artifact, or more
    iterations than the shard is assigned (the message names [dir], the
    file and the field). *)

val merge_states : state list -> state
(** Offline merge (the [bvf merge] core): fold shard files — of one run
    or of runs fuzzed on different machines — into one reportable state
    through {!run}'s join.  Each input is renumbered to global iterations by
    its own [ss_jobs] and [ss_shard]; the result is shard 0 of one, so
    merging it again renumbers nothing.  Associative and commutative on
    everything {!Campaign.digest} covers (the capped, re-scored corpus
    is the only order-sensitive field, and it is outside the digest).
    The result has [sn_merged] set: it can be merged again or reported,
    but not resumed.
    @raise Invalid_argument on an empty list.
    @raise Campaign.Environment when inputs disagree on the tool or
    the config (any {!Bvf_kernel.Kconfig.fields} entry, the bug set
    included).  Fault plans are not compared: a merged state holds
    none. *)

val run :
  ?sample_every:int -> ?trace:string ->
  ?failslab_rate:float -> ?failslab_seed:int -> ?checkpoint_every:int ->
  ?dir:string -> ?stop:(int -> unit -> bool) ->
  ?on_step:(int -> Campaign.t -> unit) -> ?supervise:Supervisor.policy ->
  ?prof:Bvf_util.Prof.session ->
  jobs:int -> seed:int -> iterations:int -> Campaign.strategy ->
  Bvf_kernel.Kconfig.t -> result
(** Run [iterations] total fuzzing iterations sharded into [jobs]
    shards.  Shard [i] fuzzes with seed [seed + i] (and, when
    [failslab_rate > 0], a fault plan seeded [failslab_seed + i],
    defaulting [failslab_seed] to [seed]).

    The run has three steps, whichever lane kind runs the shards.
    {b Plan}: with [dir], every shard file is checked with
    {!saved_state} before any shard starts; a shard whose file holds
    its whole budget is reported, not re-run.  {b Run}: each remaining
    shard task resumes from its file (or from zero) and steps its shard
    with {!Campaign.run_t}.  {b End}: the final states are joined (the
    coverage union, the stats and corpus merge, the trace merge); when
    every shard had finished before the run, the result has [pr_idle]
    set and [trace] is not touched.

    Without [supervise] the shards run over {!Bvf_util.Lanes}: at most
    one domain per core, the calling domain running shard 0, so
    [jobs = 1] is digest-identical to {!Campaign.run}: it is the
    sequential campaign.  With [supervise] (which needs [dir]) each
    shard task runs in a forked worker process under
    {!Supervisor.lanes} with that policy: a crash, OOM or hang costs
    the worker a restart from its last saved state, and the result
    carries the supervision {!Supervisor.report} in [pr_report].  A
    fault-free supervised run has the merged stats, digest and trace of
    a domain-lane run with the same [checkpoint_every], apart from the
    workers' checkpoint events.

    [trace] writes a {!Telemetry} JSONL stream: each shard writes
    [trace ^ ".shard" ^ i] with iterations rewritten to global
    numbering, and the join merges (stable-sorted by iteration) into
    [trace] and removes the shard files (with [dir], once every shard
    has finished: until then a rerun continues them).  With [jobs = 1]
    the campaign writes [trace] directly, byte-identical to a
    sequential run's trace.  [checkpoint_every] reboots each shard's
    kernel after every [checkpoint_every] shard-local iterations (by
    default there are no barriers), and with [dir] saves the shard's
    file there.  [dir] is the state directory (created if missing;
    without it the run writes no state), held through {!lock_path} for
    the whole run.

    [stop shard] is shard [shard]'s stop: on a domain lane it is the
    {!Campaign.run_t} stop hook, and on a process lane the parent polls
    it and signals the worker.  A stopped shard finishes its in-flight
    iteration and saves its state; a shard stopped before it starts
    builds nothing (it reports its file or a fresh {!Campaign.fresh}
    snapshot; no worker is forked for it), and the join merges what
    every shard completed.  [on_step shard] builds the per-shard step
    observer (the [--progress] status line); it runs on the shard's
    lane (shard 0 of a domain run: the caller; a process lane: the
    worker) after each completed iteration and must not mutate the
    campaign.

    [prof] (default: a session that records no spans) collects the
    run's per-name totals and, when it records spans, its profiler
    spans: track [i] carries shard [i]'s "iterate" span with the
    campaign phase spans nested inside (for a process lane, the
    worker's last completed incarnation, with its "heartbeat" spans),
    track [jobs] the calling domain's coordinator work: "spawn" and
    "join" (domain lanes) or "fork" and "restart" (process lanes),
    then "trace_merge", "absorb" and "merge".  The CLI builds the
    trace's closing profile line from {!Bvf_util.Prof.session_totals}.
    Pure observation — a profiled run's digest and trace are
    byte-identical to an unprofiled one.
    @raise Invalid_argument when [jobs < 1], or [supervise] is given
    without [dir].
    @raise Bad_state when a shard file in [dir] cannot be read.
    @raise Campaign.Environment when a live run holds [dir]'s lock, or
    [dir] holds a shard file of another run ({!saved_state}).
    @raise Campaign.Environment (or any other exception) if a shard
    raises it on a domain lane: every other shard still runs, every
    lane is joined and (without [dir]) the shard trace files are
    removed first, and the lowest-indexed shard's exception wins. *)

val digest : result -> string
(** {!Campaign.digest} of the merged stats: one canonical hex digest for
    the whole parallel campaign, deterministic for fixed (seed, jobs). *)

val pp_summary : Format.formatter -> result -> unit
(** The merged {!Campaign.pp_summary}, then one line per shard when
    [pr_jobs > 1], then each shard's {!Bvf_kernel.Failslab.pp_summary}
    line when its plan injects faults. *)
