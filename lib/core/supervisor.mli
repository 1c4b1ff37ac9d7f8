(** Supervised, crash- and hang-resilient campaign runner.

    {!Parallel} shards a campaign across OCaml domains in one process —
    fast, but a single analyzer crash (or an unbounded analysis the
    {!Bvf_verifier.Venv} budgets somehow miss) takes every shard's
    in-memory state with it.  This module runs the same sharded
    campaign across {b forked OS worker processes} under a watchdog:

    - each worker runs one deterministic shard (seed [seed + i], the
      round-robin split of {!Parallel.shard_iterations}) through
      {!Parallel.run_shard}, the function a domain steps its shard
      with, and so keeps the shard's state ([shard-<i>.ckpt]) in [dir]
      the way a [Parallel.run ~dir] shard does.  Its own parts ride on
      {!Campaign.run_t}'s hooks: [skip] writes a heartbeat file
      ([worker-<i>.hb]) before every iteration, runs the [fault] hook
      and skips quarantined iterations; [stop] polls SIGTERM/SIGINT;
    - the supervisor polls heartbeats and child exits: a non-zero
      exit, a fatal signal, or a heartbeat older than [deadline_s]
      kills the worker and restarts it from its last saved state with
      exponential backoff;
    - every kill is recorded as a {!Triage.harness_crash} artifact
      ([crash-NNN.json]) and the implicated iteration is {b
      quarantined} ([quarantine.list]): the restarted worker replays
      its segment deterministically but skips the quarantined
      iteration, so a deterministic crasher cannot wedge the pool;
    - a worker that exceeds [max_restarts] is {b retired}: the pool
      shrinks, its last saved state still joins the merge, and the
      abandoned remainder of its shard is reported — never silently
      dropped;
    - the final shard states are folded by {!Parallel.join}, the join
      [Parallel.run] uses, so a fault-free supervised run produces the
      same merged stats and digest as [Parallel.run ~jobs:workers] with
      the same [checkpoint_every], and the same trace bytes apart from
      the workers' checkpoint events.

    The state directory is the one {!Parallel} layout, so rerunning
    with the same [dir] — under [Supervisor.run] or [Parallel.run] with
    as many shards — resumes every shard from its file; a worker whose
    file holds its whole shard is reported as completed without running
    again.  When no worker runs, [trace] is not touched
    ([Parallel.pr_idle]).  A shard file cut for another request is
    refused before any worker forks ({!Parallel.saved_state}).  See
    [docs/RESILIENCE.md] for the supervision state machine and the
    exit-code table. *)

(** {1 Worker profiles} *)

type worker_prof = {
  wp_totals : Bvf_util.Prof.total list;
  wp_spans : Bvf_util.Prof.span list;  (** empty unless recording spans *)
}

val prof_tag : string
(** {!Checkpoint} tag of the [worker-<i>.prof] files ({!worker_prof}). *)

val absorb_profs : Bvf_util.Prof.session -> dir:string -> workers:int -> unit
(** Fold each [worker-<i>.prof] under [dir] into the session as track
    [i]; a missing or damaged file is skipped, never raises. *)

(** {1 Outcome} *)

type worker_outcome =
  | Outcome_completed    (** finished its shard *)
  | Outcome_retired      (** exceeded [max_restarts]; pool shrank *)
  | Outcome_interrupted  (** stopped by the supervisor's own stop *)

type worker_report = {
  wr_worker : int;
  wr_outcome : worker_outcome;
  wr_assigned : int;   (** local iterations budgeted for the shard *)
  wr_completed : int;  (** local iterations in its shard file *)
  wr_restarts : int;
}

type report = {
  rp_workers : worker_report list;  (** in index order *)
  rp_crashes : Triage.harness_crash list;  (** in occurrence order *)
  rp_quarantined : int list;
      (** global iterations skipped (preloaded + crash-implicated),
          sorted ascending *)
  rp_abandoned : (int * int * int) list;
      (** [(worker, first_local, last_local)] ranges a retired or
          interrupted worker never executed *)
}

type outcome =
  | Completed of Parallel.result * report
      (** every worker completed or retired; the result merges every
          shard file *)
  | Interrupted of report
      (** [stop] fired: workers were signalled, saved their shard
          states and exited; rerun with the same [dir] to resume, or
          [bvf merge] the shard files *)

val quarantine_of_file : string -> int list
(** Parse a [quarantine.list]-format file (one global iteration per
    line, [#] comments and blanks ignored); missing file is empty. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Running} *)

val run :
  ?sample_every:int ->
  ?log_level:int ->
  ?trace:string ->
  ?failslab_rate:float ->
  ?failslab_seed:int ->
  ?checkpoint_every:int ->
  ?deadline_s:float ->
  ?poll_s:float ->
  ?max_restarts:int ->
  ?backoff_s:float ->
  ?quarantine:int list ->
  ?fault:(worker:int -> local:int -> global:int -> unit) ->
  ?prof:Bvf_util.Prof.session ->
  ?stop:(unit -> bool) ->
  workers:int -> seed:int -> iterations:int -> dir:string ->
  Campaign.strategy -> Bvf_kernel.Kconfig.t -> outcome
(** Run [iterations] total iterations sharded across [workers] forked
    processes supervised from the calling process, with protocol files
    under [dir] (created if missing).

    [checkpoint_every] (default 1000) is the worker barrier cadence in
    local iterations; [deadline_s] (default 30) the heartbeat watchdog
    deadline; [poll_s] (default 0.05) the supervisor poll interval;
    [max_restarts] (default 5) per-worker restarts before retiring;
    [backoff_s] (default 0.5) the base of the exponential restart
    backoff ([backoff_s * 2^(restarts-1)]).

    [quarantine] preloads global iterations to skip — the chaos
    harness feeds a disturbed run's [quarantine.list] to a fault-free
    reference run to compare digests over the undisturbed set.
    [fault ~worker ~local ~global] is a deterministic fault-injection
    hook run {b in the child} before each non-skipped iteration; tests
    use it to crash, self-kill or hang a chosen iteration.  [stop] is
    polled by the supervisor; when it returns [true] workers receive
    SIGTERM, save and exit — the CLI's SIGINT/SIGTERM path.

    [prof] (default: a session without spans) collects the run's
    totals and, if it records spans, its spans: track [i] carries
    worker [i]'s "iterate" span with the campaign phase, "heartbeat"
    and "checkpoint" spans nested inside,
    track [workers] the supervisor's fork/restart/join work.  Each
    child hands its totals and spans to the parent through a
    [worker-<i>.prof] file at clean exit ({!absorb_profs}), so a track
    covers the worker's last, completed incarnation or is absent.  Pure
    observation — a profiled run's digest and trace are byte-identical
    to an unprofiled one.

    The supervisor holds [dir] under {!Parallel.with_lock} for the
    whole run, so no other supervisor or [--jobs] run writes it.

    @raise Invalid_argument when [workers < 1].
    @raise Parallel.Bad_state when a shard file in [dir] cannot be read.
    @raise Campaign.Environment when [dir] is locked by a live run, or
    holds a shard file of another campaign (the message
    names [dir], the file and the field), or when the run completes but
    no worker ever saved a shard state to merge. *)
