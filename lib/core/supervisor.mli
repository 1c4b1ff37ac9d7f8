(** Process lanes: crash- and hang-resilient shard execution.

    The fuzz driver, [Parallel.run], runs every shard task on a lane.
    A domain lane shares the process: fast, but one analyzer crash, OOM
    or unbounded analysis takes every shard's in-memory state with it.
    With [~supervise], each shard task runs on a {b process lane}
    instead: a forked OS worker under a watchdog.  The driver plans the
    run, hands each incarnation its shard task and joins the shard
    files; this module is what makes a lane a process:

    - each worker runs its task in a forked child, which exits through
      [Unix._exit] only.  The task gets a [skip] hook that writes a
      heartbeat file ([worker-<i>.hb], ["seq local global pid"]) before
      every iteration, runs the [fault] hook and skips quarantined
      iterations, and a [stop] hook that polls SIGTERM/SIGINT;
    - the parent polls heartbeats and child exits: a non-zero exit, a
      fatal signal, or a heartbeat older than [deadline_s] kills the
      worker and restarts it with exponential backoff (the task resumes
      from the shard's last saved state);
    - every kill is recorded as a {!Triage.harness_crash} artifact
      ([crash-NNN.json]) and the implicated iteration is {b
      quarantined} ([quarantine.list]): the restarted worker replays
      its segment deterministically but skips the quarantined
      iteration, so a deterministic crasher cannot wedge the pool;
    - a worker that exceeds [max_restarts] is {b retired}: the pool
      shrinks, its last saved state still joins the merge, and the
      abandoned remainder of its shard is reported — never silently
      dropped.

    See [docs/RESILIENCE.md] for the supervision state machine and the
    exit-code table. *)

(** {1 Policy} *)

type policy = {
  deadline_s : float;  (** heartbeat watchdog deadline, seconds *)
  poll_s : float;      (** the parent's poll interval, seconds *)
  max_restarts : int;  (** restarts of one worker before it retires *)
  backoff_s : float;
      (** base of the exponential restart backoff:
          [backoff_s * 2^(restarts-1)] *)
  quarantine : int list;
      (** global iterations to skip from the start: the chaos harness
          feeds a disturbed run's [quarantine.list] to a fault-free
          reference run to compare digests over the undisturbed set *)
  fault : (worker:int -> local:int -> global:int -> unit) option;
      (** deterministic fault injection, run {b in the child} before
          each non-skipped iteration; tests use it to crash, self-kill
          or hang a chosen iteration *)
}

val default_policy : policy
(** [deadline_s = 30], [poll_s = 0.05], [max_restarts = 5],
    [backoff_s = 0.5], no quarantine, no fault. *)

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

(** {1 Running the lanes} *)

type task =
  int -> prof:Bvf_util.Prof.t -> skip:(Telemetry.sink -> int -> bool) ->
  stop:(unit -> bool) -> unit
(** One incarnation of shard [i]'s task, run in the forked child: it
    steps the shard from its last saved state with these {!Campaign.run_t}
    hooks ([skip] also gets the shard's sink, which it flushes after the
    heartbeat) and saves the shard's state before it returns. *)

type pool
(** The supervision record of a finished {!lanes} run. *)

val lanes :
  policy -> prof:Bvf_util.Prof.session -> coordinator:Bvf_util.Prof.t ->
  stop:(int -> bool) -> dir:string -> workers:int -> finished:(int -> bool) ->
  task -> pool
(** [lanes policy ~prof ~coordinator ~stop ~dir ~workers ~finished task]
    runs [task i] in a supervised worker process for every
    [i < workers] that is not [finished i] (a finished shard is reported
    completed and never forked), with the protocol files under [dir],
    and returns once every worker has completed, retired or been
    interrupted.

    [stop i] is polled by the parent: once it holds, worker [i] receives
    SIGTERM, saves and exits, and a worker waiting to start or restart
    never does, so a stop before the first poll forks nothing.

    Each child records into its own session and hands its totals (and,
    when [prof] records spans, its spans) to the parent through
    [worker-<i>.prof] at clean exit; they are absorbed into [prof] as
    track [i] ({!absorb_profs}), so a track covers the worker's last,
    completed incarnation or is absent.  Track [i] carries the task's
    spans with "heartbeat" nested inside; [coordinator] gets a "fork"
    or "restart" span per start.
    @raise Unix.Unix_error or [Failure] when a worker cannot be forked
    (OCaml 5 forbids [Unix.fork] once the process spawned a domain). *)

(** {1 Outcome} *)

type worker_outcome =
  | Outcome_completed    (** finished its shard *)
  | Outcome_retired      (** exceeded [max_restarts]; pool shrank *)
  | Outcome_interrupted  (** stopped by the run's stop *)

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

val report : pool -> assigned:int array -> completed:int array -> report
(** The pool's report, given each shard's budget and the local
    iterations its final shard file holds. *)

val quarantine_of_file : string -> int list
(** Parse a [quarantine.list]-format file (one global iteration per
    line, [#] comments and blanks ignored); missing file is empty. *)

val pp_report : Format.formatter -> report -> unit
