open Cimport

(* Fuzzing campaign driver: the outer loop of Figure 3.  One campaign
   owns a simulated kernel (recreated when it "crashes", like rebooting
   a fuzzing VM), a coverage map that persists across reboots, a corpus
   of coverage-increasing inputs, and the dedup table of findings.

   The driver is strategy-parametric so the same harness runs BVF and
   the Syzkaller/Buzzer baselines under identical conditions (same
   syscall surface, same coverage instrumentation) — the methodology of
   the paper's section 6.3.

   Production shape: campaigns run for days, so the driver also carries
   the robustness machinery —

   - a {!Bvf_kernel.Failslab} fault plan threaded through the kernel, so
     allocation failures are part of the tested environment; transient
     -ENOMEM outcomes are retried (with a reboot as escalation) and
     counted, never classified as findings;
   - periodic checkpoints: corpus, coverage, stats, RNG and fault-plan
     state are atomically persisted at a reboot boundary, so a killed
     campaign resumes from disk and replays the exact continuation of
     the uninterrupted run;
   - the reboot-storm breaker: corpus entries implicated in consecutive
     fatal reboots are quarantined instead of re-picked forever. *)

type strategy = {
  s_name : string;
  s_feedback : bool; (* coverage-guided corpus mutation *)
  s_generate :
    Rng.t -> Gen.config -> Verifier.request option -> Verifier.request;
    (* seed program (from the corpus) provided when feedback is on *)
}

(* The paper's tool: structured generation + coverage feedback. *)
let bvf_strategy : strategy =
  {
    s_name = "BVF";
    s_feedback = true;
    s_generate =
      (fun rng cfg seed ->
         match seed with
         | Some req when Rng.chance rng 0.4 ->
           Mutate.mutate_request rng ~version:cfg.Gen.c_version req
         | Some _ | None -> Gen.generate rng cfg);
  }

type found = {
  fd_finding : Oracle.finding;
  fd_iteration : int;
  fd_request : Verifier.request;
}

type sample = { sa_iteration : int; sa_edges : int }

type stats = {
  st_tool : string;
  st_version : Version.t;
  mutable st_generated : int;
  mutable st_accepted : int;
  mutable st_rejected : int;
  st_errno : (Venv.errno, int) Hashtbl.t;
  st_reasons : (Reject_reason.t, int) Hashtbl.t;
      (* rejection taxonomy (Venv.verr classification) *)
  st_findings : (string, found) Hashtbl.t; (* fingerprint -> first *)
  mutable st_curve : sample list;          (* newest first *)
  mutable st_histogram : Disasm.class_histogram;
  mutable st_edges : int;
  mutable st_reboots : int;
  mutable st_env_errors : int;  (* transient errors that survived retry *)
  mutable st_retries : int;     (* transient errors retried away *)
  mutable st_quarantined : int; (* corpus entries storm-quarantined *)
  mutable st_skipped : int;     (* iterations skipped because a prior
                                   run's harness crash quarantined them *)
  mutable st_lint : int;        (* invariant-lint violations observed
                                   (Kconfig.lint); never findings *)
  (* veristat-style verifier-counter aggregate: totals, maxima and log2
     histograms over every analysis that ran.  Deterministic, so part
     of [digest]; merged across shards like coverage. *)
  st_vstats : Vstats.agg;
}

let acceptance_rate (s : stats) : float =
  if s.st_generated = 0 then 0.0
  else float_of_int s.st_accepted /. float_of_int s.st_generated

let bugs_found (s : stats) : Kconfig.bug list =
  Hashtbl.fold
    (fun _ f acc ->
       match f.fd_finding.Oracle.f_bug with
       | Some b when not (List.mem b acc) -> b :: acc
       | _ -> acc)
    s.st_findings []

let correctness_bugs_found (s : stats) : Kconfig.bug list =
  Hashtbl.fold
    (fun _ f acc ->
       match f.fd_finding.Oracle.f_bug with
       | Some b
         when f.fd_finding.Oracle.f_correctness && not (List.mem b acc) ->
         b :: acc
       | _ -> acc)
    s.st_findings []

let fingerprints (s : stats) : string list =
  Hashtbl.fold (fun key _ acc -> key :: acc) s.st_findings []
  |> List.sort compare

(* Canonical digest of everything a campaign observed: two campaigns
   with equal digests generated the same programs and saw the same
   outcomes.  Used by the checkpoint/resume determinism tests and handy
   for comparing reproduction runs across machines. *)
(* [exclude_finding] drops finding lines whose key matches, so a
   campaign run with an extra report class (the witness oracle) can be
   digest-compared against one run without it. *)
let digest ?(exclude_finding = fun (_ : string) -> false) (s : stats) :
  string =
  let b = Buffer.create 512 in
  Printf.bprintf b "%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n" s.st_tool
    (Version.to_string s.st_version)
    s.st_generated s.st_accepted s.st_rejected s.st_edges s.st_reboots
    s.st_env_errors s.st_retries s.st_quarantined s.st_skipped s.st_lint;
  Hashtbl.fold (fun e n acc -> (Venv.errno_to_string e, n) :: acc)
    s.st_errno []
  |> List.sort compare
  |> List.iter (fun (e, n) -> Printf.bprintf b "errno %s %d\n" e n);
  Hashtbl.fold (fun r n acc -> (Reject_reason.to_string r, n) :: acc)
    s.st_reasons []
  |> List.sort compare
  |> List.iter (fun (r, n) -> Printf.bprintf b "reason %s %d\n" r n);
  Hashtbl.fold
    (fun key f acc ->
       if exclude_finding key then acc else (key, f.fd_iteration) :: acc)
    s.st_findings []
  |> List.sort compare
  |> List.iter (fun (key, it) -> Printf.bprintf b "finding %s @%d\n" key it);
  List.iter
    (fun sa -> Printf.bprintf b "curve %d %d\n" sa.sa_iteration sa.sa_edges)
    s.st_curve;
  List.iter
    (fun line -> Printf.bprintf b "%s\n" line)
    (Vstats.agg_digest_lines s.st_vstats);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Coverage-plateau report from the sampled curve: [Some (last_gain,
   stalled)] where [last_gain] is the earliest sampled iteration
   already at the final edge count and [stalled] how many iterations ran
   past it without a new edge; [None] before any sample exists. *)
let plateau (s : stats) : (int * int) option =
  match s.st_curve with
  | [] -> None
  | (newest : sample) :: older ->
    let last_gain =
      List.fold_left
        (fun acc sa -> if sa.sa_edges = newest.sa_edges then sa else acc)
        newest older
    in
    Some (last_gain.sa_iteration,
          newest.sa_iteration - last_gain.sa_iteration)

(* Standard map population for a session: one of each interesting kind.
   Under fault injection a creation can fail with -ENOMEM; the session
   then simply runs with fewer maps, as a real fuzzer setup would. *)
let standard_maps (session : Loader.t) : (int * Map.def) list =
  let defs =
    [ Map.array_def ~value_size:48 ~max_entries:4 ();
      Map.hash_def ~key_size:8 ~value_size:48 ~max_entries:8 ();
      Map.hash_def ~key_size:8 ~value_size:64 ~has_spin_lock:true ();
      Map.ringbuf_def ~max_entries:4096 () ]
  in
  List.filter_map
    (fun d ->
       Option.map (fun fd -> (fd, d)) (Loader.try_create_map session d))
    defs

(* A report that leaves the simulated kernel unusable. *)
let is_fatal (r : Report.t) : bool =
  match r.Report.kind with
  | Report.Panic _ -> true
  | Report.Lock_violation (Lockdep.Recursive_lock _)
  | Report.Lock_violation (Lockdep.Held_at_exit _) -> true
  | Report.Lock_violation _ | Report.Mem_fault _ | Report.Warn _
  | Report.Alu_limit _ | Report.Runaway_execution
  | Report.Witness_escape _ -> false

(* Transient environment errors (injected allocation failures): eligible
   for retry, never findings. *)
let is_transient (result : Loader.run_result) : bool =
  (match result.Loader.verdict with
   | Error e -> Venv.errno_is_transient e.Venv.errno
   | Ok _ -> false)
  || (match result.Loader.status with
      | Some s -> Exec.is_transient s
      | None -> false)

(* Retry policy for transient errors: one plain retry, then a reboot
   (memory-pressure relief) before the final attempt. *)
let max_transient_retries = 2

(* Reboot-storm breaker: quarantine a corpus entry implicated in this
   many consecutive fatal reboots. *)
let quarantine_after = 3

exception Environment of string

type t = {
  config : Kconfig.t;
  strategy : strategy;
  seed : int;
  rng : Rng.t;
  failslab : Bvf_kernel.Failslab.t;
  cov : Coverage.t;
  corpus : Corpus.t;
  stats : stats;
  mutable session : Loader.t;
  mutable gen_config : Gen.config;
  sample_every : int;
  telemetry : Telemetry.sink;
  log_level : int;
  (* profiler handle for this campaign's domain: its totals (and spans)
     account the gen/verify/sanitize/exec phases and checkpoint writes;
     never touches the RNG, the telemetry sink or the digest. *)
  prof : Bvf_util.Prof.t;
}

let reboot (c : t) : unit =
  c.session <- Loader.create ~cov:c.cov ~failslab:c.failslab c.config;
  c.gen_config <-
    { Gen.c_version = c.config.Kconfig.version;
      c_maps = standard_maps c.session };
  c.stats.st_reboots <- c.stats.st_reboots + 1

let create ?(sample_every = 64) ?(telemetry = Telemetry.null)
    ?(log_level = 0) ?(prof = Bvf_util.Prof.disabled) ?failslab
    ~(seed : int) (strategy : strategy) (config : Kconfig.t) : t =
  let failslab =
    match failslab with
    | Some f -> f
    | None -> Bvf_kernel.Failslab.off ()
  in
  let cov = Coverage.create () in
  let session = Loader.create ~cov ~failslab config in
  let gen_config =
    { Gen.c_version = config.Kconfig.version;
      c_maps = standard_maps session }
  in
  {
    config;
    strategy;
    seed;
    rng = Rng.create seed;
    failslab;
    cov;
    corpus = Corpus.create ();
    stats =
      {
        st_tool = strategy.s_name;
        st_version = config.Kconfig.version;
        st_generated = 0;
        st_accepted = 0;
        st_rejected = 0;
        st_errno = Hashtbl.create 8;
        st_reasons = Hashtbl.create 16;
        st_findings = Hashtbl.create 32;
        st_curve = [];
        st_histogram = Disasm.empty_histogram;
        st_edges = 0;
        st_reboots = 0;
        st_env_errors = 0;
        st_retries = 0;
        st_quarantined = 0;
        st_skipped = 0;
        st_lint = 0;
        st_vstats = Vstats.agg_zero ();
      };
    session;
    gen_config;
    sample_every;
    telemetry;
    log_level;
    prof;
  }

(* One fuzzing iteration: generate (or mutate), load, run, classify. *)
let step (c : t) : unit =
  let stats = c.stats in
  let iteration = stats.st_generated in
  let seed_entry =
    if c.strategy.s_feedback then Corpus.pick_entry c.corpus c.rng
    else None
  in
  let seed_req = Option.map (fun e -> e.Corpus.request) seed_entry in
  let fr_gen = Bvf_util.Prof.start c.prof "gen" in
  let req = c.strategy.s_generate c.rng c.gen_config seed_req in
  ignore (Bvf_util.Prof.stop c.prof fr_gen : float * float);
  stats.st_generated <- stats.st_generated + 1;
  stats.st_histogram <-
    Array.fold_left Disasm.classify stats.st_histogram
      req.Verifier.r_insns;
  let prog_type = Prog.prog_type_to_string req.Verifier.r_prog_type in
  Telemetry.emit c.telemetry
    (Telemetry.Generated
       { iter = iteration; prog_type;
         insns = Array.length req.Verifier.r_insns });
  (* bounded retry of transient environment errors, escalating to a
     reboot before the final attempt.  The coverage snapshot is taken
     immediately before the attempt that produces the returned result:
     edges recorded by retried-away executions and by reboot-time map
     setup belong to the environment, not to this program, and must not
     inflate the corpus entry's feedback score. *)
  let rec attempt (n : int) : int * Loader.run_result =
    let edges_before = Coverage.edge_count c.cov in
    let result =
      Loader.load_and_run ~log_level:c.log_level ~prof:c.prof c.session req
    in
    if is_transient result && n < max_transient_retries then begin
      stats.st_retries <- stats.st_retries + 1;
      if n = max_transient_retries - 1 then reboot c;
      attempt (n + 1)
    end
    else (edges_before, result)
  in
  let edges_before, result = attempt 0 in
  if is_transient result then
    stats.st_env_errors <- stats.st_env_errors + 1;
  let new_edges = Coverage.edge_count c.cov - edges_before in
  (match result.Loader.verdict with
   | Ok prog ->
     stats.st_accepted <- stats.st_accepted + 1;
     stats.st_lint <- stats.st_lint + prog.Verifier.l_lint_count;
     Telemetry.emit c.telemetry
       (Telemetry.Accepted
          { iter = iteration; prog_type;
            insns = Array.length prog.Verifier.l_insns;
            insn_processed = prog.Verifier.l_insn_processed })
   | Error e ->
     stats.st_rejected <- stats.st_rejected + 1;
     let k = e.Venv.errno in
     Hashtbl.replace stats.st_errno k
       (1 + Option.value (Hashtbl.find_opt stats.st_errno k) ~default:0);
     let r = e.Venv.vreason in
     Hashtbl.replace stats.st_reasons r
       (1 + Option.value (Hashtbl.find_opt stats.st_reasons r) ~default:0);
     Telemetry.emit c.telemetry
       (Telemetry.Rejected
          { iter = iteration; prog_type; reason = r;
            errno = Venv.errno_to_string e.Venv.errno; pc = e.Venv.vpc;
            msg = e.Venv.vmsg }));
  (* verifier performance counters of the attempt that produced the
     verdict (absent when the load failed before analysis): aggregate
     and trace.  Counters are deterministic, so the event keeps traces
     byte-identical per seed. *)
  (match result.Loader.vstats with
   | Some v ->
     Vstats.agg_add stats.st_vstats v;
     Telemetry.emit c.telemetry
       (Telemetry.Vstats
          { iter = iteration;
            insn_processed = v.Vstats.vs_insn_processed;
            total_states = v.Vstats.vs_total_states;
            peak_states = v.Vstats.vs_peak_states;
            max_states_per_insn = v.Vstats.vs_max_states_per_insn;
            prune_hits = v.Vstats.vs_prune_hits;
            prune_misses = v.Vstats.vs_prune_misses;
            loops_detected = v.Vstats.vs_loops_detected;
            branch_hwm = v.Vstats.vs_branch_hwm;
            widen_rounds = v.Vstats.vs_widen_rounds;
            loop_heads = v.Vstats.vs_loop_heads })
   | None -> ());
  if c.strategy.s_feedback then
    Corpus.add c.corpus ~iteration ~new_edges req;
  let findings = Oracle.classify c.config result in
  List.iter
    (fun f ->
       let key =
         f.Oracle.f_fingerprint
         ^ (match f.Oracle.f_bug with
             | Some b -> "|" ^ Kconfig.bug_to_string b
             | None -> "")
       in
       if not (Hashtbl.mem stats.st_findings key) then begin
         Hashtbl.replace stats.st_findings key
           { fd_finding = f; fd_iteration = iteration; fd_request = req };
         Telemetry.emit c.telemetry
           (Telemetry.Finding
              { iter = iteration; fingerprint = key;
                bug = Option.map Kconfig.bug_to_string f.Oracle.f_bug;
                correctness = f.Oracle.f_correctness })
       end)
    findings;
  (* crash handling: reboot the kernel on fatal anomalies, and run the
     storm breaker over the corpus entry that seeded this iteration *)
  let fatal = List.exists is_fatal result.Loader.reports in
  (match seed_entry with
   | Some e when fatal ->
     if Corpus.blame c.corpus e ~quarantine_after then
       stats.st_quarantined <- stats.st_quarantined + 1
   | Some e -> Corpus.absolve e
   | None -> ());
  if fatal then reboot c
  else Bvf_kernel.Kmem.compact c.session.Loader.kst.Kstate.mem;
  if iteration mod c.sample_every = 0 then
    stats.st_curve <-
      { sa_iteration = iteration; sa_edges = Coverage.edge_count c.cov }
      :: stats.st_curve;
  stats.st_edges <- Coverage.edge_count c.cov

(* Skip one iteration that a previous run's harness crash quarantined:
   consume exactly the generation-phase RNG draws [step] would (corpus
   pick + program generation) so the stream stays aligned for the
   iterations that follow, but never load or run the program.  A
   supervised restart skipping iteration [i] and a fault-free campaign
   told up front to skip [i] perform the same state transition here,
   which is what makes the two runs digest-comparable. *)
let step_skip (c : t) : unit =
  let stats = c.stats in
  let iteration = stats.st_generated in
  let seed_entry =
    if c.strategy.s_feedback then Corpus.pick_entry c.corpus c.rng
    else None
  in
  let seed_req = Option.map (fun e -> e.Corpus.request) seed_entry in
  ignore (c.strategy.s_generate c.rng c.gen_config seed_req : Verifier.request);
  stats.st_generated <- stats.st_generated + 1;
  stats.st_skipped <- stats.st_skipped + 1;
  Telemetry.emit c.telemetry (Telemetry.Quarantined { iter = iteration });
  if iteration mod c.sample_every = 0 then
    stats.st_curve <-
      { sa_iteration = iteration; sa_edges = Coverage.edge_count c.cov }
      :: stats.st_curve;
  stats.st_edges <- Coverage.edge_count c.cov

(* -- Checkpointing ----------------------------------------------------- *)

(* Everything needed to continue the campaign from disk.  The simulated
   kernel itself is deliberately absent: checkpoints are taken at a
   reboot boundary, so a fresh kernel (built by {!resume} exactly the
   way {!reboot} builds one) plus this record fully determines future
   behavior. *)
type snapshot = {
  sn_tool : string;
  sn_kernel : Version.t;
  sn_seed : int;
  sn_sanitize : bool;
  sn_unprivileged : bool;
  sn_witness : bool;
  sn_lint : bool;
  sn_completed : int;      (* iterations finished when taken *)
  sn_merged : bool;        (* built by [Parallel.merge_snapshots], not a
                              live campaign: reportable, not resumable *)
  sn_rng : int64;
  sn_failslab : Bvf_kernel.Failslab.t;
  sn_corpus : Corpus.t;
  sn_cov : Coverage.t;
  sn_stats : stats;
}

(* /5: stats gained st_skipped, snapshots gained sn_merged.
   /6: vstats aggregate gained widen-round and loop-head counters, and
   the generator grew the counted-loop frame, so resumed iteration
   streams diverge from /5 checkpoints.
   /7: stats gained the per-phase minor-words attribution fields,
   changing the marshalled layout.
   /8: stats lost the per-phase time and minor-words fields.
   /9: the vstats aggregate's two histograms became Hist.t records
   (ladder plus counts) instead of bare count arrays. *)
let checkpoint_tag = "bvf-campaign/9"

let snapshot (c : t) : snapshot =
  {
    sn_tool = c.strategy.s_name;
    sn_kernel = c.config.Kconfig.version;
    sn_seed = c.seed;
    sn_sanitize = c.config.Kconfig.sanitize;
    sn_unprivileged = c.config.Kconfig.unprivileged;
    sn_witness = c.config.Kconfig.witness;
    sn_lint = c.config.Kconfig.lint;
    sn_completed = c.stats.st_generated;
    sn_merged = false;
    sn_rng = Rng.state c.rng;
    sn_failslab = c.failslab;
    sn_corpus = c.corpus;
    sn_cov = c.cov;
    sn_stats = c.stats;
  }

let save_checkpoint (c : t) ~(path : string) :
  (unit, Checkpoint.error) result =
  Checkpoint.save ~path ~tag:checkpoint_tag (snapshot c)

(* Persist a snapshot value directly — the [bvf merge] output path,
   where there is no live campaign behind the snapshot. *)
let save_snapshot (s : snapshot) ~(path : string) :
  (unit, Checkpoint.error) result =
  Checkpoint.save ~path ~tag:checkpoint_tag s

let load_checkpoint ~(path : string) :
  (snapshot, Checkpoint.error) result =
  (Checkpoint.load ~path ~tag:checkpoint_tag
   : (snapshot, Checkpoint.error) result)

(* Rebuild a running campaign from a snapshot.  Creating the fresh
   session here mirrors the {!reboot} the uninterrupted campaign
   performs right after taking the checkpoint — including the fault-plan
   draws its map setup consumes — so the resumed campaign replays the
   exact continuation of the uninterrupted one. *)
let resume ?(sample_every = 64) ?(telemetry = Telemetry.null)
    ?(log_level = 0) ?(prof = Bvf_util.Prof.disabled)
    (strategy : strategy) (config : Kconfig.t) (s : snapshot) : t =
  if s.sn_tool <> strategy.s_name then
    raise
      (Environment
         (Printf.sprintf "checkpoint was taken by tool %s, not %s"
            s.sn_tool strategy.s_name));
  if s.sn_kernel <> config.Kconfig.version then
    raise
      (Environment
         (Printf.sprintf "checkpoint targets kernel %s, not %s"
            (Version.to_string s.sn_kernel)
            (Version.to_string config.Kconfig.version)));
  if s.sn_sanitize <> config.Kconfig.sanitize
     || s.sn_unprivileged <> config.Kconfig.unprivileged
     || s.sn_witness <> config.Kconfig.witness
     || s.sn_lint <> config.Kconfig.lint then
    raise (Environment "checkpoint was taken under a different config");
  if s.sn_merged then
    raise
      (Environment
         "checkpoint is a merged artifact (bvf merge): it has no RNG \
          stream to continue and cannot be resumed");
  (* Deep-copy the snapshot before mutating anything in it.  A snapshot
     loaded from disk is already private, but an in-memory one shares
     its hashtables, corpus and coverage with whichever campaign took
     it: resuming such a snapshot twice used to double-count reboots
     (and every later counter) because both resumed campaigns mutated
     the same stats record.  The copy makes resume a pure function of
     the snapshot value, matching the from-disk semantics. *)
  let s : snapshot = Marshal.from_string (Marshal.to_string s []) 0 in
  let session = Loader.create ~cov:s.sn_cov ~failslab:s.sn_failslab config in
  let gen_config =
    { Gen.c_version = config.Kconfig.version;
      c_maps = standard_maps session }
  in
  s.sn_stats.st_reboots <- s.sn_stats.st_reboots + 1;
  {
    config;
    strategy;
    seed = s.sn_seed;
    rng = Rng.of_state s.sn_rng;
    failslab = s.sn_failslab;
    cov = s.sn_cov;
    corpus = s.sn_corpus;
    stats = s.sn_stats;
    session;
    gen_config;
    sample_every;
    telemetry;
    log_level;
    prof;
  }

(* -- Driving ----------------------------------------------------------- *)

(* Persist a barrier snapshot to [path]: the [checkpoint] hook of a
   campaign checkpointed to one file (bvf fuzz --checkpoint). *)
let checkpoint_to (path : string) (c : t) : unit =
  match save_checkpoint c ~path with
  | Ok () -> ()
  | Error e ->
    raise
      (Environment
         ("checkpoint write failed: " ^ Checkpoint.error_to_string e))

let run_t ?(sample_every = 64) ?telemetry ?log_level ?prof
    ?checkpoint_every ?checkpoint ?failslab ?resume_from ?skip
    ?stop ?on_step ~(seed : int) ~(iterations : int)
    (strategy : strategy) (config : Kconfig.t) : t =
  let c =
    match resume_from with
    | Some s ->
      resume ~sample_every ?telemetry ?log_level ?prof strategy config s
    | None ->
      create ~sample_every ?telemetry ?log_level ?prof ?failslab ~seed
        strategy config
  in
  (* A checkpoint is a barrier: write the snapshot, then reboot, so the
     file plus a fresh kernel fully determines the continuation.  The
     barrier cadence is absolute (st_generated), so a resumed campaign
     hits the same barriers the uninterrupted one does. *)
  let at_barrier () =
    match checkpoint_every with
    | Some n when n > 0 -> c.stats.st_generated mod n = 0
    | Some _ | None -> false
  in
  (* the Checkpoint event goes out before the save, so a saved trace
     offset (the supervisor's workers record one) already covers it *)
  let save_now () =
    match checkpoint with
    | Some save ->
      Telemetry.emit c.telemetry
        (Telemetry.Checkpoint { iter = c.stats.st_generated });
      Bvf_util.Prof.span c.prof "checkpoint" (fun () -> save c)
    | None -> ()
  in
  let stopped () = match stop with Some f -> f () | None -> false in
  let exception Stop in
  (try
     for _ = 1 to iterations do
       (match skip with
        | Some f when f c.stats.st_generated -> step_skip c
        | Some _ | None -> step c);
       (* observer hook ([--progress]): runs outside the deterministic
          core, after all of the iteration's telemetry was emitted *)
       (match on_step with Some f -> f c | None -> ());
       (* an external stop (SIGINT/SIGTERM) acts as an extra barrier:
          save, then reboot, exactly the sequence a scheduled barrier
          performs — checked first so a stop landing ON a barrier runs
          the sequence once, and resume replays the same continuation
          either way *)
       if stopped () then begin
         save_now ();
         reboot c;
         raise Stop
       end
       else if at_barrier () then begin
         save_now ();
         reboot c
       end
     done
   with Stop -> ());
  (* closing sample: when the final iteration already landed on a
     sample_every boundary (or the campaign is finalized twice, e.g.
     resumed for zero further iterations) the curve would carry the same
     iteration twice, double-counting it in the digest and in plotted
     curves — drop any prior sample at this iteration first *)
  let final =
    { sa_iteration = c.stats.st_generated;
      sa_edges = Coverage.edge_count c.cov }
  in
  c.stats.st_curve <-
    final
    :: List.filter
      (fun sa -> sa.sa_iteration <> final.sa_iteration)
      c.stats.st_curve;
  c

let run ?sample_every ?telemetry ?log_level ?prof ?checkpoint_every
    ?checkpoint ?failslab ?resume_from ?skip ?stop ?on_step
    ~(seed : int) ~(iterations : int) (strategy : strategy)
    (config : Kconfig.t) : stats =
  (run_t ?sample_every ?telemetry ?log_level ?prof ?checkpoint_every
     ?checkpoint ?failslab ?resume_from ?skip ?stop ?on_step ~seed
     ~iterations strategy config)
    .stats

let pp_summary fmt (s : stats) : unit =
  Format.fprintf fmt
    "%s on %s: %d programs, %.1f%% accepted, %d edges, %d findings (%d bugs, %d correctness), %d reboots@."
    s.st_tool
    (Version.to_string s.st_version)
    s.st_generated
    (100.0 *. acceptance_rate s)
    s.st_edges
    (Hashtbl.length s.st_findings)
    (List.length (bugs_found s))
    (List.length (correctness_bugs_found s))
    s.st_reboots;
  if s.st_env_errors > 0 || s.st_retries > 0 || s.st_quarantined > 0 then
    Format.fprintf fmt
      "  environment: %d transient errors (%d retried away), %d corpus entries quarantined@."
      s.st_env_errors s.st_retries s.st_quarantined;
  if s.st_skipped > 0 then
    Format.fprintf fmt
      "  supervision: %d iterations skipped as harness-crash quarantine@."
      s.st_skipped;
  if s.st_lint > 0 then
    Format.fprintf fmt "  lint: %d invariant violations@." s.st_lint;
  Vstats.pp_agg fmt s.st_vstats
