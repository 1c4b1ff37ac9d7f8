(* Tests for the supervised (process-isolated) campaign runner: the
   fault-free equivalence with the in-process Parallel runner (digest
   and trace bytes), the watchdog semantics (crash, self-kill and hang
   fixtures; restart with backoff; quarantine attribution; pool shrink
   on repeated death), the chaos oracle (a disturbed run is
   digest-identical to a fault-free run given the same quarantine set),
   interruption/resume through the state directory, and the offline
   checkpoint merge (bvf merge core) being associative and commutative
   on digests.

   Fault fixtures run in the forked child via the [fault] hook and must
   use [Unix._exit]/[Unix.kill]/[Unix.sleepf] — never [exit], which
   would run the test runner's at_exit machinery in the child. *)

module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Campaign = Bvf_core.Campaign
module Checkpoint = Bvf_core.Checkpoint
module Parallel = Bvf_core.Parallel
module Supervisor = Bvf_core.Supervisor
module Telemetry = Bvf_core.Telemetry
module Triage = Bvf_core.Triage

let config () = Kconfig.default Version.V6_1

let temp_dir (prefix : string) : string =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let read_file (path : string) : string =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A trace's lines minus the trailing shard-merge record a multi-shard
   join appends. *)
let events_of (path : string) : string list =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l ->
      not (String.starts_with ~prefix:{|{"ev":"shard_merge"|} l))

(* Fast supervision parameters for tests: tight poll, tiny backoff. *)
let sv ?trace ?(checkpoint_every = 1_000_000) ?(deadline_s = 30.)
    ?(max_restarts = 5) ?quarantine ?fault ?stop ~dir ~seed ~iterations
    ~workers () =
  Supervisor.run ?trace ~checkpoint_every ~deadline_s ~poll_s:0.02
    ~max_restarts ~backoff_s:0.01 ?quarantine ?fault ?stop ~workers
    ~seed ~iterations ~dir Campaign.bvf_strategy (config ())

let completed = function
  | Supervisor.Completed (result, report) -> (result, report)
  | Supervisor.Interrupted _ -> Alcotest.fail "unexpected interruption"

(* -- Fault-free equivalence with the in-process runner ------------------- *)

let test_fault_free_matches_jobs () =
  let dir = temp_dir "bvf_sv_eq" in
  let trace_w = Filename.concat dir "workers.jsonl" in
  let trace_j = Filename.concat dir "jobs.jsonl" in
  let result, report =
    completed
      (sv ~trace:trace_w ~dir:(Filename.concat dir "state") ~seed:9
         ~iterations:60 ~workers:2 ())
  in
  let reference =
    Parallel.run ~jobs:2 ~trace:trace_j ~seed:9 ~iterations:60
      Campaign.bvf_strategy (config ())
  in
  Alcotest.(check string) "digest equals --jobs 2"
    (Parallel.digest reference) (Parallel.digest result);
  Alcotest.(check string) "trace bytes equal --jobs 2"
    (read_file trace_j) (read_file trace_w);
  Alcotest.(check int) "no crashes" 0 (List.length report.rp_crashes);
  Alcotest.(check (list int)) "no quarantine" [] report.rp_quarantined;
  List.iter
    (fun (w : Supervisor.worker_report) ->
       Alcotest.(check bool) "worker completed" true
         (w.wr_outcome = Supervisor.Outcome_completed);
       Alcotest.(check int) "no restarts" 0 w.wr_restarts;
       Alcotest.(check int) "full shard" w.wr_assigned w.wr_completed)
    report.rp_workers;
  (* the salvage path: globalize the per-worker checkpoints and merge
     them offline — same digest again *)
  let snaps =
    List.map
      (fun i ->
         match
           Supervisor.load_worker
             ~path:
               (Filename.concat (Filename.concat dir "state")
                  (Printf.sprintf "worker-%d.ckpt" i))
         with
         | Ok w -> Supervisor.globalize w
         | Error e -> Alcotest.fail (Checkpoint.error_to_string e))
      [ 0; 1 ]
  in
  let merged = Parallel.merge_snapshots snaps in
  Alcotest.(check string) "offline merge of worker ckpts, same digest"
    (Parallel.digest reference)
    (Campaign.digest merged.Campaign.sn_stats)

(* -- Watchdog: deterministic crash fixture ------------------------------ *)

(* A worker that calls Unix._exit 42 whenever it reaches global
   iteration 17.  The supervisor must record the crash, quarantine
   iteration 17, restart the worker, and the restart must make forward
   progress (the quarantined iteration is skipped, so the crasher never
   fires again).  The disturbed run is then digest-identical to a
   fault-free run with iteration 17 quarantined up front — and crashes
   never surface as oracle findings. *)
let test_crash_restart_quarantine () =
  let dir = temp_dir "bvf_sv_crash" in
  let trace = Filename.concat dir "trace.jsonl" in
  let fault ~worker:_ ~local:_ ~global =
    if global = 17 then Unix._exit 42
  in
  let result, report =
    completed
      (sv ~trace ~fault ~dir:(Filename.concat dir "state") ~seed:5
         ~iterations:40 ~workers:2 ())
  in
  (match report.rp_crashes with
   | [ c ] ->
     Alcotest.(check bool) "cause is exit 42" true
       (c.Triage.hc_cause = Triage.Crash_exit 42);
     Alcotest.(check (option int)) "heartbeat attributed iteration 17"
       (Some 17) c.Triage.hc_iteration
   | l -> Alcotest.failf "expected exactly one crash, got %d" (List.length l));
  Alcotest.(check (list int)) "iteration 17 quarantined" [ 17 ]
    report.rp_quarantined;
  let crashed_worker = 17 mod 2 in
  List.iter
    (fun (w : Supervisor.worker_report) ->
       Alcotest.(check bool) "worker completed" true
         (w.wr_outcome = Supervisor.Outcome_completed);
       Alcotest.(check int) "restart counted"
         (if w.wr_worker = crashed_worker then 1 else 0)
         w.wr_restarts)
    report.rp_workers;
  Alcotest.(check int) "one skipped iteration in merged stats" 1
    result.Parallel.pr_stats.Campaign.st_skipped;
  (* the crash artifact is on disk and round-trips *)
  let artifact =
    read_file (Filename.concat (Filename.concat dir "state") "crash-000.json")
  in
  (match Triage.harness_crash_of_json artifact with
   | Some c ->
     Alcotest.(check bool) "artifact cause" true
       (c.Triage.hc_cause = Triage.Crash_exit 42)
   | None -> Alcotest.fail "crash-000.json did not parse");
  (* the quarantined iteration is visible in the merged trace *)
  let quarantined_events =
    List.filter_map
      (function Telemetry.Quarantined { iter } -> Some iter | _ -> None)
      (Telemetry.read_file trace)
  in
  Alcotest.(check (list int)) "trace lists the skip" [ 17 ]
    quarantined_events;
  (* chaos oracle: fault-free run with the same quarantine preloaded is
     digest-identical — the disturbance cost exactly the quarantined
     iteration, nothing else *)
  let reference, ref_report =
    completed
      (sv ~quarantine:report.rp_quarantined
         ~dir:(Filename.concat dir "ref") ~seed:5 ~iterations:40
         ~workers:2 ())
  in
  Alcotest.(check int) "reference saw no crashes" 0
    (List.length ref_report.rp_crashes);
  Alcotest.(check string) "disturbed digest == quarantined reference"
    (Parallel.digest reference) (Parallel.digest result);
  (* crashes are harness findings, not oracle findings: both runs found
     the same verifier bugs *)
  Alcotest.(check (list string)) "findings unchanged by the crash"
    (Campaign.fingerprints reference.Parallel.pr_stats)
    (Campaign.fingerprints result.Parallel.pr_stats)

(* -- Watchdog: a crash after a barrier ------------------------------------ *)

(* Worker 1 exits at global iteration 37 (its local 18), after its
   barriers at local 5, 10 and 15.  The restart resumes from the local-15
   checkpoint and reopens its shard trace at the recorded offset, so the
   events it had written past the barrier are cut and replayed exactly
   once: digest and merged trace bytes equal a fault-free run with 37
   quarantined up front. *)
let test_crash_after_barrier_trace () =
  let dir = temp_dir "bvf_sv_barrier" in
  let trace = Filename.concat dir "trace.jsonl" in
  let ref_trace = Filename.concat dir "ref.jsonl" in
  (* the fault hook logs worker 1's executed local iterations, so the
     test can see where the restarted worker resumed *)
  let log = Filename.concat dir "worker1.log" in
  let fault ~worker ~local ~global =
    if worker = 1 then begin
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 log in
      Printf.fprintf oc "%d\n" local;
      close_out oc
    end;
    if global = 37 then Unix._exit 42
  in
  let result, report =
    completed
      (sv ~trace ~fault ~checkpoint_every:5
         ~dir:(Filename.concat dir "state") ~seed:5 ~iterations:60
         ~workers:2 ())
  in
  Alcotest.(check (list int)) "iteration 37 quarantined" [ 37 ]
    report.rp_quarantined;
  Alcotest.(check int) "one crash" 1 (List.length report.rp_crashes);
  let locals =
    String.split_on_char '\n' (read_file log)
    |> List.filter_map int_of_string_opt
  in
  let rec after_restart = function
    | a :: (b :: _ as tl) -> if b < a then Some b else after_restart tl
    | [ _ ] | [] -> None
  in
  Alcotest.(check (option int)) "restart resumed at the local-15 barrier"
    (Some 15) (after_restart locals);
  let reference, _ =
    completed
      (sv ~trace:ref_trace ~quarantine:[ 37 ] ~checkpoint_every:5
         ~dir:(Filename.concat dir "ref") ~seed:5 ~iterations:60
         ~workers:2 ())
  in
  Alcotest.(check string) "digest equals the quarantined reference"
    (Parallel.digest reference) (Parallel.digest result);
  Alcotest.(check string) "merged trace bytes equal the reference"
    (read_file ref_trace) (read_file trace)

(* -- Watchdog: self-kill (SIGKILL) fixture ------------------------------ *)

let test_sigkill_crash () =
  let dir = temp_dir "bvf_sv_kill" in
  let fault ~worker:_ ~local:_ ~global =
    if global = 11 then Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let _, report =
    completed
      (sv ~fault ~dir:(Filename.concat dir "state") ~seed:6 ~iterations:30
         ~workers:2 ())
  in
  (match report.rp_crashes with
   | [ c ] ->
     Alcotest.(check bool) "cause is signal 9" true
       (c.Triage.hc_cause = Triage.Crash_signal 9);
     Alcotest.(check (option int)) "attributed iteration 11" (Some 11)
       c.Triage.hc_iteration
   | l -> Alcotest.failf "expected exactly one crash, got %d" (List.length l));
  Alcotest.(check (list int)) "iteration 11 quarantined" [ 11 ]
    report.rp_quarantined

(* -- Watchdog: hang fixture --------------------------------------------- *)

(* A worker that sleeps far past the deadline at global iteration 5:
   no exit status to observe, only a stale heartbeat.  The watchdog
   must SIGKILL it, record Crash_hang, quarantine, restart, finish. *)
let test_hang_watchdog () =
  let dir = temp_dir "bvf_sv_hang" in
  let fault ~worker:_ ~local:_ ~global =
    if global = 5 then Unix.sleepf 60.0
  in
  let _, report =
    completed
      (sv ~fault ~deadline_s:0.5 ~dir:(Filename.concat dir "state")
         ~seed:3 ~iterations:20 ~workers:2 ())
  in
  (match report.rp_crashes with
   | [ c ] ->
     Alcotest.(check bool) "cause is hang" true
       (c.Triage.hc_cause = Triage.Crash_hang);
     Alcotest.(check (option int)) "attributed iteration 5" (Some 5)
       c.Triage.hc_iteration
   | l -> Alcotest.failf "expected exactly one crash, got %d" (List.length l));
  Alcotest.(check (list int)) "iteration 5 quarantined" [ 5 ]
    report.rp_quarantined;
  List.iter
    (fun (w : Supervisor.worker_report) ->
       Alcotest.(check bool) "worker completed" true
         (w.wr_outcome = Supervisor.Outcome_completed))
    report.rp_workers

(* -- Pool shrink: a worker that always dies ----------------------------- *)

(* Worker 0 crashes on every iteration it actually executes.  Each
   crash quarantines one more iteration, so every restart makes exactly
   one iteration of forward progress (a skip); after max_restarts the
   worker is retired and the pool shrinks to worker 1, which completes
   its shard.  The run still completes, the abandoned range is
   reported, and worker 1's results merge cleanly. *)
let test_retire_pool_shrink () =
  let dir = temp_dir "bvf_sv_retire" in
  let fault ~worker ~local:_ ~global:_ =
    if worker = 0 then Unix._exit 9
  in
  let result, report =
    completed
      (sv ~fault ~max_restarts:2 ~dir:(Filename.concat dir "state")
         ~seed:12 ~iterations:20 ~workers:2 ())
  in
  Alcotest.(check int) "three crashes (initial + 2 restarts)" 3
    (List.length report.rp_crashes);
  (match report.rp_workers with
   | [ w0; w1 ] ->
     Alcotest.(check bool) "worker 0 retired" true
       (w0.Supervisor.wr_outcome = Supervisor.Outcome_retired);
     Alcotest.(check bool) "worker 1 completed" true
       (w1.Supervisor.wr_outcome = Supervisor.Outcome_completed);
     Alcotest.(check int) "worker 1 full shard"
       w1.Supervisor.wr_assigned w1.Supervisor.wr_completed
   | _ -> Alcotest.fail "expected two worker reports");
  (* worker 0 never reached a barrier or completion: everything it was
     assigned is reported abandoned *)
  (match report.rp_abandoned with
   | [ (0, 0, 9) ] -> ()
   | l ->
     Alcotest.failf "expected abandoned (0, 0, 9), got %d ranges"
       (List.length l));
  (* the merge carries worker 1's shard only: 10 iterations *)
  Alcotest.(check int) "merged stats carry the surviving shard" 10
    result.Parallel.pr_stats.Campaign.st_generated;
  (* crash-implicated iterations all belong to worker 0 (even globals) *)
  List.iter
    (fun g ->
       Alcotest.(check int) "quarantined iteration is worker 0's" 0
         (g mod 2))
    report.rp_quarantined

(* -- State-directory lock ----------------------------------------------- *)

(* A second supervisor on a live state directory is refused (the two
   would clobber each other's protocol files); a lock left by a dead
   supervisor is stale and broken. *)
let test_state_dir_lock () =
  let dir = temp_dir "bvf_sv_lock" in
  let state = Filename.concat dir "state" in
  Unix.mkdir state 0o755;
  (* live owner: this very process *)
  let oc = open_out (Filename.concat state "supervisor.lock") in
  output_string oc (string_of_int (Unix.getpid ()) ^ "\n");
  close_out oc;
  (match sv ~dir:state ~seed:1 ~iterations:10 ~workers:1 () with
   | exception Campaign.Environment msg ->
     Alcotest.(check bool) "refusal names the lock" true
       (String.length msg > 0)
   | _ -> Alcotest.fail "expected a live lock to refuse the run");
  (* stale owner: a pid that cannot exist *)
  let oc = open_out (Filename.concat state "supervisor.lock") in
  output_string oc "999999999\n";
  close_out oc;
  (match sv ~dir:state ~seed:1 ~iterations:10 ~workers:1 () with
   | Supervisor.Completed _ -> ()
   | _ -> Alcotest.fail "expected a stale lock to be broken");
  Alcotest.(check bool) "lock released after the run" false
    (Sys.file_exists (Filename.concat state "supervisor.lock"))

(* -- Interruption and state-directory resume ---------------------------- *)

(* Stop the supervisor once worker 0 has taken its first barrier
   checkpoint; every worker saves and exits.  Rerunning with the same
   state directory resumes each worker from its checkpoint, and the
   final digest equals an undisturbed supervised run's. *)
let test_interrupt_then_resume () =
  let dir = temp_dir "bvf_sv_intr" in
  let state = Filename.concat dir "state" in
  let stop () =
    Sys.file_exists (Filename.concat state "worker-0.ckpt")
  in
  (match
     sv ~checkpoint_every:50 ~stop ~dir:state ~seed:14 ~iterations:2000
       ~workers:2 ()
   with
   | Supervisor.Interrupted report ->
     List.iter
       (fun (w : Supervisor.worker_report) ->
          Alcotest.(check bool) "worker interrupted" true
            (w.wr_outcome = Supervisor.Outcome_interrupted))
       report.rp_workers
   | Supervisor.Completed _ ->
     Alcotest.fail "run completed before the stop fired");
  (* The stop acts as an extra barrier (save, then reboot), and resume
     counts one reboot for the fresh kernel it builds.  A SIGTERM that
     lands between barriers therefore leaves the worker one reboot
     ahead of an undisturbed run; one that lands ON a barrier iteration
     runs the barrier sequence once and adds none.  Each interrupted
     checkpoint records where its stop landed. *)
  let extra_reboots =
    List.fold_left
      (fun acc i ->
         let path =
           Filename.concat state (Printf.sprintf "worker-%d.ckpt" i)
         in
         match Supervisor.load_worker ~path with
         | Ok w ->
           let at_barrier =
             w.Supervisor.wk_snapshot.Campaign.sn_completed mod 50 = 0
           in
           acc + if at_barrier then 0 else 1
         | Error e ->
           Alcotest.failf "worker %d checkpoint: %s" i
             (Checkpoint.error_to_string e))
      0 [ 0; 1 ]
  in
  let resumed, report =
    completed
      (sv ~checkpoint_every:50 ~dir:state ~seed:14 ~iterations:2000
         ~workers:2 ())
  in
  Alcotest.(check int) "no crashes across interrupt/resume" 0
    (List.length report.rp_crashes);
  let reference, _ =
    completed
      (sv ~checkpoint_every:50 ~dir:(Filename.concat dir "ref") ~seed:14
         ~iterations:2000 ~workers:2 ())
  in
  (* st_reboots is part of the digest; normalize that one documented
     delta and everything else must be identical. *)
  let rs = resumed.Parallel.pr_stats
  and fs = reference.Parallel.pr_stats in
  Alcotest.(check int) "one extra reboot per worker stopped off a barrier"
    (fs.Campaign.st_reboots + extra_reboots) rs.Campaign.st_reboots;
  rs.Campaign.st_reboots <- fs.Campaign.st_reboots;
  Alcotest.(check string) "resumed digest equals undisturbed (mod reboots)"
    (Campaign.digest fs) (Campaign.digest rs)

(* -- One run_t contract across executors --------------------------------- *)

(* A one-worker supervised run is Campaign.run_t in a forked process:
   its quarantine is run_t's [skip] hook and its barrier saves are
   run_t's [checkpoint] hook.  Both runs agree on the digest and, once
   any trailing shard-merge record is dropped, on every trace byte. *)
let test_run_t_contract () =
  let dir = temp_dir "bvf_sv_contract" in
  let trace_c = Filename.concat dir "run_t.jsonl" in
  let trace_s = Filename.concat dir "supervised.jsonl" in
  let telemetry = Telemetry.create trace_c in
  let c =
    Campaign.run_t ~telemetry ~skip:(fun i -> i = 17) ~checkpoint_every:7
      ~checkpoint:(Campaign.checkpoint_to (Filename.concat dir "c.ckpt"))
      ~seed:5 ~iterations:60 Campaign.bvf_strategy (config ())
  in
  Telemetry.close telemetry;
  let result, report =
    completed
      (sv ~trace:trace_s ~quarantine:[ 17 ] ~checkpoint_every:7
         ~dir:(Filename.concat dir "state") ~seed:5 ~iterations:60
         ~workers:1 ())
  in
  Alcotest.(check int) "no crashes" 0 (List.length report.rp_crashes);
  Alcotest.(check int) "iteration 17 skipped" 1
    c.Campaign.stats.Campaign.st_skipped;
  Alcotest.(check string) "digest equals Campaign.run_t's"
    (Campaign.digest c.Campaign.stats) (Parallel.digest result);
  Alcotest.(check (list string)) "trace bytes equal Campaign.run_t's"
    (events_of trace_c) (events_of trace_s)

(* -- Offline merge: associativity and commutativity --------------------- *)

let test_merge_assoc_comm () =
  let snap seed =
    let c =
      Campaign.run_t ~seed ~iterations:50 Campaign.bvf_strategy (config ())
    in
    Campaign.snapshot c
  in
  let a = snap 1 and b = snap 2 and c = snap 3 in
  let d s = Campaign.digest s.Campaign.sn_stats in
  let m = Parallel.merge_snapshots in
  let flat = d (m [ a; b; c ]) in
  Alcotest.(check string) "left-nested merge" flat (d (m [ m [ a; b ]; c ]));
  Alcotest.(check string) "right-nested merge" flat (d (m [ a; m [ b; c ] ]));
  Alcotest.(check string) "commuted merge" flat (d (m [ c; a; b ]));
  Alcotest.(check string) "fully reversed" flat (d (m [ c; b; a ]));
  (* a merged artifact refuses to resume: it has no RNG stream *)
  let merged = m [ a; b ] in
  (match Campaign.resume Campaign.bvf_strategy (config ()) merged with
   | exception Campaign.Environment _ -> ()
   | _ -> Alcotest.fail "expected merged snapshot to refuse resume");
  (* config mismatches are refused *)
  let other =
    Campaign.snapshot
      (Campaign.run_t ~seed:4 ~iterations:10 Campaign.bvf_strategy
         (Kconfig.default Version.Bpf_next))
  in
  match m [ a; other ] with
  | exception Campaign.Environment _ -> ()
  | _ -> Alcotest.fail "expected kernel mismatch to be refused"

(* Suite order matters: OCaml 5 forbids [Unix.fork] in a process that
   has ever spawned a domain, so every fork-based suite must run before
   the equivalence suite's [Parallel.run ~jobs] reference (which itself
   runs after that test's own supervised run, for the same reason). *)
let () =
  Alcotest.run "bvf_supervisor"
    [
      ( "watchdog",
        [ Alcotest.test_case "crash, restart, quarantine" `Slow
            test_crash_restart_quarantine;
          Alcotest.test_case "SIGKILL crash" `Slow test_sigkill_crash;
          Alcotest.test_case "hang deadline" `Slow test_hang_watchdog;
          Alcotest.test_case "retire shrinks the pool" `Slow
            test_retire_pool_shrink;
          Alcotest.test_case "crash after a barrier: trace reopen" `Slow
            test_crash_after_barrier_trace ] );
      ( "interruption",
        [ Alcotest.test_case "state-dir lock" `Slow test_state_dir_lock;
          Alcotest.test_case "interrupt then resume" `Slow
            test_interrupt_then_resume ] );
      ( "contract",
        [ Alcotest.test_case "run_t skip hook = one-worker quarantine"
            `Slow test_run_t_contract ] );
      ( "merge",
        [ Alcotest.test_case "associative and commutative" `Quick
            test_merge_assoc_comm ] );
      ( "equivalence",
        [ Alcotest.test_case "fault-free matches --jobs" `Slow
            test_fault_free_matches_jobs ] );
    ]
