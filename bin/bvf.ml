(* The bvf command line: fuzz campaigns, single-bug reproducers,
   self-test corpus inspection, verifier-log explanation, JSONL trace
   aggregation and program disassembly over the simulated kernel.

     bvf fuzz --kernel bpf-next --iterations 20000 --seed 1 --tool bvf
     bvf fuzz --witness --iterations 20000
     bvf fuzz --seed 1 --trace trace.jsonl
     bvf explain 42
     bvf stats trace.jsonl --fail-on-unknown
     bvf repro --bug bug1-nullness-propagation
     bvf selftests --count 100
     bvf lint --count 708 --out lint-report.txt *)

module Version = Bvf_ebpf.Version
module Prog = Bvf_ebpf.Prog
module Disasm = Bvf_ebpf.Disasm
module Kconfig = Bvf_kernel.Kconfig
module Checkpoint = Bvf_core.Checkpoint
module Verifier = Bvf_verifier.Verifier
module Venv = Bvf_verifier.Venv
module Reject_reason = Bvf_verifier.Reject_reason
module Loader = Bvf_runtime.Loader
module Coverage = Bvf_verifier.Coverage
module Vstats = Bvf_verifier.Vstats
module Mclock = Bvf_util.Mclock
module Prof = Bvf_util.Prof
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Telemetry = Bvf_core.Telemetry
module Veristat = Bvf_core.Veristat
module Progress = Bvf_core.Progress
module Oracle = Bvf_core.Oracle
module Selftests = Bvf_core.Selftests
module Rng = Bvf_core.Rng
module Gen = Bvf_core.Gen
module Supervisor = Bvf_core.Supervisor
module Service = Bvf_core.Service
module Vcache = Bvf_core.Vcache

open Cmdliner

(* -- Shared arguments ----------------------------------------------------- *)

let version_arg =
  let parse s =
    match Version.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown kernel version %S" s))
  in
  let print fmt v = Format.fprintf fmt "%s" (Version.to_string v) in
  Arg.conv (parse, print)

let version_t =
  Arg.(value & opt version_arg Version.Bpf_next
       & info [ "kernel"; "k" ] ~docv:"VERSION"
         ~doc:"Kernel version to simulate: v5.15, v6.1 or bpf-next.")

let seed_t =
  Arg.(value & opt int 1
       & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

let iterations_t =
  Arg.(value & opt int 10_000
       & info [ "iterations"; "n" ] ~docv:"N"
         ~doc:"Number of programs to generate and run.")

(* -- fuzz ------------------------------------------------------------------- *)

let tool_t =
  Arg.(value & opt (enum [ ("bvf", `Bvf); ("syzkaller", `Syz);
                           ("buzzer", `Buzzer) ]) `Bvf
       & info [ "tool"; "t" ] ~docv:"TOOL"
         ~doc:"Generator to drive: bvf, syzkaller or buzzer.")

let no_sanitize_t =
  Arg.(value & flag
       & info [ "no-sanitize" ]
         ~doc:"Disable the bpf_asan sanitation patches (CONFIG_BPF_ASAN).")

let fixed_t =
  Arg.(value & flag
       & info [ "fixed" ]
         ~doc:"Run against a fully fixed kernel (no injected bugs).")

let unprivileged_t =
  Arg.(value & flag
       & info [ "unprivileged" ]
         ~doc:"Load programs without CAP_BPF: stricter verifier checks.")

let witness_t =
  Arg.(value & flag
       & info [ "witness" ]
         ~doc:"Record per-instruction abstract register states during \
               verification and flag concrete values that escape them \
               at run time (the indicator#3 witness oracle).")

let failslab_t =
  Arg.(value & opt float 0.0
       & info [ "failslab" ] ~docv:"RATE"
         ~doc:"Inject allocation failures (failslab-style) into the \
               simulated kernel with this probability in [0,1].")

let failslab_seed_t =
  Arg.(value & opt (some int) None
       & info [ "failslab-seed" ] ~docv:"SEED"
         ~doc:"Seed for the fault-injection decision stream (defaults to \
               the campaign seed).")

let checkpoint_every_t =
  Arg.(value & opt int 1000
       & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Reboot every shard's kernel after every $(docv) of its \
               completed iterations (a plain run is one shard), saving \
               the shard's state first when --state-dir is given.  A \
               resumed run reproduces the straight run's digest when \
               it resumes from one of these barriers.")

let jobs_t =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Run $(docv) shards over at most nproc domains, the \
               calling one included (fuzz: shard i fuzzes with seed+i, \
               and coverage, findings and the corpus are merged; batch: \
               $(docv) verifier workers share the cache misses).  The \
               output depends on $(docv), never on the core count.  \
               fuzz: $(docv)=1, the default, is the sequential \
               campaign, and SIGINT/SIGTERM stop every shard after its \
               in-flight iteration (merged summary printed, exit \
               130/143).")

let workers_t =
  Arg.(value & opt int 0
       & info [ "workers"; "w" ] ~docv:"N"
         ~doc:"Supervise the campaign across $(docv) forked worker \
               processes (same sharding as --jobs, but crash-isolated: \
               a worker that dies or stops heartbeating is restarted \
               from its last saved state with the implicated iteration \
               quarantined).  Protocol files live under --state-dir; \
               rerunning with the same directory resumes.")

let state_dir_t =
  Arg.(value & opt (some string) None
       & info [ "state-dir" ] ~docv:"DIR"
         ~doc:"Keep the campaign's durable state under $(docv) (created \
               if missing): one shard-<i>.ckpt per shard, saved at every \
               --checkpoint-every barrier, at SIGINT/SIGTERM and at the \
               end.  Rerunning with the same directory, seed, shard \
               count, kernel and config resumes every shard (-n is the \
               campaign total); a finished shard is reported, not \
               re-run.  --jobs N and --workers N resume each other's \
               directories.  --workers also keeps its protocol files \
               here (default bvf-state with --workers); a run without \
               --workers or --state-dir writes no state.")

let deadline_t =
  Arg.(value & opt float 30.0
       & info [ "deadline" ] ~docv:"SECS"
         ~doc:"Watchdog deadline for --workers: a worker whose \
               heartbeat is older than $(docv) seconds is killed and \
               restarted.")

let max_restarts_t =
  Arg.(value & opt int 5
       & info [ "max-restarts" ] ~docv:"N"
         ~doc:"Retire a worker (shrinking the pool) after $(docv) \
               restarts; its last saved state still joins the merge and \
               the abandoned iterations are reported.")

let quarantine_t =
  Arg.(value & opt (some string) None
       & info [ "quarantine" ] ~docv:"FILE"
         ~doc:"Preload quarantined global iterations (one per line, as \
               written to the state directory's quarantine.list): the \
               listed iterations are skipped deterministically, which \
               makes a fault-free rerun digest-comparable to a \
               disturbed one.")

let trace_t =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"PATH"
         ~doc:"Write a JSONL telemetry trace to $(docv): one event per \
               generated/accepted/rejected program (with its rejection \
               reason), finding and checkpoint, plus a closing phase \
               profile.  Inspect with $(b,bvf stats).")

let log_level_t =
  Arg.(value & opt int 0
       & info [ "log-level" ] ~docv:"N"
         ~doc:"Verifier log level for every load: 0 silent, 1 \
               per-instruction decisions, 2 adds register states \
               (mirrors the kernel's log_level attr).")

let progress_t =
  Arg.(value & opt (some float) None
       & info [ "progress" ] ~docv:"SECS"
         ~doc:"Print a live status line (execs/sec, accepted%, edges, \
               findings, peak states) to stderr at most every $(docv) \
               seconds.  Purely an observer: traces and digests are \
               byte-identical with or without it.")

let profile_t =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE"
         ~doc:"Record a span profile of the run and write it to \
               $(docv) as Chrome trace-event JSON (one process per \
               shard or worker; load in Perfetto, or aggregate with \
               $(b,bvf profile)).  Purely an observer, like \
               --progress: traces and digests are byte-identical with \
               or without it.")

(* The closing profile record is appended by the CLI, not emitted by
   the campaign: traces stay byte-deterministic for a fixed seed, and
   the profile carries the only wall-clock times in the file, next to
   this process's profiler totals.  A one-shard run stopped before its
   shard started wrote no trace, so the file may not exist yet. *)
let append_profile (path : string) (prof : Prof.session) ~(wall_s : float)
  : unit =
  let ev = Telemetry.profile_of_totals ~wall_s (Prof.session_totals prof) in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  output_string oc (Telemetry.to_json ev);
  output_char oc '\n';
  close_out oc

(* Write the collected spans once, after the run — recording is
   lock-free per domain, serialization happens only here. *)
let write_profile (prof : Prof.session) (profile : string option) : unit =
  match profile with
  | None -> ()
  | Some path ->
    Prof.write_chrome path ~tracks:(Prof.tracks prof) (Prof.spans prof);
    Printf.printf "span profile written to %s (bvf profile %s, or load \
                   in Perfetto)\n" path path

(* exit 4 marks a damaged checkpoint (bad magic, wrong schema tag,
   digest mismatch, truncation) — distinct from exit 3, an environment
   failure such as an unreadable path *)
let checkpoint_exit_code (e : Checkpoint.error) : int =
  match e with Checkpoint.Io _ -> 3 | _ -> 4

let print_findings (stats : Campaign.stats) : unit =
  let findings =
    Hashtbl.fold (fun _ f acc -> f :: acc) stats.Campaign.st_findings []
    |> List.sort (fun a b ->
        compare a.Campaign.fd_iteration b.Campaign.fd_iteration)
  in
  List.iter
    (fun (f : Campaign.found) ->
       Printf.printf "  iter %6d: %s\n" f.Campaign.fd_iteration
         (Oracle.finding_to_string f.Campaign.fd_finding))
    findings

let fuzz_cmd =
  let run version seed iterations tool no_sanitize fixed unprivileged
      witness failslab_rate failslab_seed checkpoint_every jobs workers
      state_dir deadline max_restarts
      quarantine_file trace progress_every profile =
    let config =
      if fixed then Kconfig.fixed version else Kconfig.default version
    in
    let config = Kconfig.with_sanitize config (not no_sanitize) in
    let config = Kconfig.with_witness config witness in
    let config = { config with Kconfig.unprivileged } in
    let strategy =
      match tool with
      | `Bvf -> Campaign.bvf_strategy
      | `Syz -> Bvf_baselines.Syz_gen.strategy
      | `Buzzer -> Bvf_baselines.Buzzer_gen.strategy ()
    in
    if jobs < 1 then begin
      Printf.eprintf "bvf fuzz: --jobs must be >= 1\n";
      exit 2
    end;
    if failslab_rate < 0.0 || failslab_rate > 1.0 then begin
      Printf.eprintf "bvf fuzz: --failslab rate must be in [0,1]\n";
      exit 2
    end;
    if workers < 0 then begin
      Printf.eprintf
        "bvf fuzz: --workers must be >= 0 (0, the default, runs \
         unsupervised)\n";
      exit 2
    end;
    if workers > 0 && jobs > 1 then begin
      Printf.eprintf
        "bvf fuzz: --workers and --jobs are exclusive shardings (forked \
         processes vs in-process domains)\n";
      exit 2
    end;
    if workers > 0 && progress_every <> None then begin
      Printf.eprintf
        "bvf fuzz: --progress observes in-process runs only; --workers \
         runs the campaign in forked processes (use --jobs for a live \
         status line)\n";
      exit 2
    end;
    let state_dir =
      if workers > 0 then Some (Option.value state_dir ~default:"bvf-state")
      else state_dir
    in
    (* SIGINT/SIGTERM finish every shard's in-flight iteration, save
       each shard's state under --state-dir, merge and flush telemetry
       and exit with the conventional 128+signal code; every domain lane
       and the process lanes' parent read the one flag *)
    let stop_sig = Atomic.make 0 in
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Atomic.set stop_sig 130));
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Atomic.set stop_sig 143));
    let stopped () = Atomic.get stop_sig <> 0 in
    Printf.printf "fuzzing %s (%d injected bugs, sanitize=%b) with %s%s...\n"
      (Version.to_string version)
      (List.length config.Kconfig.bugs)
      config.Kconfig.sanitize strategy.Campaign.s_name
      (if workers > 0 then
         Printf.sprintf " across %d supervised workers" workers
       else if jobs > 1 then Printf.sprintf " across %d shards" jobs
       else "");
    let progress =
      Option.map
        (fun every_s -> Progress.create ~every_s ~jobs ())
        progress_every
    in
    (* its totals feed the closing profile line; --profile adds spans *)
    let prof = Prof.session ~spans:(profile <> None) () in
    (* --workers N runs the shards on N supervised process lanes *)
    let supervise =
      if workers = 0 then None
      else
        let quarantine =
          match quarantine_file with
          | None -> []
          | Some f ->
            if not (Sys.file_exists f) then begin
              Printf.eprintf "bvf fuzz: --quarantine %s: no such file\n" f;
              exit 2
            end;
            Supervisor.quarantine_of_file f
        in
        Some
          { Supervisor.default_policy with
            deadline_s = deadline; max_restarts; quarantine }
    in
    let t0 = Mclock.now_s () in
    let result =
      try
        Parallel.run ~jobs:(if workers > 0 then workers else jobs) ?supervise
          ?trace ~failslab_rate ?failslab_seed ~checkpoint_every
          ?dir:state_dir ~stop:(fun _ -> stopped)
          ?on_step:(Option.map Progress.observer progress)
          ~prof ~seed ~iterations strategy config
      with
      (* a shard file another run cut is exit 3, a damaged one exit 4 *)
      | Campaign.Environment msg ->
        Printf.eprintf "bvf fuzz: aborted on environment error: %s\n" msg;
        exit 3
      | Parallel.Bad_state (path, e) ->
        Printf.eprintf "bvf fuzz: cannot resume from %s: %s\n" path
          (Checkpoint.error_to_string e);
        exit (checkpoint_exit_code e)
    in
    Option.iter Progress.finish progress;
    (* a rerun of a finished state dir wrote no trace *)
    (match trace with
     | Some path when not result.Parallel.pr_idle ->
       append_profile path prof ~wall_s:(Mclock.elapsed_s ~since:t0)
     | Some _ | None -> ());
    write_profile prof profile;
    Format.printf "%a" Parallel.pp_summary result;
    Option.iter (Format.printf "%a" Supervisor.pp_report)
      result.Parallel.pr_report;
    if result.Parallel.pr_jobs > 1 || Option.is_some result.Parallel.pr_report
    then Printf.printf "merged digest: %s\n" (Parallel.digest result);
    print_findings result.Parallel.pr_stats;
    if stopped () then begin
      Printf.printf "interrupted at iteration %d%s\n"
        result.Parallel.pr_stats.Campaign.st_generated
        (match state_dir with
         | Some dir -> ": state saved under " ^ dir
         | None -> "");
      exit (Atomic.get stop_sig)
    end
  in
  Cmd.v (Cmd.info "fuzz" ~doc:"Run a fuzzing campaign.")
    Term.(const run $ version_t $ seed_t $ iterations_t $ tool_t
          $ no_sanitize_t $ fixed_t $ unprivileged_t $ witness_t
          $ failslab_t $ failslab_seed_t $ checkpoint_every_t $ jobs_t
          $ workers_t $ state_dir_t $ deadline_t $ max_restarts_t
          $ quarantine_t
          $ trace_t $ progress_t $ profile_t)

(* -- explain ---------------------------------------------------------------- *)

let explain_cmd =
  let run version seed tool unprivileged log_level =
    (* regenerate the seed's first program exactly the way a campaign's
       iteration 0 would (same strategy, same RNG stream, same standard
       map population), then replay the verifier with the log on *)
    let config = Kconfig.default version in
    let config = { config with Kconfig.unprivileged } in
    let strategy =
      match tool with
      | `Bvf -> Campaign.bvf_strategy
      | `Syz -> Bvf_baselines.Syz_gen.strategy
      | `Buzzer -> Bvf_baselines.Buzzer_gen.strategy ()
    in
    let session = Loader.create config in
    let gen_config =
      { Gen.c_version = version;
        c_maps = Campaign.standard_maps session }
    in
    let rng = Rng.create seed in
    let req = strategy.Campaign.s_generate rng gen_config None in
    Printf.printf "seed %d, %s, %s: %d-insn %s program\n\n" seed
      strategy.Campaign.s_name
      (Version.to_string version)
      (Array.length req.Verifier.r_insns)
      (Prog.prog_type_to_string req.Verifier.r_prog_type);
    print_string (Disasm.prog_to_string req.Verifier.r_insns);
    let verdict, log, vstats =
      Verifier.load_with_stats session.Loader.kst ~cov:session.Loader.cov
        ~log_level req
    in
    if log <> "" then begin
      Printf.printf "\nverifier log (level %d):\n" log_level;
      print_string log
    end;
    (match verdict with
     | Ok prog ->
       Printf.printf
         "\nverdict: ACCEPTED (prog id %d, %d insns after rewrite, %d \
          insns processed)\n"
         prog.Verifier.l_id
         (Array.length prog.Verifier.l_insns)
         prog.Verifier.l_insn_processed
     | Error e ->
       Printf.printf "\nverdict: REJECTED at pc %d with -%s\n  %s\n"
         e.Venv.vpc
         (Venv.errno_to_string e.Venv.errno)
         e.Venv.vmsg;
       Printf.printf "reason: %s (%s)\n"
         (Reject_reason.to_string e.Venv.vreason)
         (Reject_reason.describe e.Venv.vreason));
    match vstats with
    | Some vst ->
      Printf.printf "\nverifier counters:\n  ";
      Format.printf "%a@." Vstats.pp vst;
      (* the loop counters live outside the frozen schema Vstats.pp
         prints; surface them when the program actually looped *)
      if vst.Vstats.vs_loop_heads > 0 then
        Printf.printf "  loops: %d head%s, %d widening round%s\n"
          vst.Vstats.vs_loop_heads
          (if vst.Vstats.vs_loop_heads = 1 then "" else "s")
          vst.Vstats.vs_widen_rounds
          (if vst.Vstats.vs_widen_rounds = 1 then "" else "s")
    | None -> ()
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Regenerate a seed's program and replay the verifier with \
             the log enabled: the disassembly, the per-instruction log, \
             the verdict and the rejection taxonomy bucket.")
    Term.(const run $ version_t
          $ Arg.(required & pos 0 (some int) None
                 & info [] ~docv:"SEED"
                   ~doc:"RNG seed whose first generated program to \
                         explain.")
          $ tool_t $ unprivileged_t
          $ Arg.(value & opt int 2
                 & info [ "log-level" ] ~docv:"N"
                   ~doc:"Verifier log level (default 2: instructions \
                         plus register states)."))

(* -- stats ------------------------------------------------------------------- *)

let stats_cmd =
  let run path fail_on_unknown =
    if not (Sys.file_exists path) then begin
      Printf.eprintf "bvf stats: no such trace file: %s\n" path;
      exit 2
    end;
    let events = Telemetry.read_file path in
    let summary = Telemetry.summarize events in
    Format.printf "%a" Telemetry.pp_summary summary;
    let unknown = Telemetry.unknown_rejections summary in
    if unknown > 0 then
      Printf.printf
        "\n%d rejections carry a reason this build does not know \
         (reason=unknown): the taxonomy in \
         lib/verifier/reject_reason.ml has a gap\n"
        unknown;
    if fail_on_unknown && unknown > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Aggregate a JSONL trace written by $(b,bvf fuzz --trace): \
             acceptance by program type, the rejection taxonomy \
             histogram and the phase profile.")
    Term.(const run
          $ Arg.(required & pos 0 (some string) None
                 & info [] ~docv:"TRACE"
                   ~doc:"Trace file written by --trace.")
          $ Arg.(value & flag
                 & info [ "fail-on-unknown" ]
                   ~doc:"Exit 1 if any rejection carries a reason this \
                         build does not know — the CI gate that keeps \
                         the taxonomy total."))

(* -- profile ---------------------------------------------------------------- *)

let profile_cmd =
  let run path fail_on_malformed =
    if not (Sys.file_exists path) then begin
      Printf.eprintf "bvf profile: no such profile file: %s\n" path;
      exit 2
    end;
    let spans, tracks, complaints = Prof.read_chrome path in
    List.iter
      (fun c -> Printf.eprintf "bvf profile: %s: %s\n" path c)
      complaints;
    let track_name trk =
      match List.assoc_opt trk tracks with
      | Some name -> name
      | None -> Printf.sprintf "track%d" trk
    in
    Printf.printf "%-20s %8s %11s %11s %10s %10s %12s %12s\n" "span"
      "count" "total s" "self s" "p50 ms" "p95 ms" "minor words"
      "major words";
    List.iter
      (fun (a : Prof.agg) ->
         Printf.printf
           "%-20s %8d %11.4f %11.4f %10.3f %10.3f %12.0f %12.0f\n"
           a.Prof.ag_name a.Prof.ag_count a.Prof.ag_total_s
           a.Prof.ag_self_s
           (1e3 *. a.Prof.ag_p50_s) (1e3 *. a.Prof.ag_p95_s)
           a.Prof.ag_minor_w a.Prof.ag_major_w)
      (Prof.aggregate spans);
    print_newline ();
    (* wall-time attribution: how much of each track's first-start..
       last-end window its top-level spans name *)
    Printf.printf "%-20s %11s %12s %9s\n" "track" "wall s" "named s"
      "coverage";
    List.iter
      (fun (trk, wall, top) ->
         Printf.printf "%-20s %11.4f %12.4f %8.1f%%\n" (track_name trk)
           wall top
           (if wall > 0. then 100. *. top /. wall else 100.))
      (Prof.track_attribution spans);
    if fail_on_malformed && complaints <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Aggregate a span profile written by $(b,bvf fuzz --profile) \
             or $(b,bvf batch --profile): per-span self time with \
             nearest-rank p50/p95 and allocation, plus per-track \
             wall-time attribution.  Events that do not parse and \
             nesting violations are reported on stderr.")
    Term.(const run
          $ Arg.(required & pos 0 (some string) None
                 & info [] ~docv:"PROFILE"
                   ~doc:"Chrome trace-event JSON written by --profile.")
          $ Arg.(value & flag
                 & info [ "fail-on-malformed" ]
                   ~doc:"Exit 1 if the trace has malformed events or \
                         nesting violations — the CI smoke gate."))

(* -- repro ------------------------------------------------------------------ *)

let bug_arg =
  let parse s =
    match
      List.find_opt
        (fun b -> Kconfig.bug_to_string b = s)
        Kconfig.all_bugs
    with
    | Some b -> Ok b
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown bug %S; one of: %s" s
              (String.concat ", "
                 (List.map Kconfig.bug_to_string Kconfig.all_bugs))))
  in
  let print fmt b = Format.fprintf fmt "%s" (Kconfig.bug_to_string b) in
  Arg.conv (parse, print)

let repro_cmd =
  let run bug seed =
    (* fuzz a kernel carrying only this bug until its fingerprint shows *)
    let config = Kconfig.make Version.Bpf_next ~bugs:[ bug ] in
    let component, description, _ = Kconfig.bug_info bug in
    Printf.printf "hunting %s (%s: %s)...\n"
      (Kconfig.bug_to_string bug)
      component description;
    let budget = 60_000 in
    let hit = ref None in
    let look (c : Campaign.t) =
      hit :=
        Hashtbl.fold
          (fun _ (f : Campaign.found) acc ->
             if f.Campaign.fd_finding.Oracle.f_bug = Some bug then Some f
             else acc)
          c.Campaign.stats.Campaign.st_findings None
    in
    ignore
      (Campaign.run ~on_step:look ~stop:(fun () -> !hit <> None) ~seed
         ~iterations:budget Campaign.bvf_strategy config
       : Campaign.stats);
    match !hit with
    | Some f ->
      Printf.printf "reproduced at iteration %d:\n  %s\n\nprogram:\n"
        f.Campaign.fd_iteration
        (Oracle.finding_to_string f.Campaign.fd_finding);
      print_string
        (Disasm.prog_to_string f.Campaign.fd_request.Verifier.r_insns)
    | None -> Printf.printf "not reproduced within %d programs\n" budget
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:"Fuzz a kernel carrying a single injected bug until found.")
    Term.(const run
          $ Arg.(required & opt (some bug_arg) None
                 & info [ "bug"; "b" ] ~docv:"BUG"
                   ~doc:"Bug identifier, e.g. bug1-nullness-propagation.")
          $ seed_t)

(* -- selftests --------------------------------------------------------------- *)

let selftests_cmd =
  let run version count dump export =
    let suite = Selftests.build ~count version in
    Printf.printf "built %d self-test programs for %s\n"
      (List.length suite.Selftests.requests)
      (Version.to_string version);
    if dump then
      List.iteri
        (fun i req ->
           Printf.printf "--- selftest %d (%s) ---\n" i
             (Bvf_ebpf.Prog.prog_type_to_string req.Verifier.r_prog_type);
           print_string (Disasm.prog_to_string req.Verifier.r_insns))
        suite.Selftests.requests;
    match export with
    | None -> ()
    | Some path ->
      (* batch-ready corpus: a JSONL request file, or a directory of
         wire-format programs — the two input shapes bvf batch takes *)
      let requests =
        List.mapi
          (fun i req ->
             { Service.q_id = Printf.sprintf "selftest-%04d" i;
               q_req = req })
          suite.Selftests.requests
      in
      if Filename.check_suffix path ".jsonl" then begin
        let oc = open_out path in
        List.iter
          (fun r ->
             output_string oc (Service.request_to_json r);
             output_char oc '\n')
          requests;
        close_out oc;
        Printf.printf "exported %d requests to %s\n"
          (List.length requests) path
      end
      else begin
        if not (Sys.file_exists path) then Sys.mkdir path 0o755;
        List.iter
          (fun (r : Service.request) ->
             let name =
               Printf.sprintf "%s.%s.bin" r.Service.q_id
                 (Prog.prog_type_to_string
                    r.Service.q_req.Verifier.r_prog_type)
             in
             let oc = open_out_bin (Filename.concat path name) in
             output_bytes oc
               (Bvf_ebpf.Encode.encode r.Service.q_req.Verifier.r_insns);
             close_out oc)
          requests;
        Printf.printf "exported %d wire-format programs to %s/\n"
          (List.length requests) path
      end
  in
  Cmd.v
    (Cmd.info "selftests" ~doc:"Build and optionally dump the self-test corpus.")
    Term.(const run $ version_t
          $ Arg.(value & opt int 708
                 & info [ "count"; "c" ] ~docv:"N"
                   ~doc:"Number of programs to build.")
          $ Arg.(value & flag
                 & info [ "dump" ] ~doc:"Disassemble every program.")
          $ Arg.(value & opt (some string) None
                 & info [ "export" ] ~docv:"PATH"
                   ~doc:"Export the corpus for $(b,bvf batch): to a \
                         JSONL request file if $(docv) ends in .jsonl, \
                         otherwise to a directory of wire-format \
                         $(i,NAME.PROGTYPE.bin) programs."))

(* -- lint --------------------------------------------------------------------- *)

let lint_cmd =
  let run version count gen seed out =
    (* a fixed verifier with the invariant lint enabled, over the
       self-test corpus or a structured-generator batch: any violation
       is a well-formedness defect in the abstract domain itself,
       independent of the dynamic oracle.  The generated batch is the
       CI gate for the loop frames: widening must stay extensive and
       idempotent over whatever the generator emits. *)
    let config =
      Kconfig.with_lint (Kconfig.fixed version) true
    in
    let corpus_name, kst, requests =
      if gen then begin
        let session = Loader.create config in
        let gen_config =
          { Gen.c_version = version;
            c_maps = Campaign.standard_maps session }
        in
        let rng = Rng.create seed in
        ( "generated",
          session.Loader.kst,
          List.init count (fun _ -> Gen.generate rng gen_config) )
      end
      else begin
        let suite = Selftests.build ~count ~config version in
        ( "self-test",
          suite.Selftests.session.Loader.kst,
          suite.Selftests.requests )
      end
    in
    let cov = Bvf_verifier.Coverage.create () in
    let buf = Buffer.create 256 in
    let total = ref 0 and rejected = ref 0 and violations = ref 0 in
    List.iteri
      (fun i req ->
         incr total;
         let verdict, vs, n = Verifier.lint kst ~cov req in
         (match verdict with Ok () -> () | Error _ -> incr rejected);
         violations := !violations + n;
         List.iter
           (fun v ->
              Buffer.add_string buf
                (Printf.sprintf "%s %d: %s\n" corpus_name i
                   (Bvf_verifier.Invariants.to_string v)))
           vs)
      requests;
    let summary =
      Printf.sprintf
        "linted %d %s programs on %s: %d rejected, %d invariant \
         violations\n"
        !total corpus_name (Version.to_string version) !rejected
        !violations
    in
    print_string summary;
    print_string (Buffer.contents buf);
    (match out with
     | Some path ->
       let oc = open_out path in
       output_string oc summary;
       output_string oc (Buffer.contents buf);
       close_out oc;
       Printf.printf "report written to %s\n" path
     | None -> ());
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the verifier-state invariant lint over the self-test \
             corpus (or, with --gen, a structured-generator batch \
             including counted loops) and report any abstract-domain \
             well-formedness violations.  Exits 1 on any violation.")
    Term.(const run $ version_t
          $ Arg.(value & opt int 708
                 & info [ "count"; "c" ] ~docv:"N"
                   ~doc:"Number of programs to lint.")
          $ Arg.(value & flag
                 & info [ "gen" ]
                   ~doc:"Lint a structured-generator batch under --seed \
                         instead of the self-test corpus.")
          $ seed_t
          $ Arg.(value & opt (some string) None
                 & info [ "out"; "o" ] ~docv:"PATH"
                   ~doc:"Also write the lint report to $(docv)."))

(* -- veristat ----------------------------------------------------------------- *)

let veristat_cmd =
  let run version count gen seed json compare fail_on_regression files =
    if compare then begin
      match files with
      | [ old_path; new_path ] ->
        let load path =
          try Veristat.load_file path with
          | Sys_error msg ->
            Printf.eprintf "bvf veristat: %s\n" msg;
            exit 2
          | Veristat.Bad_table msg ->
            Printf.eprintf "bvf veristat: %s: %s\n" path msg;
            exit 2
        in
        let old_t = load old_path and new_t = load new_path in
        let c = Veristat.compare_tables ~old_t ~new_t in
        Format.printf "%a" Veristat.pp_comparison c;
        (match fail_on_regression with
         | Some threshold_pct ->
           (match Veristat.regressions ~threshold_pct c with
            | [] ->
              Printf.printf
                "gate: no counter grew by more than %g%%\n" threshold_pct
            | regs ->
              List.iter
                (fun m -> Printf.eprintf "regression: %s\n" m)
                regs;
              exit 1)
         | None -> ())
      | _ ->
        Printf.eprintf
          "bvf veristat: --compare takes exactly two table files \
           (old.json new.json)\n";
        exit 2
    end
    else begin
      if files <> [] then begin
        Printf.eprintf
          "bvf veristat: positional table files require --compare\n";
        exit 2
      end;
      let table =
        if gen then Veristat.run_generated ~seed ~count version
        else Veristat.run_selftests ~count version
      in
      match json with
      | Some path ->
        let oc = open_out path in
        output_string oc (Veristat.to_json table);
        close_out oc;
        Printf.printf "wrote %d-program veristat table to %s\n"
          (List.length table.Veristat.vt_rows)
          path
      | None -> Format.printf "%a" Veristat.pp_table table
    end
  in
  Cmd.v
    (Cmd.info "veristat"
       ~doc:"The kernel-veristat workflow over the simulated verifier: \
             run a program corpus, record per-program verifier \
             performance counters (insn_processed, total_states, \
             peak_states, ...), emit the table as text or JSONL, and \
             diff two tables with a regression gate.")
    Term.(const run $ version_t
          $ Arg.(value & opt int 708
                 & info [ "count"; "c" ] ~docv:"N"
                   ~doc:"Number of programs to run.")
          $ Arg.(value & flag
                 & info [ "gen" ]
                   ~doc:"Run a structured-generator batch under --seed \
                         instead of the self-test corpus.")
          $ seed_t
          $ Arg.(value & opt (some string) None
                 & info [ "json" ] ~docv:"PATH"
                   ~doc:"Write the table as JSONL to $(docv) instead of \
                         printing it.")
          $ Arg.(value & flag
                 & info [ "compare" ]
                   ~doc:"Compare two previously written JSONL tables \
                         (positional: old.json new.json) instead of \
                         running a corpus.")
          $ Arg.(value & opt (some float) None
                 & info [ "fail-on-regression" ] ~docv:"PCT"
                   ~doc:"With --compare: exit 1 if any counter total \
                         grows by more than $(docv) percent, or any \
                         program's verdict flips.")
          $ Arg.(value & pos_all string []
                 & info [] ~docv:"TABLE"
                   ~doc:"JSONL tables for --compare."))

(* -- cov ---------------------------------------------------------------------- *)

let cov_cmd =
  let run diff files =
    (* iterations in global numbering, as bvf merge reports them *)
    let load path =
      match Parallel.load_state path with
      | st -> (Parallel.merge_states [ st ]).Parallel.ss_snapshot
      | exception Parallel.Bad_state (_, e) ->
        Printf.eprintf "bvf cov: cannot read checkpoint %s: %s\n" path
          (Checkpoint.error_to_string e);
        exit (checkpoint_exit_code e)
    in
    if diff then begin
      match files with
      | [ old_path; new_path ] ->
        let old_s = load old_path and new_s = load new_path in
        let gained, lost =
          Coverage.diff ~old_cov:old_s.Campaign.sn_cov
            ~new_cov:new_s.Campaign.sn_cov
        in
        Printf.printf "coverage %s (%d edges) -> %s (%d edges)\n"
          old_path
          (Coverage.edge_count old_s.Campaign.sn_cov)
          new_path
          (Coverage.edge_count new_s.Campaign.sn_cov);
        Printf.printf "gained %d, lost %d\n" (List.length gained)
          (List.length lost);
        List.iter
          (fun (site, variant) ->
             Printf.printf "  + %s variant %d\n" site variant)
          gained;
        List.iter
          (fun (site, variant) ->
             Printf.printf "  - %s variant %d\n" site variant)
          lost
      | _ ->
        Printf.eprintf
          "bvf cov: --diff takes exactly two checkpoint files \
           (old.ckpt new.ckpt)\n";
        exit 2
    end
    else begin
      match files with
      | [ path ] ->
        let s = load path in
        let cov = s.Campaign.sn_cov in
        Printf.printf
          "checkpoint %s: %d iterations completed, %d distinct edges\n"
          path s.Campaign.sn_completed
          (Coverage.edge_count cov);
        List.iter
          (fun (prefix, (distinct, hits, listing)) ->
             Printf.printf "\n%s: %d edges, %d hits\n" prefix distinct
               hits;
             List.iter
               (fun ((site, variant), h) ->
                  Printf.printf "  %-32s variant %2d: %d\n" site variant
                    h)
               listing)
          (Coverage.grouped cov);
        (match Campaign.plateau s.Campaign.sn_stats with
         | Some (last_gain, stalled) when stalled > 0 ->
           Printf.printf
             "\nplateau: last coverage gain at iteration %d; %d \
              iterations since without a new edge\n"
             last_gain stalled
         | Some (last_gain, _) ->
           Printf.printf
             "\nno plateau: coverage still growing at the last sample \
              (iteration %d)\n"
             last_gain
         | None -> ())
      | _ ->
        Printf.eprintf
          "bvf cov: takes exactly one checkpoint file (or two with \
           --diff)\n";
        exit 2
    end
  in
  Cmd.v
    (Cmd.info "cov"
       ~doc:"Inspect the coverage map inside a campaign checkpoint: \
             edges grouped by verifier site, the coverage-plateau \
             report, or (with --diff) the edges gained and lost between \
             two checkpoints.")
    Term.(const run
          $ Arg.(value & flag
                 & info [ "diff" ]
                   ~doc:"Diff two checkpoints' coverage maps (gained \
                         and lost edges).")
          $ Arg.(value & pos_all string []
                 & info [] ~docv:"CHECKPOINT"
                   ~doc:"Shard file(s) from a $(b,bvf fuzz \
                         --state-dir), or $(b,bvf merge) outputs."))

(* -- merge -------------------------------------------------------------------- *)

let merge_cmd =
  let run out files =
    if files = [] then begin
      Printf.eprintf
        "bvf merge: needs at least one checkpoint file to merge\n";
      exit 2
    end;
    let load path =
      try Parallel.load_state path with
      | Parallel.Bad_state (_, e) ->
        Printf.eprintf "bvf merge: cannot read %s: %s\n" path
          (Checkpoint.error_to_string e);
        exit (checkpoint_exit_code e)
    in
    let merged =
      try Parallel.merge_states (List.map load files) with
      | Campaign.Environment msg ->
        Printf.eprintf "bvf merge: %s\n" msg;
        exit 2
    in
    (try Parallel.save_state out merged with
     | Campaign.Environment msg ->
       Printf.eprintf "bvf merge: %s\n" msg;
       exit 3);
    let merged = merged.Parallel.ss_snapshot in
    Printf.printf
      "merged %d checkpoints into %s: %d iterations, %d edges, %d \
       findings\n"
      (List.length files) out merged.Campaign.sn_completed
      merged.Campaign.sn_stats.Campaign.st_edges
      (Hashtbl.length merged.Campaign.sn_stats.Campaign.st_findings);
    Printf.printf "merged digest: %s\n"
      (Campaign.digest merged.Campaign.sn_stats)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge shard files (the shard-<i>.ckpt files of a \
             --state-dir, from one run or from runs on different \
             machines, or earlier merge outputs) into one reportable \
             checkpoint in global iteration numbers: coverage unioned, \
             findings \
             deduplicated at their earliest iteration, counters summed. \
             The output is associative and commutative on everything \
             the digest covers; it can be merged again or inspected \
             with $(b,bvf cov), but not resumed.")
    Term.(const run
          $ Arg.(required & opt (some string) None
                 & info [ "o"; "out" ] ~docv:"PATH"
                   ~doc:"Write the merged checkpoint to $(docv).")
          $ Arg.(value & pos_all string []
                 & info [] ~docv:"CHECKPOINT"
                   ~doc:"Shard files to merge."))

(* -- batch / serve (the service layer, docs/SERVICE.md) ----------------------- *)

let cache_size_t =
  Arg.(value & opt int 65536
       & info [ "cache-size" ] ~docv:"N"
         ~doc:"Verdict-cache capacity (entries); least recently used \
               verdicts are evicted beyond it.")

let cache_file_t =
  Arg.(value & opt (some string) None
       & info [ "cache-file" ] ~docv:"PATH"
         ~doc:"Persist the verdict cache: loaded at startup when \
               $(docv) exists, saved (atomic write-then-rename) on \
               exit.  A damaged file is exit 4, like a damaged \
               checkpoint.")

let load_cache ~(cache_file : string option) ~(cache_size : int)
  : Vcache.t =
  if cache_size < 1 then begin
    Printf.eprintf "bvf: --cache-size must be >= 1\n";
    exit 2
  end;
  match cache_file with
  | Some path when Sys.file_exists path ->
    (match Vcache.load ~path ~cap:cache_size with
     | Ok cache -> cache
     | Error e ->
       Printf.eprintf "bvf: cannot load cache %s: %s\n" path
         (Checkpoint.error_to_string e);
       exit (checkpoint_exit_code e))
  | Some _ | None -> Vcache.create ~cap:cache_size

let save_cache (cache : Vcache.t) ~(cache_file : string option) : unit =
  match cache_file with
  | None -> ()
  | Some path ->
    (match Vcache.save cache ~path with
     | Ok () -> ()
     | Error e ->
       Printf.eprintf "bvf: cannot save cache %s: %s\n" path
         (Checkpoint.error_to_string e);
       exit 3)

let batch_cmd =
  let run version jobs cache_size cache_file out trace log_level
      profile selftests count inputs =
    if jobs < 1 then begin
      Printf.eprintf "bvf batch: --jobs must be >= 1\n";
      exit 2
    end;
    let config = Kconfig.fixed version in
    let inputs =
      match selftests, inputs with
      | true, [] ->
        let suite = Selftests.build ~count version in
        List.mapi
          (fun i req ->
             { Service.in_id = Printf.sprintf "selftest-%04d" i;
               in_req = Ok req })
          suite.Selftests.requests
      | true, _ :: _ ->
        Printf.eprintf
          "bvf batch: --selftests and an input path are exclusive\n";
        exit 2
      | false, [ path ] ->
        if not (Sys.file_exists path) then begin
          Printf.eprintf "bvf batch: no such input: %s\n" path;
          exit 3
        end;
        if Sys.is_directory path then Service.read_dir path
        else Service.read_jsonl path
      | false, _ ->
        Printf.eprintf
          "bvf batch: takes exactly one input (a JSONL file or a \
           directory), or --selftests\n";
        exit 2
    in
    let cache = load_cache ~cache_file ~cache_size in
    let sink =
      match trace with
      | Some path -> Telemetry.create path
      | None -> Telemetry.null
    in
    let prof = Prof.session ~spans:(profile <> None) () in
    let (items, tally), wall_s =
      Mclock.time_s (fun () ->
          Service.run_batch ~log_level ~sink ~prof ~jobs ~cache config inputs)
    in
    Telemetry.close sink;
    save_cache cache ~cache_file;
    (match profile with
     | None -> ()
     | Some path ->
       Prof.write_chrome path ~tracks:(Prof.tracks prof)
         (Prof.spans prof);
       (* results own stdout; the profile notice joins the summary on
          stderr *)
       Printf.eprintf "span profile written to %s\n" path);
    let oc, close =
      match out with
      | Some path -> let oc = open_out path in (oc, fun () -> close_out oc)
      | None -> (stdout, fun () -> Stdlib.flush stdout)
    in
    List.iter
      (fun it ->
         output_string oc (Service.item_to_json it);
         output_char oc '\n')
      items;
    close ();
    (* results on stdout (or --out), the timed summary on stderr:
       stdout stays pure, deterministic JSONL *)
    Printf.eprintf "%s\n" (Service.tally_to_json ~wall_s ~cache tally)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Verify a batch of programs as a service: JSONL requests \
             (or a directory of wire-format programs, or the self-test \
             corpus) in, one JSONL verdict per program out, with the \
             content-addressed verdict cache in front and misses \
             verified across --jobs domains.  Per-program output is \
             deterministic up to the trailing cache field; the summary \
             (stderr) carries the only wall times.  See docs/SERVICE.md.")
    Term.(const run $ version_t $ jobs_t $ cache_size_t $ cache_file_t
          $ Arg.(value & opt (some string) None
                 & info [ "out"; "o" ] ~docv:"PATH"
                   ~doc:"Write per-program results to $(docv) instead \
                         of stdout.")
          $ trace_t $ log_level_t $ profile_t
          $ Arg.(value & flag
                 & info [ "selftests" ]
                   ~doc:"Batch the self-test corpus instead of reading \
                         an input path.")
          $ Arg.(value & opt int 708
                 & info [ "count"; "c" ] ~docv:"N"
                   ~doc:"With --selftests: corpus size.")
          $ Arg.(value & pos_all string []
                 & info [] ~docv:"INPUT"
                   ~doc:"A JSONL request file or a directory of \
                         $(i,.bin)/$(i,.hex) wire-format programs."))

let serve_cmd =
  let run version cache_size cache_file trace log_level =
    let config = Kconfig.fixed version in
    let cache = load_cache ~cache_file ~cache_size in
    let sink =
      match trace with
      | Some path -> Telemetry.create path
      | None -> Telemetry.null
    in
    (* same drain contract as bvf fuzz: SIGINT/SIGTERM finish the
       in-flight request, persist the cache and exit 128+signal *)
    let stop_sig = ref 0 in
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> stop_sig := 130));
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> stop_sig := 143));
    let session = Service.create_session config in
    let tally =
      Service.serve ~log_level ~sink ~cache ~session
        ~stop:(fun () -> !stop_sig <> 0)
        stdin stdout
    in
    Telemetry.close sink;
    save_cache cache ~cache_file;
    Printf.eprintf "%s\n" (Service.tally_to_json ~cache tally);
    if !stop_sig <> 0 then exit !stop_sig
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the verifier as a long-lived service: one JSONL \
             request per stdin line, one flushed JSONL verdict per \
             stdout line, the verdict cache in front, until EOF or a \
             graceful SIGINT/SIGTERM drain.  See docs/SERVICE.md.")
    Term.(const run $ version_t $ cache_size_t $ cache_file_t $ trace_t
          $ log_level_t)

let () =
  let info =
    Cmd.info "bvf" ~version:"1.0.0"
      ~doc:"Find correctness bugs in a (simulated) eBPF verifier with \
            structured and sanitized programs."
  in
  exit (Cmd.eval (Cmd.group info
                    [ fuzz_cmd; explain_cmd; stats_cmd; profile_cmd;
                      veristat_cmd; cov_cmd; merge_cmd; repro_cmd;
                      selftests_cmd; lint_cmd; batch_cmd; serve_cmd ]))
