open Cimport

(* Supervised campaign runner: the {!Parallel} sharding scheme run
   across forked OS processes under a heartbeat watchdog, so an
   analyzer crash or hang costs one worker one segment — not the
   campaign.  Each worker runs its shard with Campaign.run_t, built by
   the same Parallel.with_shard a domain uses, and the supervisor folds
   the final worker checkpoints with the same Parallel.join.  The
   protocol is plain files under the state directory:

     worker-<i>.ckpt   incremental checkpoint (worker_snapshot)
     worker-<i>.hb     heartbeat, atomically renamed before every step
     worker-<i>.done   completion marker (exit 0 without it = crash)
     worker-<i>.err    last uncaught exception, for post-mortems
     worker-<i>.prof   profiler totals (and --profile spans) for the parent
     quarantine.list   global iterations implicated by a crash
     crash-NNN.json    one Triage.harness_crash artifact per kill

   plus, with a trace, the shard trace <trace>.shard<i> beside it.

   Determinism: a worker replays its segment from the last barrier
   checkpoint exactly (same RNG stream, same reboot schedule), except
   for quarantined iterations, which burn the iteration's generation
   draws without loading (run_t's [skip] hook).  A disturbed run is
   therefore digest-comparable to a fault-free run given the same
   quarantine set — the chaos harness's oracle. *)

(* /2: Campaign.stats gained the per-phase minor-words attribution
   fields, changing the marshalled layout.
   /3: a one-worker run writes the trace file itself instead of
   <trace>.shard0, so wk_trace_pos is an offset into a different file.
   /4: Campaign.stats lost its eight per-phase time and minor-words
   fields (bvf-campaign/8).
   /5: the campaign snapshot's vstats histograms became Hist.t records
   (bvf-campaign/9). *)
let worker_tag = "bvf-worker/5"

type worker_snapshot = {
  wk_shard : int;
  wk_workers : int;
  wk_trace_pos : int;
  wk_snapshot : Campaign.snapshot;
}

(* A worker's profiler hand-off; the container refuses a damaged file.
   /2: moved into the checkpoint container and gained the totals. *)
let prof_tag = "bvf-prof/2"

type worker_prof = {
  wp_totals : Bvf_util.Prof.total list;
  wp_spans : Bvf_util.Prof.span list;
}

(* -- Protocol files ----------------------------------------------------- *)

let hb_path dir i = Filename.concat dir (Printf.sprintf "worker-%d.hb" i)

let ckpt_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.ckpt" i)

let done_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.done" i)

let err_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.err" i)

let prof_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.prof" i)

let quarantine_path dir = Filename.concat dir "quarantine.list"

let rec mkdirs (dir : string) : unit =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Atomic publication: a reader never sees a torn file, only the
   previous or the new contents. *)
let atomic_write (path : string) (contents : string) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let remove_if_exists (path : string) : unit =
  try Sys.remove path with Sys_error _ -> ()

let lock_path dir = Filename.concat dir "supervisor.lock"

(* Exclusive per-state-dir lock.  Two supervisors sharing one directory
   clobber each other's heartbeat and checkpoint files (each believes
   the other's workers are its own crashed children), so the directory
   is owned by exactly one live supervisor: the lock file records the
   owner's pid, and a lock whose owner is dead is stale and broken. *)
let rec acquire_lock (path : string) ~(attempts : int) : unit =
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
  with
  | fd ->
    let s = string_of_int (Unix.getpid ()) ^ "\n" in
    ignore (Unix.write_substring fd s 0 (String.length s));
    Unix.close fd
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
    let owner =
      match open_in path with
      | exception Sys_error _ -> None
      | ic ->
        let pid =
          try int_of_string_opt (String.trim (input_line ic))
          with End_of_file -> None
        in
        close_in ic;
        pid
    in
    let alive =
      match owner with
      | Some pid -> (try Unix.kill pid 0; true with _ -> false)
      | None -> false
    in
    (match owner with
     | Some pid when alive ->
       raise
         (Campaign.Environment
            (Printf.sprintf
               "state directory is in use by a running supervisor \
                (pid %d holds %s)" pid path))
     | _ when attempts > 0 ->
       remove_if_exists path;
       acquire_lock path ~attempts:(attempts - 1)
     | _ ->
       raise
         (Campaign.Environment ("cannot acquire supervisor lock: " ^ path)))

let quarantine_of_file (path : string) : int list =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let out = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           match int_of_string_opt line with
           | Some g -> out := g :: !out
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.sort_uniq compare !out

let write_quarantine (dir : string) (globals : int list) : unit =
  let b = Buffer.create 128 in
  List.iter (fun g -> Printf.bprintf b "%d\n" g) globals;
  atomic_write (quarantine_path dir) (Buffer.contents b)

(* heartbeat line: "seq local global pid" *)
let read_hb (path : string) : (int * int * int) option =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let r =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | seq :: local :: global :: _ -> (
          match
            ( int_of_string_opt seq,
              int_of_string_opt local,
              int_of_string_opt global )
          with
          | Some s, Some l, Some g -> Some (s, l, g)
          | _ -> None)
        | _ -> None)
    in
    close_in ic;
    r

let load_worker ~(path : string) :
  (worker_snapshot, Checkpoint.error) result =
  (Checkpoint.load ~path ~tag:worker_tag
   : (worker_snapshot, Checkpoint.error) result)

(* A crashed or interrupted worker wrote no profile: its track is absent. *)
let absorb_profs (prof : Bvf_util.Prof.session) ~(dir : string)
    ~(workers : int) : unit =
  for i = 0 to workers - 1 do
    match Checkpoint.load ~path:(prof_path dir i) ~tag:prof_tag with
    | Ok (p : worker_prof) ->
      Bvf_util.Prof.absorb prof ~name:(Printf.sprintf "worker%d" i) ~trk:i
        ~totals:p.wp_totals p.wp_spans
    | Error _ -> ()
  done

(* OCaml signal numbers are runtime-internal (negative); report the
   conventional POSIX numbers in artifacts. *)
let unix_signal (sg : int) : int =
  if sg = Sys.sighup then 1
  else if sg = Sys.sigint then 2
  else if sg = Sys.sigquit then 3
  else if sg = Sys.sigill then 4
  else if sg = Sys.sigabrt then 6
  else if sg = Sys.sigfpe then 8
  else if sg = Sys.sigkill then 9
  else if sg = Sys.sigusr1 then 10
  else if sg = Sys.sigsegv then 11
  else if sg = Sys.sigusr2 then 12
  else if sg = Sys.sigpipe then 13
  else if sg = Sys.sigalrm then 14
  else if sg = Sys.sigterm then 15
  else sg

(* -- Globalizing worker checkpoints ------------------------------------- *)

(* Renumber a worker checkpoint's local iterations to global ones so it
   can enter Parallel.merge_snapshots (the bvf merge path for
   checkpoints salvaged from a killed run): a one-shard join does
   exactly the remap. *)
let globalize (w : worker_snapshot) : Campaign.snapshot =
  let s = w.wk_snapshot in
  Parallel.snapshot_of_result s
    (Parallel.join ~jobs:w.wk_workers ~trace:None
       ~prof:Bvf_util.Prof.disabled [ (w.wk_shard, Ok s) ])

(* -- Supervisor (parent process) ---------------------------------------- *)

type worker_outcome =
  | Outcome_completed
  | Outcome_retired
  | Outcome_interrupted

type worker_report = {
  wr_worker : int;
  wr_outcome : worker_outcome;
  wr_assigned : int;
  wr_completed : int;
  wr_restarts : int;
}

type report = {
  rp_workers : worker_report list;
  rp_crashes : Triage.harness_crash list;
  rp_quarantined : int list;
  rp_abandoned : (int * int * int) list;
}

type wstate =
  | Running of {
      rn_pid : int;
      mutable rn_hb : (int * int * int) option; (* seq, local, global *)
      mutable rn_hb_time : float; (* last time rn_hb changed *)
    }
  | Waiting of float (* restart backoff: not before this time *)
  | Finished of worker_outcome

type wslot = {
  ws_index : int;
  mutable ws_state : wstate;
  mutable ws_restarts : int;
}

type outcome =
  | Completed of Parallel.result * report
  | Interrupted of report

let pp_report fmt (r : report) : unit =
  List.iter
    (fun w ->
       Format.fprintf fmt
         "  worker %d: %s, %d/%d iterations, %d restart%s@." w.wr_worker
         (match w.wr_outcome with
          | Outcome_completed -> "completed"
          | Outcome_retired -> "retired"
          | Outcome_interrupted -> "interrupted")
         w.wr_completed w.wr_assigned w.wr_restarts
         (if w.wr_restarts = 1 then "" else "s"))
    r.rp_workers;
  List.iter
    (fun c ->
       Format.fprintf fmt "  crash: %s@." (Triage.harness_crash_to_string c))
    r.rp_crashes;
  (match r.rp_quarantined with
   | [] -> ()
   | q ->
     Format.fprintf fmt "  quarantined iterations: %s@."
       (String.concat ", " (List.map string_of_int q)));
  List.iter
    (fun (w, lo, hi) ->
       Format.fprintf fmt "  abandoned: worker %d local %d..%d@." w lo hi)
    r.rp_abandoned

let run ?(sample_every = 64) ?(log_level = 0) ?trace ?failslab_rate
    ?failslab_seed ?(checkpoint_every = 1000) ?(deadline_s = 30.)
    ?(poll_s = 0.05) ?(max_restarts = 5) ?(backoff_s = 0.5)
    ?(quarantine = []) ?fault
    ?(prof = Bvf_util.Prof.session ~spans:false ()) ?stop
    ~(workers : int) ~(seed : int) ~(iterations : int) ~(dir : string)
    (strategy : Campaign.strategy) (config : Kconfig.t) : outcome =
  if workers < 1 then invalid_arg "Supervisor.run: workers < 1";
  let sup_prof = Bvf_util.Prof.track prof ~name:"supervisor" workers in
  mkdirs dir;
  acquire_lock (lock_path dir) ~attempts:1;
  Fun.protect ~finally:(fun () -> remove_if_exists (lock_path dir))
  @@ fun () ->
  let counts = Parallel.shard_iterations ~iterations ~jobs:workers in
  let quarantine_set =
    ref
      (List.sort_uniq compare
         (quarantine @ quarantine_of_file (quarantine_path dir)))
  in
  write_quarantine dir !quarantine_set;
  let crashes = ref [] (* newest first *) and ncrashes = ref 0 in
  (* Runs in the forked child and never returns (Unix._exit only, so the
     parent's at_exit hooks and buffers are untouched).  The shard is an
     ordinary Campaign.run_t: barrier saves go through its [checkpoint]
     hook, SIGTERM/SIGINT through its [stop] poll, and its [skip] hook
     is the once-per-iteration pre-step that writes the heartbeat, runs
     the fault hook and skips quarantined iterations. *)
  let worker (i : int) : unit =
    let stop = ref 0 in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := 143));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := 130));
    let global local = Parallel.global_iteration ~jobs:workers ~shard:i local in
    let ckpt = ckpt_path dir i in
    try
      (* local iterations quarantined for this shard *)
      let quarantined : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun g ->
           if g >= 0 && g mod workers = i then
             Hashtbl.replace quarantined (g / workers) ())
        (quarantine_of_file (quarantine_path dir));
      (* resume from the last barrier checkpoint when one exists; a
         missing or corrupt one means a fresh deterministic replay from
         iteration 0, which reaches the same barriers *)
      let existing = Result.to_option (load_worker ~path:ckpt) in
      let completed =
        match existing with
        | Some w -> w.wk_snapshot.Campaign.sn_completed
        | None -> 0
      in
      (* the child records into its own session (the parent's lives in
         another process); its totals and spans reach the parent through
         the worker-<i>.prof file written at clean exit *)
      let wsession =
        Bvf_util.Prof.session ~spans:(Bvf_util.Prof.active prof) ()
      in
      let track =
        Bvf_util.Prof.track wsession ~name:(Printf.sprintf "worker%d" i) i
      in
      Parallel.with_shard ~jobs:workers ~seed ~failslab_rate ~failslab_seed
        ~trace ~trace_pos:(Option.map (fun w -> w.wk_trace_pos) existing)
        ~prof:track i
      @@ (fun sh ->
          (* the Checkpoint event is already in the trace when the
             offset is taken, so a restart resumes just after it and an
             undisturbed worker writes the same trace bytes *)
          let save (c : Campaign.t) : unit =
            match
              Checkpoint.save ~path:ckpt ~tag:worker_tag
                { wk_shard = i; wk_workers = workers;
                  wk_trace_pos = Telemetry.pos sh.Parallel.se_telemetry;
                  wk_snapshot = Campaign.snapshot c }
            with
            | Ok () -> ()
            | Error e ->
              failwith
                ("worker checkpoint write failed: "
                 ^ Checkpoint.error_to_string e)
          in
          let seq = ref 0 in
          let pre_step (local : int) : bool =
            Bvf_util.Prof.span track "heartbeat" (fun () ->
                incr seq;
                atomic_write (hb_path dir i)
                  (Printf.sprintf "%d %d %d %d\n" !seq local (global local)
                     (Unix.getpid ()));
                (* at most the in-flight iteration's events are lost to
                   SIGKILL *)
                Telemetry.flush sh.Parallel.se_telemetry);
            Hashtbl.mem quarantined local
            || begin
              Option.iter (fun f -> f ~worker:i ~local ~global:(global local))
                fault;
              false
            end
          in
          let c =
            Campaign.run_t ~sample_every ~telemetry:sh.Parallel.se_telemetry
              ~log_level ~prof:track ?failslab:sh.Parallel.se_failslab
              ?resume_from:(Option.map (fun w -> w.wk_snapshot) existing)
              ~checkpoint_every ~checkpoint:save ~skip:pre_step
              ~stop:(fun () -> !stop <> 0)
              ~seed:sh.Parallel.se_seed ~iterations:(counts.(i) - completed)
              strategy config
          in
          (* a stop already saved inside run_t; resume performs the
             post-save reboot *)
          if !stop = 0 then
            Bvf_util.Prof.span track "checkpoint" (fun () -> save c));
      if !stop <> 0 then Unix._exit !stop;
      (* the profile must be on disk before the done marker: once the
         parent sees worker-<i>.done it may read it immediately *)
      ignore
        (Checkpoint.save ~path:(prof_path dir i) ~tag:prof_tag
           { wp_totals = Bvf_util.Prof.totals track;
             wp_spans = Bvf_util.Prof.spans wsession }
         : (unit, Checkpoint.error) result);
      atomic_write (done_path dir i) "ok\n";
      Unix._exit 0
    with e ->
      (try atomic_write (err_path dir i) (Printexc.to_string e ^ "\n")
       with _ -> ());
      Unix._exit 70
  in
  let spawn (i : int) : wstate =
    remove_if_exists (hb_path dir i);
    remove_if_exists (done_path dir i);
    remove_if_exists (prof_path dir i);
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try worker i with _ -> ());
      Unix._exit 70
    | pid ->
      Running
        { rn_pid = pid; rn_hb = None;
          rn_hb_time = Bvf_util.Mclock.now_s () }
  in
  let slots =
    Array.init workers (fun i ->
        { ws_index = i; ws_state = Waiting 0.; ws_restarts = 0 })
  in
  let record_crash (slot : wslot) (cause : Triage.crash_cause) : unit =
    (* the on-disk heartbeat is written before every iteration, so at
       crash time it names the implicated iteration even when the
       worker died between two supervisor polls; the polled cache is a
       fallback for an unreadable file *)
    let hb =
      match read_hb (hb_path dir slot.ws_index) with
      | Some _ as fresh -> fresh
      | None ->
        (match slot.ws_state with Running r -> r.rn_hb | _ -> None)
    in
    slot.ws_restarts <- slot.ws_restarts + 1;
    let crash =
      {
        Triage.hc_worker = slot.ws_index;
        hc_iteration = Option.map (fun (_, _, g) -> g) hb;
        hc_cause = cause;
        hc_restarts = slot.ws_restarts;
      }
    in
    crashes := crash :: !crashes;
    let artifact =
      Filename.concat dir (Printf.sprintf "crash-%03d.json" !ncrashes)
    in
    incr ncrashes;
    (try
       atomic_write artifact (Triage.harness_crash_to_json crash ^ "\n")
     with Sys_error _ -> ());
    (* quarantine the iteration the heartbeat implicates, so the
       restart makes forward progress past a deterministic crasher *)
    (match hb with
     | Some (_, _, g) when not (List.mem g !quarantine_set) ->
       quarantine_set := List.sort compare (g :: !quarantine_set);
       write_quarantine dir !quarantine_set
     | _ -> ());
    if slot.ws_restarts > max_restarts then
      slot.ws_state <- Finished Outcome_retired
    else
      slot.ws_state <-
        Waiting
          (Bvf_util.Mclock.now_s ()
           +. (backoff_s *. (2. ** float_of_int (slot.ws_restarts - 1))))
  in
  let interrupting = ref false and interrupt_at = ref 0. in
  let all_finished () =
    Array.for_all
      (fun s -> match s.ws_state with Finished _ -> true | _ -> false)
      slots
  in
  Array.iter
    (fun s ->
       s.ws_state <-
         Bvf_util.Prof.span sup_prof "fork" (fun () -> spawn s.ws_index))
    slots;
  while not (all_finished ()) do
    if
      (not !interrupting)
      && match stop with Some f -> f () | None -> false
    then begin
      interrupting := true;
      interrupt_at := Bvf_util.Mclock.now_s ();
      Array.iter
        (fun s ->
           match s.ws_state with
           | Running r -> (
             try Unix.kill r.rn_pid Sys.sigterm with
             | Unix.Unix_error _ -> ())
           | Waiting _ -> s.ws_state <- Finished Outcome_interrupted
           | Finished _ -> ())
        slots
    end;
    Array.iter
      (fun s ->
         match s.ws_state with
         | Finished _ -> ()
         | Waiting until ->
           if !interrupting then
             s.ws_state <- Finished Outcome_interrupted
           else if Bvf_util.Mclock.now_s () >= until then
             s.ws_state <-
               Bvf_util.Prof.span sup_prof "restart" (fun () ->
                   spawn s.ws_index)
         | Running r -> (
           match Unix.waitpid [ Unix.WNOHANG ] r.rn_pid with
           | 0, _ ->
             (* alive: track heartbeat freshness *)
             (match read_hb (hb_path dir s.ws_index) with
              | Some (hseq, _, _) as hb
                when (match r.rn_hb with
                      | Some (s0, _, _) -> s0 <> hseq
                      | None -> true) ->
                r.rn_hb <- hb;
                r.rn_hb_time <- Bvf_util.Mclock.now_s ()
              | Some _ | None ->
                if
                  (not !interrupting)
                  && Bvf_util.Mclock.elapsed_s ~since:r.rn_hb_time
                     > deadline_s
                then begin
                  (* hung: no heartbeat within the deadline *)
                  (try Unix.kill r.rn_pid Sys.sigkill with
                   | Unix.Unix_error _ -> ());
                  ignore (Unix.waitpid [] r.rn_pid);
                  record_crash s Triage.Crash_hang
                end
                else if
                  !interrupting
                  && Bvf_util.Mclock.elapsed_s ~since:!interrupt_at
                     > deadline_s
                then begin
                  (* refuses to die during shutdown: force it *)
                  (try Unix.kill r.rn_pid Sys.sigkill with
                   | Unix.Unix_error _ -> ());
                  ignore (Unix.waitpid [] r.rn_pid);
                  s.ws_state <- Finished Outcome_interrupted
                end)
           | _, Unix.WEXITED 0
             when Sys.file_exists (done_path dir s.ws_index) ->
             s.ws_state <- Finished Outcome_completed
           | _, Unix.WEXITED code ->
             if !interrupting && (code = 0 || code = 130 || code = 143)
             then s.ws_state <- Finished Outcome_interrupted
             else record_crash s (Triage.Crash_exit code)
           | _, Unix.WSIGNALED sg ->
             if !interrupting then
               s.ws_state <- Finished Outcome_interrupted
             else record_crash s (Triage.Crash_signal (unix_signal sg))
           | _, Unix.WSTOPPED _ -> ()))
      slots;
    if not (all_finished ()) then Unix.sleepf poll_s
  done;
  (* -- Join ------------------------------------------------------------- *)
  let fr_join = Bvf_util.Prof.start sup_prof "join" in
  let finals =
    Array.init workers (fun i ->
        Result.to_option (load_worker ~path:(ckpt_path dir i)))
  in
  let rp_workers =
    Array.to_list
      (Array.map
         (fun s ->
            {
              wr_worker = s.ws_index;
              wr_outcome =
                (match s.ws_state with
                 | Finished o -> o
                 | Running _ | Waiting _ -> assert false);
              wr_assigned = counts.(s.ws_index);
              wr_completed =
                (match finals.(s.ws_index) with
                 | Some w -> w.wk_snapshot.Campaign.sn_completed
                 | None -> 0);
              wr_restarts = s.ws_restarts;
            })
         slots)
  in
  let report =
    {
      rp_workers;
      rp_crashes = List.rev !crashes;
      rp_quarantined = !quarantine_set;
      rp_abandoned =
        List.filter_map
          (fun w ->
             if
               w.wr_outcome <> Outcome_completed
               && w.wr_completed < w.wr_assigned
             then Some (w.wr_worker, w.wr_completed, w.wr_assigned - 1)
             else None)
          rp_workers;
    }
  in
  let outcome =
    if !interrupting then Interrupted report
    else begin
      (* a retired worker's trace may carry events past its last
         barrier; trim to the checkpointed offset so the merged trace
         matches the merged stats *)
      Option.iter
        (fun t ->
           Array.iteri
             (fun i final ->
                let p = Parallel.shard_trace_path ~jobs:workers t i in
                if Sys.file_exists p then
                  match final with
                  | Some w -> Unix.truncate p w.wk_trace_pos
                  | None -> remove_if_exists p)
             finals)
        trace;
      let shards =
        List.filter_map
          (fun i -> Option.map (fun w -> (i, Ok w.wk_snapshot)) finals.(i))
          (List.init workers Fun.id)
      in
      Completed
        (Parallel.join ~jobs:workers ~trace ~prof:sup_prof shards,
         report)
    end
  in
  absorb_profs prof ~dir ~workers;
  ignore (Bvf_util.Prof.stop sup_prof fr_join);
  outcome
