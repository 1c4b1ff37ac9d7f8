(* Process lanes: each shard task of the fuzz driver runs in a forked
   OS process under a heartbeat watchdog, so an analyzer crash, OOM or
   hang costs one worker one segment, not the campaign.  The driver
   plans the run, reads and writes the shard files and joins them; this
   module only forks, watches, restarts and reports.  The process
   protocol is plain files under the state directory:

     worker-<i>.hb     heartbeat, overwritten in place before every step
     worker-<i>.done   completion marker (exit 0 without it = crash)
     worker-<i>.err    last uncaught exception, for post-mortems
     worker-<i>.prof   profiler totals (and --profile spans) for the parent
     quarantine.list   global iterations implicated by a crash
     crash-NNN.json    one Triage.harness_crash artifact per kill

   Determinism: a worker replays its segment from the last barrier
   state exactly (same RNG stream, same reboot schedule), except for
   quarantined iterations, which burn the iteration's generation draws
   without loading (run_t's [skip] hook).  A disturbed run is therefore
   digest-comparable to a fault-free run given the same quarantine set
   — the chaos harness's oracle. *)

(* A worker's profiler hand-off; the container refuses a damaged file.
   /2: moved into the checkpoint container and gained the totals. *)
let prof_tag = "bvf-prof/2"

type worker_prof = {
  wp_totals : Bvf_util.Prof.total list;
  wp_spans : Bvf_util.Prof.span list;
}

(* -- Protocol files ----------------------------------------------------- *)

let hb_path dir i = Filename.concat dir (Printf.sprintf "worker-%d.hb" i)

let done_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.done" i)

let err_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.err" i)

let prof_path dir i =
  Filename.concat dir (Printf.sprintf "worker-%d.prof" i)

let quarantine_path dir = Filename.concat dir "quarantine.list"

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

(* heartbeat line: "seq local global pid", padded with spaces to
   [hb_width] bytes so every record covers the one before it *)
let hb_width = 80

(* Write a worker's heartbeat through [fd], the file kept open for the
   worker's whole incarnation.  The first record is published by
   rename, so the file never exists empty; later ones overwrite it in
   place with one write.  A watchdog poll that lands mid-write can only
   misjudge freshness by one poll (it compares seq), and crash
   attribution reads the file only after the worker died, so a torn
   record never names an iteration. *)
let write_hb (path : string) (fd : Unix.file_descr option ref) ~(seq : int)
    ~(local : int) ~(global : int) : unit =
  let record =
    Printf.sprintf "%-*s\n" (hb_width - 1)
      (Printf.sprintf "%d %d %d %d" seq local global (Unix.getpid ()))
  in
  let put fd = ignore (Unix.write_substring fd record 0 hb_width : int) in
  match !fd with
  | Some open_fd ->
    ignore (Unix.lseek open_fd 0 Unix.SEEK_SET : int);
    put open_fd
  | None ->
    let tmp = path ^ ".tmp" in
    let new_fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    put new_fd;
    Sys.rename tmp path;
    fd := Some new_fd

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

(* -- Supervision (parent process) ---------------------------------------- *)

type policy = {
  deadline_s : float;
  poll_s : float;
  max_restarts : int;
  backoff_s : float;
  quarantine : int list;
  fault : (worker:int -> local:int -> global:int -> unit) option;
}

let default_policy =
  { deadline_s = 30.; poll_s = 0.05; max_restarts = 5; backoff_s = 0.5;
    quarantine = []; fault = None }

type task =
  int -> prof:Bvf_util.Prof.t -> skip:(Telemetry.sink -> int -> bool) ->
  stop:(unit -> bool) -> unit

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
  | Waiting of float (* (re)start backoff: not before this time *)
  | Finished of worker_outcome

type wslot = {
  ws_index : int;
  mutable ws_state : wstate;
  mutable ws_restarts : int;
  mutable ws_stopped : float option; (* when its stop fired *)
}

type pool = {
  pl_slots : wslot array;
  pl_crashes : Triage.harness_crash list;
  pl_quarantined : int list;
}

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

let lanes (p : policy) ~(prof : Bvf_util.Prof.session)
    ~(coordinator : Bvf_util.Prof.t) ~(stop : int -> bool) ~(dir : string)
    ~(workers : int) ~(finished : int -> bool) (task : task) : pool =
  let quarantine_set =
    ref
      (List.sort_uniq compare
         (p.quarantine @ quarantine_of_file (quarantine_path dir)))
  in
  write_quarantine dir !quarantine_set;
  let crashes = ref [] (* newest first *) and ncrashes = ref 0 in
  (* Runs in the forked child and never returns (Unix._exit only, so the
     parent's at_exit hooks, buffers and lock are untouched).  The task
     steps the shard: SIGTERM/SIGINT go through its [stop] poll, and its
     [skip] hook is the once-per-iteration pre-step that writes the
     heartbeat, runs the fault hook and skips quarantined iterations. *)
  let worker (i : int) : unit =
    let stop = ref 0 in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := 143));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := 130));
    (* the driver's round-robin numbering: local [l] of shard [i] is
       global [l * workers + i] *)
    let global local = (local * workers) + i in
    try
      (* local iterations quarantined for this shard *)
      let quarantined : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun g ->
           if g >= 0 && g mod workers = i then
             Hashtbl.replace quarantined (g / workers) ())
        (quarantine_of_file (quarantine_path dir));
      (* the child records into its own session (the parent's lives in
         another process); its totals and spans reach the parent through
         the worker-<i>.prof file written at clean exit *)
      let wsession =
        Bvf_util.Prof.session ~spans:(Bvf_util.Prof.active prof) ()
      in
      let track =
        Bvf_util.Prof.track wsession ~name:(Printf.sprintf "worker%d" i) i
      in
      let seq = ref 0 in
      let hb_fd = ref None in
      let skip (sink : Telemetry.sink) (local : int) : bool =
        Bvf_util.Prof.span track "heartbeat" (fun () ->
            incr seq;
            write_hb (hb_path dir i) hb_fd ~seq:!seq ~local
              ~global:(global local);
            (* at most the in-flight iteration's events are lost to
               SIGKILL *)
            Telemetry.flush sink);
        Hashtbl.mem quarantined local
        || begin
          Option.iter (fun f -> f ~worker:i ~local ~global:(global local))
            p.fault;
          false
        end
      in
      task i ~prof:track ~skip ~stop:(fun () -> !stop <> 0);
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
  (* a finished shard is reported, not forked; its profile file is from
     the run that did the work, so this run has no track for it *)
  let slots =
    Array.init workers (fun i ->
        let done_already = finished i in
        if done_already then remove_if_exists (prof_path dir i);
        { ws_index = i;
          ws_state =
            (if done_already then Finished Outcome_completed
             else Waiting 0.);
          ws_restarts = 0;
          ws_stopped = None })
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
    if slot.ws_restarts > p.max_restarts then
      slot.ws_state <- Finished Outcome_retired
    else
      slot.ws_state <-
        Waiting
          (Bvf_util.Mclock.now_s ()
           +. (p.backoff_s *. (2. ** float_of_int (slot.ws_restarts - 1))))
  in
  let all_finished () =
    Array.for_all
      (fun s -> match s.ws_state with Finished _ -> true | _ -> false)
      slots
  in
  (* the kill that ends a worker during shutdown or on a hang *)
  let kill_now (r : int) : unit =
    (try Unix.kill r Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] r)
  in
  while not (all_finished ()) do
    Array.iter
      (fun s ->
         (* a stopped worker is signalled to save and exit; one that is
            waiting to (re)start never does *)
         (match s.ws_state with
          | (Running _ | Waiting _) as st
            when s.ws_stopped = None && stop s.ws_index -> (
              s.ws_stopped <- Some (Bvf_util.Mclock.now_s ());
              match st with
              | Running r -> (
                try Unix.kill r.rn_pid Sys.sigterm
                with Unix.Unix_error _ -> ())
              | Waiting _ | Finished _ -> ())
          | Running _ | Waiting _ | Finished _ -> ());
         let stopping = s.ws_stopped <> None in
         match s.ws_state with
         | Finished _ -> ()
         | Waiting _ when stopping -> s.ws_state <- Finished Outcome_interrupted
         | Waiting until ->
           if Bvf_util.Mclock.now_s () >= until then
             s.ws_state <-
               Bvf_util.Prof.span coordinator
                 (if s.ws_restarts = 0 then "fork" else "restart")
                 (fun () -> spawn s.ws_index)
         | Running r -> (
           match Unix.waitpid [ Unix.WNOHANG ] r.rn_pid with
           | 0, _ -> (
             (* alive: track heartbeat freshness *)
             match read_hb (hb_path dir s.ws_index) with
             | Some (hseq, _, _) as hb
               when (match r.rn_hb with
                     | Some (s0, _, _) -> s0 <> hseq
                     | None -> true) ->
               r.rn_hb <- hb;
               r.rn_hb_time <- Bvf_util.Mclock.now_s ()
             | Some _ | None -> (
               match s.ws_stopped with
               | None
                 when Bvf_util.Mclock.elapsed_s ~since:r.rn_hb_time
                      > p.deadline_s ->
                 (* hung: no heartbeat within the deadline *)
                 kill_now r.rn_pid;
                 record_crash s Triage.Crash_hang
               | Some at
                 when Bvf_util.Mclock.elapsed_s ~since:at > p.deadline_s ->
                 (* refuses to die during shutdown: force it *)
                 kill_now r.rn_pid;
                 s.ws_state <- Finished Outcome_interrupted
               | Some _ | None -> ()))
           | _, Unix.WEXITED 0
             when Sys.file_exists (done_path dir s.ws_index) ->
             s.ws_state <- Finished Outcome_completed
           | _, Unix.WEXITED code ->
             if stopping && (code = 0 || code = 130 || code = 143) then
               s.ws_state <- Finished Outcome_interrupted
             else record_crash s (Triage.Crash_exit code)
           | _, Unix.WSIGNALED sg ->
             if stopping then s.ws_state <- Finished Outcome_interrupted
             else record_crash s (Triage.Crash_signal (unix_signal sg))
           | _, Unix.WSTOPPED _ -> ()))
      slots;
    if not (all_finished ()) then Unix.sleepf p.poll_s
  done;
  absorb_profs prof ~dir ~workers;
  { pl_slots = slots; pl_crashes = List.rev !crashes;
    pl_quarantined = !quarantine_set }

let report (pool : pool) ~(assigned : int array) ~(completed : int array) :
  report =
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
              wr_assigned = assigned.(s.ws_index);
              wr_completed = completed.(s.ws_index);
              wr_restarts = s.ws_restarts;
            })
         pool.pl_slots)
  in
  {
    rp_workers;
    rp_crashes = pool.pl_crashes;
    rp_quarantined = pool.pl_quarantined;
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
