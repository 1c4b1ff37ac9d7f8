open Cimport

(* Parallel campaign runner: shard one logical campaign across N OCaml 5
   domains, the way syzkaller shards fuzzing across VMs and merges
   coverage centrally (and the way the paper's evaluation runs many
   instances to reach meaningful iteration counts).

   Each shard is a fully independent {!Campaign.t}: its own simulated
   kernel, its own RNG stream (split as [seed + shard_index], so the
   result is a pure function of (seed, jobs)), its own coverage map and
   corpus.  Shards never share mutable state, so domains need no locks
   and the run is deterministic regardless of scheduling.

   The merge layer folds the shard results into one {!Campaign.stats}:

   - coverage is unioned through portable (site, variant) edge names
     (numeric edge ids are interner-order dependent per shard);
   - findings are deduplicated by fingerprint key, keeping the earliest
     *global* iteration — shard-local iteration [j] of shard [s] maps to
     global iteration [j * jobs + s], i.e. the shards are viewed as
     fuzzing in lockstep round-robin, exactly the schedule a sequential
     run with [jobs = 1] degenerates to;
   - counters, errno distributions and instruction histograms are
     summed;
   - the corpus is the union of shard corpora with entries re-scored
     under their global iteration numbers ({!Corpus.of_entries});
   - the merged coverage curve records, at every global iteration any
     shard sampled, the sum of the shards' local edge counts — the raw
     per-VM signal before central dedup, an upper bound on the union;
     the final [st_edges] is the true union size.

   Shards run on {!Bvf_util.Lanes}: at most one domain per core, the
   calling domain running shard 0 (and shards d, 2d, ... when there are
   more shards than cores).

   Determinism contract: for fixed (seed, jobs, config, strategy) every
   shard result and the merged stats/digest are identical across runs
   and machines, whatever the core count.  [jobs = 1] is the sequential
   campaign: one shard stepped in the calling domain, digest- and
   trace-identical to {!Campaign.run}, and the path a plain [bvf fuzz]
   takes.

   [run] is the one driver of every [bvf fuzz]: it plans the run from
   the shard files, runs each shard task on a lane and joins the final
   states.  A lane is a domain ({!Bvf_util.Lanes}) or, with
   [~supervise], a supervised worker process ({!Supervisor.lanes}),
   which survives a segfault, an OOM or a hang; the two lane kinds
   differ only in where a shard runs. *)

(* A run with a state directory keeps one file per shard, whichever
   lane kind runs it: [shard-<i>.ckpt], a [state] record.  A plain run
   is one shard. *)
type state = {
  ss_shard : int;
  ss_jobs : int;
  ss_trace_pos : int;
  ss_snapshot : Campaign.snapshot;
  ss_final : Campaign.snapshot option;
}

type result = {
  pr_jobs : int;
  pr_iterations : int;
  pr_idle : bool;            (* no shard ran: all finished on disk *)
  pr_stats : Campaign.stats; (* merged *)
  pr_cov : Coverage.t;       (* union coverage *)
  pr_corpus : Corpus.t;      (* merged, re-scored *)
  pr_shards : state list;    (* final states, in index order *)
  pr_report : Supervisor.report option; (* process lanes only *)
}

let final_snapshot (st : state) : Campaign.snapshot =
  Option.value st.ss_final ~default:st.ss_snapshot

let final_stats (st : state) : Campaign.stats =
  (final_snapshot st).Campaign.sn_stats

(* Round-robin split: shard [i] executes exactly the global iterations
   congruent to [i] mod [jobs], so the per-shard counts are
   [iterations / jobs] plus one for the first [iterations mod jobs]
   shards. *)
let shard_iterations ~(iterations : int) ~(jobs : int) : int array =
  if jobs < 1 then invalid_arg "Parallel.shard_iterations: jobs < 1";
  if iterations < 0 then
    invalid_arg "Parallel.shard_iterations: negative iterations";
  Array.init jobs (fun i ->
      (iterations / jobs) + if i < iterations mod jobs then 1 else 0)

let global_iteration ~(jobs : int) ~(shard : int) (local : int) : int =
  (local * jobs) + shard

(* -- Merging ----------------------------------------------------------- *)

let add_histogram (a : Disasm.class_histogram)
    (b : Disasm.class_histogram) : Disasm.class_histogram =
  {
    Disasm.alu = a.Disasm.alu + b.Disasm.alu;
    jmp = a.Disasm.jmp + b.Disasm.jmp;
    load = a.Disasm.load + b.Disasm.load;
    store = a.Disasm.store + b.Disasm.store;
    call = a.Disasm.call + b.Disasm.call;
    other = a.Disasm.other + b.Disasm.other;
  }

(* Merged findings: same dedup key as the sequential campaign, earliest
   global iteration wins.  Folding per key through [min] makes the
   result independent of hashtable iteration order. *)
let merge_findings ~(jobs : int) (shards : state list) :
  (string, Campaign.found) Hashtbl.t =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun sh ->
       Hashtbl.iter
         (fun key (f : Campaign.found) ->
            let f =
              { f with
                Campaign.fd_iteration =
                  global_iteration ~jobs ~shard:sh.ss_shard
                    f.Campaign.fd_iteration }
            in
            match Hashtbl.find_opt merged key with
            | Some prev
              when prev.Campaign.fd_iteration <= f.Campaign.fd_iteration ->
              ()
            | Some _ | None -> Hashtbl.replace merged key f)
         (final_stats sh).Campaign.st_findings)
    shards;
  merged

(* Merged coverage curve: at every global iteration some shard sampled,
   the sum of each shard's latest local edge count — per-VM coverage
   before central dedup.  Monotone and deterministic. *)
let merge_curves ~(jobs : int) (shards : state list) :
  Campaign.sample list =
  (* per shard: samples ascending by global iteration *)
  let ascending =
    List.map
      (fun sh ->
         List.rev_map
           (fun (sa : Campaign.sample) ->
              ( global_iteration ~jobs ~shard:sh.ss_shard
                  sa.Campaign.sa_iteration,
                sa.Campaign.sa_edges ))
           (final_stats sh).Campaign.st_curve
         |> List.sort compare)
      shards
  in
  let points =
    List.sort_uniq compare (List.concat_map (List.map fst) ascending)
  in
  let at (samples : (int * int) list) (g : int) : int =
    List.fold_left
      (fun acc (it, edges) -> if it <= g then edges else acc)
      0 samples
  in
  List.map
    (fun g ->
       { Campaign.sa_iteration = g;
         sa_edges =
           List.fold_left (fun acc s -> acc + at s g) 0 ascending })
    points
  |> List.rev (* newest first, like the sequential curve *)

(* Per-key counts (errno, rejection reason) summed across shards. *)
let merge_counts (table : Campaign.stats -> ('k, int) Hashtbl.t)
    (shards : state list) : ('k, int) Hashtbl.t =
  let merged = Hashtbl.create 16 in
  List.iter
    (fun sh ->
       Hashtbl.iter
         (fun k n ->
            Hashtbl.replace merged k
              (n + Option.value (Hashtbl.find_opt merged k) ~default:0))
         (table (final_stats sh)))
    shards;
  merged

let merge_stats ~(jobs : int) (cov : Coverage.t) (shards : state list) :
  Campaign.stats =
  match List.map final_stats shards with
  | [] -> invalid_arg "Parallel.merge_stats: no shards"
  | first :: _ as stats ->
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
    {
      Campaign.st_tool = first.Campaign.st_tool;
      st_version = first.Campaign.st_version;
      st_generated = sum (fun s -> s.Campaign.st_generated);
      st_accepted = sum (fun s -> s.Campaign.st_accepted);
      st_rejected = sum (fun s -> s.Campaign.st_rejected);
      st_errno = merge_counts (fun s -> s.Campaign.st_errno) shards;
      st_reasons = merge_counts (fun s -> s.Campaign.st_reasons) shards;
      st_findings = merge_findings ~jobs shards;
      st_curve = merge_curves ~jobs shards;
      st_histogram =
        List.fold_left
          (fun acc s -> add_histogram acc s.Campaign.st_histogram)
          Disasm.empty_histogram stats;
      st_edges = Coverage.edge_count cov;
      st_reboots = sum (fun s -> s.Campaign.st_reboots);
      st_env_errors = sum (fun s -> s.Campaign.st_env_errors);
      st_retries = sum (fun s -> s.Campaign.st_retries);
      st_quarantined = sum (fun s -> s.Campaign.st_quarantined);
      st_skipped = sum (fun s -> s.Campaign.st_skipped);
      st_lint = sum (fun s -> s.Campaign.st_lint);
      st_vstats =
        (let merged = Vstats.agg_zero () in
         List.iter
           (fun s -> Vstats.agg_absorb merged s.Campaign.st_vstats)
           stats;
         merged);
    }

let merge_corpora ~(jobs : int) (shards : state list) : Corpus.t =
  List.concat_map
    (fun sh ->
       List.map
         (fun (e : Corpus.entry) ->
            { e with
              Corpus.added_at =
                global_iteration ~jobs ~shard:sh.ss_shard
                  e.Corpus.added_at })
         (Corpus.entries (final_snapshot sh).Campaign.sn_corpus))
    shards
  |> Corpus.of_entries

(* -- The state directory ------------------------------------------------ *)

(* /2: the snapshot carries the campaign's whole Kconfig, bug set
   included, where /1 copied five of its fields. *)
let state_tag = "bvf-shard/2"

exception Bad_state of string * Checkpoint.error

let state_path (dir : string) (i : int) : string =
  Filename.concat dir (Printf.sprintf "shard-%d.ckpt" i)

let rec mkdirs (dir : string) : unit =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let lock_path (dir : string) : string = Filename.concat dir "state.lock"

(* One live run owns a state directory: two runs on one directory
   clobber each other's shard files, and two supervised runs each take
   the other's workers for crashed children of their own.  The lock file
   records the owner's pid; a lock whose owner is dead is stale and is
   broken once. *)
let with_lock (dir : string) (f : unit -> 'a) : 'a =
  let path = lock_path dir in
  let remove () = try Sys.remove path with Sys_error _ -> () in
  let rec take ~retry =
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
      (match owner with
       | Some pid when pid > 0 && (try Unix.kill pid 0; true with _ -> false)
         ->
         raise
           (Campaign.Environment
              (Printf.sprintf
                 "state directory is in use by a running campaign (pid %d \
                  holds %s)" pid path))
       | _ when retry ->
         remove ();
         take ~retry:false
       | _ -> raise (Campaign.Environment ("cannot lock " ^ path)))
  in
  take ~retry:true;
  Fun.protect ~finally:remove f

let load_state (path : string) : state =
  match Checkpoint.load ~path ~tag:state_tag with
  | Ok (st : state) -> st
  | Error e -> raise (Bad_state (path, e))

let save_state (path : string) (st : state) : unit =
  match Checkpoint.save ~path ~tag:state_tag st with
  | Ok () -> ()
  | Error e ->
    raise
      (Campaign.Environment
         (Printf.sprintf "cannot write %s: %s" path
            (Checkpoint.error_to_string e)))

(* What makes two snapshots one campaign's: the tool and the whole
   config, bug set included. *)
let mismatch ~(taken : Campaign.snapshot) ~(wanted : Campaign.snapshot) :
  string option =
  let identity (s : Campaign.snapshot) =
    ("tool", s.Campaign.sn_tool) :: Kconfig.fields s.Campaign.sn_config
  in
  List.find_map
    (fun ((name, t), (_, w)) ->
       if t = w then None else Some (Printf.sprintf "%s %s, not %s" name t w))
    (List.combine (identity taken) (identity wanted))

let shard_failslab ~(failslab_rate : float option)
    ~(failslab_seed : int option) ~(seed : int) (i : int) :
  Bvf_kernel.Failslab.t option =
  match failslab_rate with
  | Some rate when rate > 0.0 ->
    Some
      (Bvf_kernel.Failslab.create ~rate
         ~seed:(Option.value failslab_seed ~default:seed + i)
         ())
  | Some _ | None -> None

(* A fault plan as its rate and seed: the whole of what a run chooses. *)
let plan_to_string (f : Bvf_kernel.Failslab.t) : string =
  if Bvf_kernel.Failslab.enabled f then
    Printf.sprintf "rate %g seed %d" (Bvf_kernel.Failslab.rate f)
      (Bvf_kernel.Failslab.seed f)
  else "off"

(* The one check: shard [i]'s file must belong to this run — the same
   shard count, shard, seed, tool, config and fault plan, not a merged
   artifact, and no more iterations than the shard is assigned.
   Resuming one cut for another run would report that run's campaign
   as this one's. *)
let saved_state ?failslab_rate ?failslab_seed ~(dir : string) ~(jobs : int)
    ~(seed : int) ~(iterations : int) (strategy : Campaign.strategy)
    (config : Kconfig.t) (i : int) : state option =
  let path = state_path dir i in
  if not (Sys.file_exists path) then None
  else begin
    let st = load_state path in
    let s = st.ss_snapshot in
    let refuse msg =
      raise
        (Campaign.Environment
           (Printf.sprintf
              "state directory %s holds a checkpoint of another campaign: \
               %s: %s (use a fresh --state-dir)"
              dir (Filename.basename path) msg))
    in
    let field name to_string taken wanted =
      if taken <> wanted then
        refuse
          (Printf.sprintf "%s %s, not %s" name (to_string taken)
             (to_string wanted))
    in
    let assigned = (shard_iterations ~iterations ~jobs).(i) in
    field "shards" string_of_int st.ss_jobs jobs;
    field "shard" string_of_int st.ss_shard i;
    field "seed" string_of_int s.Campaign.sn_seed (seed + i);
    let wanted =
      Campaign.fresh
        ?failslab:(shard_failslab ~failslab_rate ~failslab_seed ~seed i)
        ~seed:(seed + i) strategy config
    in
    Option.iter refuse (mismatch ~taken:s ~wanted);
    field "failslab" Fun.id (plan_to_string s.Campaign.sn_failslab)
      (plan_to_string wanted.Campaign.sn_failslab);
    if s.Campaign.sn_merged then
      refuse "a merged artifact (bvf merge) has no RNG stream to continue";
    if s.Campaign.sn_completed > assigned then
      refuse
        (Printf.sprintf "%d iterations completed, more than the %d assigned"
           s.Campaign.sn_completed assigned);
    Some st
  end

(* -- One shard ------------------------------------------------------------ *)

(* The trace file shard [i] writes.  A one-shard run writes [trace]
   itself, so its trace is byte-identical to a sequential campaign's;
   otherwise each shard writes its own file, with iterations already
   rewritten to global numbering, and the join merges them. *)
let shard_trace_path ~(jobs : int) (trace : string) (i : int) : string =
  if jobs = 1 then trace else trace ^ ".shard" ^ string_of_int i

let remove_shard_traces ~(jobs : int) (trace : string option) : unit =
  match trace with
  | Some t when jobs > 1 ->
    for i = 0 to jobs - 1 do
      let p = shard_trace_path ~jobs t i in
      if Sys.file_exists p then Sys.remove p
    done
  | Some _ | None -> ()

(* Build shard [i] and step it with the one {!Campaign.run_t} call of
   either lane kind, inside one top-level "iterate" span on the shard's
   track [prof].  The campaign's phase spans nest inside it, so its self
   time is the per-iteration harness overhead (RNG, corpus, telemetry
   emission).  The sink is closed when the shard returns or raises. *)
let run_shard ?(sample_every = 64) ?checkpoint_every ?dir ?from
    ?skip ?stop ?on_step ~(jobs : int) ~(seed : int)
    ~(failslab_rate : float option) ~(failslab_seed : int option)
    ~(trace : string option) ~(prof : Bvf_util.Prof.t) ~(iterations : int)
    (strategy : Campaign.strategy) (config : Kconfig.t) (i : int) : state =
  Bvf_util.Prof.span prof "iterate" @@ fun () ->
  let telemetry =
    match trace with
    | None -> Telemetry.null
    | Some path -> (
      let iter_map = global_iteration ~jobs ~shard:i in
      let path = shard_trace_path ~jobs path i in
      (* a resumed shard continues its trace where its state left it;
         a trace that is not there (or shorter) starts afresh *)
      match from with
      | Some st
        when Sys.file_exists path
             && (Unix.stat path).Unix.st_size >= st.ss_trace_pos ->
        Telemetry.reopen ~iter_map path ~pos:st.ss_trace_pos
      | Some _ | None -> Telemetry.create ~iter_map path)
  in
  let failslab = shard_failslab ~failslab_rate ~failslab_seed ~seed i in
  Fun.protect ~finally:(fun () -> Telemetry.close telemetry) @@ fun () ->
  (* the Checkpoint event is already in the trace when the offset is
     taken, so a resumed shard continues just after it *)
  let state (c : Campaign.t) : state =
    { ss_shard = i; ss_jobs = jobs; ss_trace_pos = Telemetry.pos telemetry;
      ss_snapshot = Campaign.snapshot c; ss_final = None }
  in
  let saved_at = ref (-1) in
  let save path c =
    save_state path (state c);
    saved_at := c.Campaign.stats.Campaign.st_generated
  in
  let start =
    match from with
    | Some st -> st.ss_snapshot.Campaign.sn_completed
    | None -> 0
  in
  let c =
    Campaign.run_t ~sample_every ~telemetry ~prof ?failslab
      ?checkpoint_every
      ?checkpoint:(Option.map (fun dir -> save (state_path dir i)) dir)
      ?resume_from:(Option.map (fun st -> st.ss_snapshot) from)
      ?skip:(Option.map (fun f -> f telemetry) skip) ?stop ?on_step
      ~seed:(seed + i) ~iterations strategy config
  in
  let final = state c in
  let completed = c.Campaign.stats.Campaign.st_generated in
  (* The file keeps the last barrier's snapshot, taken before its
     reboot: a longer run resumes from there exactly.  A shard that
     ran its whole budget adds its final snapshot, unless its last
     iteration was off a barrier and the final snapshot is all there
     is.  A stopped shard's file is the stop's save. *)
  Option.iter
    (fun dir ->
       let path = state_path dir i in
       Bvf_util.Prof.span prof "checkpoint" (fun () ->
           if !saved_at <> completed then save_state path final
           else if completed = start + iterations then
             save_state path
               { (load_state path) with
                 ss_final = Some final.ss_snapshot }))
    dir;
  final

(* -- The join -------------------------------------------------------------- *)

(* The one join every run ends with.  [finals] holds shard results: a
   final state, or the exception the shard died with.  A failure only
   surfaces here, after the caller has collected every shard, so
   nothing is left running when it is re-raised. *)
let join ~(jobs : int) ~(trace : string option) ~(prof : Bvf_util.Prof.t)
    (finals : (state, exn) Stdlib.result list) : result =
  let states =
    List.map (function Ok st -> st | Error e -> raise e) finals
  in
  (match trace with
   | Some into ->
     (* each shard trace ends where its state does: a worker killed
        past its last barrier wrote events its state does not hold *)
     List.iter
       (fun st ->
          let p = shard_trace_path ~jobs into st.ss_shard in
          if Sys.file_exists p && (Unix.stat p).Unix.st_size > st.ss_trace_pos
          then Unix.truncate p st.ss_trace_pos)
       states;
     if jobs > 1 then
       Bvf_util.Prof.span prof "trace_merge" (fun () ->
           ignore
             (Telemetry.merge_shards ~into
                (List.init jobs (shard_trace_path ~jobs into))))
   | None -> ());
  let cov =
    Bvf_util.Prof.span prof "absorb" (fun () ->
        Coverage.union
          (List.map (fun st -> (final_snapshot st).Campaign.sn_cov) states))
  in
  Bvf_util.Prof.span prof "merge" (fun () ->
      {
        pr_jobs = jobs;
        pr_iterations =
          List.fold_left
            (fun acc st -> acc + (final_snapshot st).Campaign.sn_completed)
            0 states;
        pr_idle = false;
        pr_stats = merge_stats ~jobs cov states;
        pr_cov = cov;
        pr_corpus = merge_corpora ~jobs states;
        pr_shards = states;
        pr_report = None;
      })

(* A join's result as a one-shard state: [template]'s identity (tool,
   kernel, seed, config flags), the merged state, and no RNG stream
   ([sn_merged]) — reportable and re-mergeable, never resumable. *)
let state_of_result (template : Campaign.snapshot) (r : result) : state =
  { ss_shard = 0; ss_jobs = 1; ss_trace_pos = 0; ss_final = None;
    ss_snapshot =
      { template with
        Campaign.sn_completed = r.pr_iterations;
        sn_merged = true;
        sn_rng = 0L;
        sn_failslab = Bvf_kernel.Failslab.off ();
        sn_corpus = r.pr_corpus;
        sn_cov = r.pr_cov;
        sn_stats = r.pr_stats } }

(* Offline merge (bvf merge, bvf cov): each state is first renumbered
   to global iterations by a one-shard join of its own width, so all
   enter the final join as shard 0 of a [jobs = 1] join —
   [global_iteration] degenerates to the identity there.  The result is
   associative and commutative on everything {!Campaign.digest} covers
   (counts, errno and reason tables, findings-at-earliest-iteration,
   curve, vstats, union coverage); only the corpus, which is capped and
   re-scored, falls outside that guarantee — and outside the digest
   too. *)
let merge_states (states : state list) : state =
  let global (st : state) : state =
    state_of_result (final_snapshot st)
      (join ~jobs:st.ss_jobs ~trace:None ~prof:Bvf_util.Prof.disabled
         [ Ok st ])
  in
  match List.map global states with
  | [] -> invalid_arg "Parallel.merge_states: no states"
  | first :: rest as globals ->
    List.iter
      (fun (g : state) ->
         Option.iter
           (fun msg ->
              raise
                (Campaign.Environment
                   ("cannot merge checkpoints of different campaigns: " ^ msg)))
           (mismatch ~taken:g.ss_snapshot ~wanted:first.ss_snapshot))
      rest;
    state_of_result first.ss_snapshot
      (join ~jobs:1 ~trace:None ~prof:Bvf_util.Prof.disabled
         (List.map Result.ok globals))

(* -- Driving ----------------------------------------------------------- *)

let run ?sample_every ?trace ?failslab_rate ?failslab_seed
    ?checkpoint_every ?dir ?stop ?on_step ?supervise
    ?(prof = Bvf_util.Prof.session ~spans:false ()) ~(jobs : int)
    ~(seed : int) ~(iterations : int) (strategy : Campaign.strategy)
    (config : Kconfig.t) : result =
  if jobs < 1 then invalid_arg "Parallel.run: jobs < 1";
  if Option.is_some supervise && dir = None then
    invalid_arg "Parallel.run: supervise without dir";
  let counts = shard_iterations ~iterations ~jobs in
  (* the calling process's own work: starting and waiting for lanes,
     the join and the merge *)
  let main_prof = Bvf_util.Prof.track prof ~name:"coordinator" jobs in
  Option.iter mkdirs dir;
  let locked f = match dir with Some dir -> with_lock dir f | None -> f () in
  locked @@ fun () ->
  let saved i =
    Option.bind dir (fun dir ->
        saved_state ?failslab_rate ?failslab_seed ~dir ~jobs ~seed
          ~iterations strategy config i)
  in
  (* every shard's file is checked before any shard starts *)
  let plan = Array.init jobs saved in
  let completed (st : state) = (final_snapshot st).Campaign.sn_completed in
  let finished i =
    match plan.(i) with Some st -> completed st = counts.(i) | None -> false
  in
  let stopped i = match stop with Some f -> f i () | None -> false in
  (* a shard that never ran reports its file, or a fresh snapshot: it
     builds nothing *)
  let or_fresh i from =
    Option.value from
      ~default:
        { ss_shard = i; ss_jobs = jobs; ss_trace_pos = 0; ss_final = None;
          ss_snapshot =
            Campaign.fresh
              ?failslab:(shard_failslab ~failslab_rate ~failslab_seed ~seed i)
              ~seed:(seed + i) strategy config }
  in
  (* one incarnation of shard [i]'s task, whichever lane runs it *)
  let task i ~from ~prof ?skip ?stop () =
    run_shard ?sample_every ?checkpoint_every ?dir ?from ?skip
      ?stop ?on_step:(Option.map (fun f -> f i) on_step) ~jobs ~seed
      ~failslab_rate ~failslab_seed ~trace ~prof
      ~iterations:(counts.(i) - Option.fold ~none:0 ~some:completed from)
      strategy config i
  in
  let finals, report =
    match supervise with
    | None ->
      (* one profiler track per shard, created before the lanes spawn
         and then owned by the lane that runs the shard *)
      let shard_prof =
        Array.init jobs (fun i ->
            Bvf_util.Prof.track prof ~name:(Printf.sprintf "shard%d" i) i)
      in
      let shard (i : int) : state =
        match plan.(i) with
        (* a finished shard is reported, not re-run: a re-run would
           reboot its kernel once more and move the merged digest *)
        | Some st when finished i -> st
        (* a shard its lane reaches after a stop builds nothing *)
        | from when stopped i -> or_fresh i from
        | from ->
          task i ~from ~prof:shard_prof.(i)
            ?stop:(Option.map (fun f -> f i) stop) ()
      in
      (* shard 0 runs in the calling domain, so [jobs = 1] is the
         sequential path; every shard runs even after one raised, and
         the join re-raises the lowest-index failure once no shard is
         left running *)
      (Bvf_util.Lanes.run ~prof:main_prof ~tasks:jobs shard, None)
    | Some policy ->
      (* each incarnation reads its own file: a restart resumes from
         the last state its predecessor saved *)
      let pool =
        Supervisor.lanes policy ~prof ~coordinator:main_prof ~stop:stopped
          ~dir:(Option.get dir) ~workers:jobs ~finished
          (fun i ~prof ~skip ~stop ->
             ignore (task i ~from:(saved i) ~prof ~skip ~stop () : state))
      in
      (* each shard's final state, read once; a shard with no file
         (stopped before it started, or retired before its first
         barrier) kept nothing *)
      let finals =
        Array.init jobs (fun i ->
            match plan.(i) with
            | Some st when finished i -> st
            | Some _ | None -> or_fresh i (saved i))
      in
      ( Array.map Result.ok finals,
        Some
          (Supervisor.report pool ~assigned:counts
             ~completed:(Array.map completed finals)) )
  in
  (* every shard was already complete on disk: no shard ran, and the
     trace the run that did the work merged is left as it is *)
  let idle = Array.for_all Fun.id (Array.init jobs finished) in
  let complete =
    Array.for_all2
      (fun r n -> match r with Ok st -> completed st = n | Error _ -> false)
      finals counts
  in
  (* shard traces outlive a run that a rerun continues *)
  Fun.protect
    ~finally:(fun () ->
        if dir = None || complete then remove_shard_traces ~jobs trace)
    (fun () ->
       { (join ~jobs ~trace:(if idle then None else trace) ~prof:main_prof
            (Array.to_list finals))
         with pr_idle = idle; pr_report = report })

let digest (r : result) : string = Campaign.digest r.pr_stats

let pp_summary fmt (r : result) : unit =
  Format.fprintf fmt "%a" Campaign.pp_summary r.pr_stats;
  if r.pr_jobs > 1 then
    List.iter
      (fun st ->
         let s = final_snapshot st in
         let stats = s.Campaign.sn_stats in
         Format.fprintf fmt
           "  shard %d (seed %d): %d programs, %d edges, %d findings, %d reboots@."
           st.ss_shard s.Campaign.sn_seed stats.Campaign.st_generated
           stats.Campaign.st_edges
           (Hashtbl.length stats.Campaign.st_findings)
           stats.Campaign.st_reboots)
      r.pr_shards;
  List.iter
    (fun st ->
       let plan = (final_snapshot st).Campaign.sn_failslab in
       if Bvf_kernel.Failslab.enabled plan then
         Bvf_kernel.Failslab.pp_summary fmt plan)
    r.pr_shards
