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

   Determinism contract: for fixed (seed, jobs, config, strategy) every
   shard result and the merged stats/digest are identical across runs
   and machines; [jobs = 1] runs {!Campaign.run_t} in the calling
   domain and is digest- and trace-identical to the sequential path.

   The forked-process executor ({!Supervisor}) shares this module's
   shard setup ({!with_shard}) and join ({!join}), so the two executors
   differ only in where a shard's {!Campaign.run_t} runs. *)

type shard = {
  sh_index : int;
  sh_seed : int;
  sh_iterations : int;
  sh_stats : Campaign.stats;
  sh_corpus : Corpus.entry list;
  sh_edges : ((string * int) * int) list; (* portable coverage listing *)
}

type result = {
  pr_jobs : int;
  pr_iterations : int;
  pr_stats : Campaign.stats; (* merged *)
  pr_cov : Coverage.t;       (* union coverage *)
  pr_corpus : Corpus.t;      (* merged, re-scored *)
  pr_shards : shard list;    (* in index order *)
}

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
let merge_findings ~(jobs : int) (shards : shard list) :
  (string, Campaign.found) Hashtbl.t =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun sh ->
       Hashtbl.iter
         (fun key (f : Campaign.found) ->
            let f =
              { f with
                Campaign.fd_iteration =
                  global_iteration ~jobs ~shard:sh.sh_index
                    f.Campaign.fd_iteration }
            in
            match Hashtbl.find_opt merged key with
            | Some prev
              when prev.Campaign.fd_iteration <= f.Campaign.fd_iteration ->
              ()
            | Some _ | None -> Hashtbl.replace merged key f)
         sh.sh_stats.Campaign.st_findings)
    shards;
  merged

(* Merged coverage curve: at every global iteration some shard sampled,
   the sum of each shard's latest local edge count — per-VM coverage
   before central dedup.  Monotone and deterministic. *)
let merge_curves ~(jobs : int) (shards : shard list) :
  Campaign.sample list =
  (* per shard: samples ascending by global iteration *)
  let ascending =
    List.map
      (fun sh ->
         List.rev_map
           (fun (sa : Campaign.sample) ->
              ( global_iteration ~jobs ~shard:sh.sh_index
                  sa.Campaign.sa_iteration,
                sa.Campaign.sa_edges ))
           sh.sh_stats.Campaign.st_curve
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

let merge_errno (shards : shard list) : (Venv.errno, int) Hashtbl.t =
  let merged = Hashtbl.create 8 in
  List.iter
    (fun sh ->
       Hashtbl.iter
         (fun e n ->
            Hashtbl.replace merged e
              (n + Option.value (Hashtbl.find_opt merged e) ~default:0))
         sh.sh_stats.Campaign.st_errno)
    shards;
  merged

let merge_reasons (shards : shard list) :
  (Reject_reason.t, int) Hashtbl.t =
  let merged = Hashtbl.create 16 in
  List.iter
    (fun sh ->
       Hashtbl.iter
         (fun r n ->
            Hashtbl.replace merged r
              (n + Option.value (Hashtbl.find_opt merged r) ~default:0))
         sh.sh_stats.Campaign.st_reasons)
    shards;
  merged

let merge_stats ~(jobs : int) (cov : Coverage.t) (shards : shard list) :
  Campaign.stats =
  match shards with
  | [] -> invalid_arg "Parallel.merge_stats: no shards"
  | first :: _ ->
    let sum f = List.fold_left (fun acc sh -> acc + f sh.sh_stats) 0 shards in
    let sumf f =
      List.fold_left (fun acc sh -> acc +. f sh.sh_stats) 0. shards
    in
    {
      Campaign.st_tool = first.sh_stats.Campaign.st_tool;
      st_version = first.sh_stats.Campaign.st_version;
      st_generated = sum (fun s -> s.Campaign.st_generated);
      st_accepted = sum (fun s -> s.Campaign.st_accepted);
      st_rejected = sum (fun s -> s.Campaign.st_rejected);
      st_errno = merge_errno shards;
      st_reasons = merge_reasons shards;
      st_findings = merge_findings ~jobs shards;
      st_curve = merge_curves ~jobs shards;
      st_histogram =
        List.fold_left
          (fun acc sh -> add_histogram acc sh.sh_stats.Campaign.st_histogram)
          Disasm.empty_histogram shards;
      st_edges = Coverage.edge_count cov;
      st_reboots = sum (fun s -> s.Campaign.st_reboots);
      st_env_errors = sum (fun s -> s.Campaign.st_env_errors);
      st_retries = sum (fun s -> s.Campaign.st_retries);
      st_quarantined = sum (fun s -> s.Campaign.st_quarantined);
      st_skipped = sum (fun s -> s.Campaign.st_skipped);
      st_lint = sum (fun s -> s.Campaign.st_lint);
      (* CPU seconds, so the phase totals sum across domains *)
      st_gen_s = sumf (fun s -> s.Campaign.st_gen_s);
      st_verify_s = sumf (fun s -> s.Campaign.st_verify_s);
      st_sanitize_s = sumf (fun s -> s.Campaign.st_sanitize_s);
      st_exec_s = sumf (fun s -> s.Campaign.st_exec_s);
      (* allocation is per-domain too: phase minor words sum the same way *)
      st_gen_w = sumf (fun s -> s.Campaign.st_gen_w);
      st_verify_w = sumf (fun s -> s.Campaign.st_verify_w);
      st_sanitize_w = sumf (fun s -> s.Campaign.st_sanitize_w);
      st_exec_w = sumf (fun s -> s.Campaign.st_exec_w);
      st_vstats =
        (let merged = Vstats.agg_zero () in
         List.iter
           (fun sh ->
              Vstats.agg_absorb merged sh.sh_stats.Campaign.st_vstats)
           shards;
         merged);
    }

let merge_corpora ~(jobs : int) (shards : shard list) : Corpus.t =
  List.concat_map
    (fun sh ->
       List.map
         (fun (e : Corpus.entry) ->
            { e with
              Corpus.added_at =
                global_iteration ~jobs ~shard:sh.sh_index
                  e.Corpus.added_at })
         sh.sh_corpus)
    shards
  |> Corpus.of_entries

(* -- Shard setup --------------------------------------------------------- *)

(* The trace file shard [i] writes.  A one-shard run writes [trace]
   itself, so its trace is byte-identical to a sequential campaign's;
   otherwise each shard writes its own file, with iterations already
   rewritten to global numbering, and the join merges them. *)
let shard_trace_path ~(jobs : int) (trace : string) (i : int) : string =
  if jobs = 1 then trace else trace ^ ".shard" ^ string_of_int i

type shard_env = {
  se_seed : int;
  se_failslab : Bvf_kernel.Failslab.t option;
  se_telemetry : Telemetry.sink;
}

(* Build shard [i]'s inputs and run [f] on them inside one top-level
   "iterate" span on the shard's profiler track [prof].  The campaign's
   phase spans nest inside it, so the span's self time is the
   per-iteration harness overhead (RNG, corpus, telemetry emission).
   [trace_pos] reopens an existing shard trace at a checkpointed offset
   instead of truncating it.  The sink is closed when [f] returns or
   raises. *)
let with_shard ~(jobs : int) ~(seed : int) ~(failslab_rate : float option)
    ~(failslab_seed : int option) ~(trace : string option)
    ~(trace_pos : int option) ~(prof : Bvf_util.Prof.t) (i : int)
    (f : shard_env -> 'a) : 'a =
  Bvf_util.Prof.span prof "iterate" @@ fun () ->
  let telemetry =
    match trace with
    | None -> Telemetry.null
    | Some path -> (
      let iter_map = global_iteration ~jobs ~shard:i in
      let path = shard_trace_path ~jobs path i in
      match trace_pos with
      | Some pos -> Telemetry.reopen ~iter_map path ~pos
      | None -> Telemetry.create ~iter_map path)
  in
  let failslab =
    match failslab_rate with
    | Some rate when rate > 0.0 ->
      Some
        (Bvf_kernel.Failslab.create ~rate
           ~seed:(Option.value failslab_seed ~default:seed + i)
           ())
    | Some _ | None -> None
  in
  Fun.protect ~finally:(fun () -> Telemetry.close telemetry) @@ fun () ->
  f { se_seed = seed + i; se_failslab = failslab; se_telemetry = telemetry }

(* -- The join -------------------------------------------------------------- *)

let shard_of_snapshot ~(index : int) (s : Campaign.snapshot) : shard =
  {
    sh_index = index;
    sh_seed = s.Campaign.sn_seed;
    sh_iterations = s.Campaign.sn_completed;
    sh_stats = s.Campaign.sn_stats;
    sh_corpus = Corpus.entries s.Campaign.sn_corpus;
    sh_edges = Coverage.named_edges s.Campaign.sn_cov;
  }

(* The one join every executor ends with.  [finals] holds shard
   results by index: a final snapshot, or the exception the shard died
   with.  A failure only surfaces here, after the caller has collected
   every shard, so nothing is left running when it is re-raised. *)
let join ~(jobs : int) ~(trace : string option)
    ~(prof : Bvf_util.Prof.t)
    (finals : (int * (Campaign.snapshot, exn) Stdlib.result) list) : result =
  let shard_paths =
    match trace with
    | Some t when jobs > 1 -> List.init jobs (shard_trace_path ~jobs t)
    | Some _ | None -> []
  in
  let remove_shard_traces () =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) shard_paths
  in
  let shards =
    List.map
      (function
        | index, Ok s -> shard_of_snapshot ~index s
        | _, Error e ->
          remove_shard_traces ();
          raise e)
      finals
  in
  (match trace with
   | Some into when shard_paths <> [] ->
     Bvf_util.Prof.span prof "trace-merge" (fun () ->
         ignore (Telemetry.merge_shards ~into shard_paths);
         remove_shard_traces ())
   | Some _ | None -> ());
  if shards = [] then
    raise (Campaign.Environment "no shard left a result to merge");
  let cov = Coverage.create () in
  Bvf_util.Prof.span prof "absorb" (fun () ->
      List.iter
        (fun sh -> ignore (Coverage.absorb_named cov sh.sh_edges))
        shards);
  Bvf_util.Prof.span prof "merge" (fun () ->
      {
        pr_jobs = jobs;
        pr_iterations =
          List.fold_left (fun acc sh -> acc + sh.sh_iterations) 0 shards;
        pr_stats = merge_stats ~jobs cov shards;
        pr_cov = cov;
        pr_corpus = merge_corpora ~jobs shards;
        pr_shards = shards;
      })

(* A join's result as a snapshot: [template]'s identity (tool, kernel,
   seed, config flags), the merged state, and no RNG stream
   ([sn_merged]) — reportable and re-mergeable, never resumable. *)
let snapshot_of_result (template : Campaign.snapshot) (r : result) :
  Campaign.snapshot =
  { template with
    Campaign.sn_completed = r.pr_iterations;
    sn_merged = true;
    sn_rng = 0L;
    sn_failslab = Bvf_kernel.Failslab.off ();
    sn_corpus = r.pr_corpus;
    sn_cov = r.pr_cov;
    sn_stats = r.pr_stats;
  }

(* Offline checkpoint merge (bvf merge): fold independent campaign
   snapshots into one reportable snapshot through the join.  Every
   input keeps its own (already global) iteration numbers, so all enter
   as shard 0 of a [jobs = 1] join — [global_iteration] degenerates to
   the identity and nothing is renumbered.  The result is associative
   and commutative on everything {!Campaign.digest} covers (counts,
   errno and reason tables, findings-at-earliest-iteration, curve,
   vstats, union coverage); only the corpus, which is capped and
   re-scored, and the wall-clock phase timers fall outside that
   guarantee — both are deliberately outside the digest too. *)
let merge_snapshots (snapshots : Campaign.snapshot list) :
  Campaign.snapshot =
  match snapshots with
  | [] -> invalid_arg "Parallel.merge_snapshots: no snapshots"
  | first :: rest ->
    List.iter
      (fun (s : Campaign.snapshot) ->
         if s.Campaign.sn_tool <> first.Campaign.sn_tool then
           raise
             (Campaign.Environment
                (Printf.sprintf
                   "cannot merge checkpoints of different tools (%s vs %s)"
                   first.Campaign.sn_tool s.Campaign.sn_tool));
         if s.Campaign.sn_kernel <> first.Campaign.sn_kernel then
           raise
             (Campaign.Environment
                (Printf.sprintf
                   "cannot merge checkpoints of different kernels (%s vs %s)"
                   (Bvf_ebpf.Version.to_string first.Campaign.sn_kernel)
                   (Bvf_ebpf.Version.to_string s.Campaign.sn_kernel)));
         if s.Campaign.sn_sanitize <> first.Campaign.sn_sanitize
            || s.Campaign.sn_unprivileged
               <> first.Campaign.sn_unprivileged
            || s.Campaign.sn_witness <> first.Campaign.sn_witness
            || s.Campaign.sn_lint <> first.Campaign.sn_lint then
           raise
             (Campaign.Environment
                "cannot merge checkpoints taken under different configs"))
      rest;
    snapshot_of_result first
      (join ~jobs:1 ~trace:None ~prof:Bvf_util.Prof.disabled
         (List.map (fun s -> (0, Ok s)) snapshots))

(* -- Driving ----------------------------------------------------------- *)

let run ?(sample_every = 64) ?trace ?log_level ?failslab_rate
    ?failslab_seed ?on_step ?(prof = Bvf_util.Prof.null) ~(jobs : int)
    ~(seed : int) ~(iterations : int) (strategy : Campaign.strategy)
    (config : Kconfig.t) : result =
  if jobs < 1 then invalid_arg "Parallel.run: jobs < 1";
  let counts = shard_iterations ~iterations ~jobs in
  (* profiler tracks: one per shard (created here, before the domains
     spawn, then owned exclusively by their domain) plus one for this
     coordinating domain's spawn/join/absorb/merge work *)
  let shard_prof =
    Array.init jobs (fun i ->
        Bvf_util.Prof.track prof ~name:(Printf.sprintf "shard%d" i) i)
  in
  let main_prof =
    Bvf_util.Prof.track prof ~name:"coordinator" jobs
  in
  let run_shard (i : int) : Campaign.snapshot =
    with_shard ~jobs ~seed ~failslab_rate ~failslab_seed ~trace
      ~trace_pos:None ~prof:shard_prof.(i) i
    @@ fun sh ->
    Campaign.snapshot
      (Campaign.run_t ~sample_every ~telemetry:sh.se_telemetry ?log_level
         ~prof:shard_prof.(i) ?failslab:sh.se_failslab
         ?on_step:(Option.map (fun f -> f i) on_step)
         ~seed:sh.se_seed ~iterations:counts.(i) strategy config)
  in
  let finals =
    if jobs = 1 then
      (* the sequential path: same calls in the calling domain *)
      [ (0, Ok (run_shard 0)) ]
    else begin
      let domains =
        Bvf_util.Prof.span main_prof "spawn" (fun () ->
            Array.init jobs (fun i -> Domain.spawn (fun () -> run_shard i)))
      in
      (* every domain is joined, even after one raised: the join
         re-raises the first shard's exception only once no shard is
         left running *)
      Bvf_util.Prof.span main_prof "join" (fun () ->
          List.init jobs (fun i ->
              (i, try Ok (Domain.join domains.(i)) with e -> Error e)))
    end
  in
  join ~jobs ~trace ~prof:main_prof finals

let digest (r : result) : string = Campaign.digest r.pr_stats

let pp_summary fmt (r : result) : unit =
  Format.fprintf fmt "%a" Campaign.pp_summary r.pr_stats;
  if r.pr_jobs > 1 then
    List.iter
      (fun sh ->
         Format.fprintf fmt
           "  shard %d (seed %d): %d programs, %d edges, %d findings, %d reboots@."
           sh.sh_index sh.sh_seed sh.sh_stats.Campaign.st_generated
           sh.sh_stats.Campaign.st_edges
           (Hashtbl.length sh.sh_stats.Campaign.st_findings)
           sh.sh_stats.Campaign.st_reboots)
      r.pr_shards
