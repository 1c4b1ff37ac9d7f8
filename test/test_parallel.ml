(* Tests for the sharded parallel campaign runner: the round-robin
   iteration split, the jobs=1 bit-identity contract, run-to-run
   determinism for fixed (seed, jobs), the lane layout (shard 0 in the
   caller, at most one domain per core, each lane's share of the minor
   heap budget), the merge invariants (union coverage, deduplicated
   findings at global iterations, summed counters), the portable
   cross-map coverage merge it builds on, and a digest that no minor
   heap size moves. *)

module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Coverage = Bvf_verifier.Coverage
module Corpus = Bvf_core.Corpus
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Telemetry = Bvf_core.Telemetry

let config () = Kconfig.default Version.Bpf_next

(* -- Sharding arithmetic ----------------------------------------------------- *)

let test_shard_iterations () =
  List.iter
    (fun (iterations, jobs) ->
       let counts = Parallel.shard_iterations ~iterations ~jobs in
       Alcotest.(check int) "one count per shard" jobs (Array.length counts);
       Alcotest.(check int) "counts sum to the budget" iterations
         (Array.fold_left ( + ) 0 counts);
       Array.iter
         (fun c ->
            Alcotest.(check bool) "balanced within one" true
              (c = iterations / jobs || c = (iterations / jobs) + 1))
         counts)
    [ (100, 1); (100, 3); (7, 4); (0, 2); (5, 8); (6000, 4) ];
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Parallel.shard_iterations: jobs < 1") (fun () ->
        ignore (Parallel.shard_iterations ~iterations:10 ~jobs:0))

let test_global_iteration_round_robin () =
  (* shard-local iterations map onto 0..iterations-1 exactly once *)
  let jobs = 3 and iterations = 20 in
  let counts = Parallel.shard_iterations ~iterations ~jobs in
  let seen = Array.make iterations false in
  Array.iteri
    (fun shard n ->
       for local = 0 to n - 1 do
         let g = Parallel.global_iteration ~jobs ~shard local in
         Alcotest.(check bool) "global iteration in range" true
           (g >= 0 && g < iterations);
         Alcotest.(check bool) "not claimed twice" false seen.(g);
         seen.(g) <- true
       done)
    counts;
  Alcotest.(check bool) "every global iteration claimed" true
    (Array.for_all Fun.id seen)

(* -- Portable coverage merge ------------------------------------------------- *)

let test_coverage_union_portable () =
  (* two maps interning the same sites in different orders: the union
     must go by (site, variant) identity, not numeric edge ids *)
  let a = Coverage.create () and b = Coverage.create () in
  let hit cov site variant = Coverage.record cov (Coverage.edge_id cov site variant) in
  hit a "alpha" 0; hit a "alpha" 1; hit a "beta" 0;
  hit b "beta" 0; hit b "beta" 0; hit b "gamma" 3; hit b "alpha" 1;
  let u = Coverage.union [ a; b ] in
  Alcotest.(check int) "union of distinct (site, variant) pairs" 4
    (Coverage.edge_count u);
  (* hit counts are summed *)
  let hits (site, variant) =
    List.assoc_opt (site, variant) (Coverage.named_edges u)
  in
  Alcotest.(check (option int)) "beta:0 seen three times" (Some 3)
    (hits ("beta", 0));
  Alcotest.(check (option int)) "alpha:1 seen twice" (Some 2)
    (hits ("alpha", 1));
  (* absorbing a map's own listing back is a no-op on the edge set *)
  Alcotest.(check int) "re-absorb adds nothing" 0
    (Coverage.absorb_named u (Coverage.named_edges a))

(* -- jobs = 1 identity -------------------------------------------------------- *)

let test_jobs1_bit_identical () =
  let seq =
    Campaign.run ~seed:21 ~iterations:300 Campaign.bvf_strategy (config ())
  in
  let par =
    Parallel.run ~jobs:1 ~seed:21 ~iterations:300 Campaign.bvf_strategy
      (config ())
  in
  Alcotest.(check string) "digest identical to sequential run"
    (Campaign.digest seq) (Parallel.digest par);
  Alcotest.(check int) "same edges" seq.Campaign.st_edges
    par.Parallel.pr_stats.Campaign.st_edges;
  Alcotest.(check int) "same findings"
    (Hashtbl.length seq.Campaign.st_findings)
    (Hashtbl.length par.Parallel.pr_stats.Campaign.st_findings);
  Alcotest.(check int) "one shard" 1 (List.length par.Parallel.pr_shards)

(* -- Determinism -------------------------------------------------------------- *)

let test_parallel_deterministic () =
  let digest jobs =
    Parallel.digest
      (Parallel.run ~jobs ~seed:5 ~iterations:240 Campaign.bvf_strategy
         (config ()))
  in
  Alcotest.(check string) "jobs=2 reproducible" (digest 2) (digest 2);
  Alcotest.(check string) "jobs=4 reproducible" (digest 4) (digest 4);
  (* pinned from the runner that spawned one domain per shard: how
     shards are laid onto domains must not move a digest, also when
     there are more shards than cores *)
  Alcotest.(check string) "jobs=2 pinned" "ed22a5fcad136c68413c7d12d8df6b9d"
    (digest 2);
  Alcotest.(check string) "jobs=4 pinned" "58bc520e06bd0a5c9b15dd357d84f5d7"
    (digest 4)

(* -- Lanes -------------------------------------------------------------------- *)

let test_lanes_run () =
  let ran = Atomic.make 0 in
  let results =
    Bvf_util.Lanes.run ~tasks:7 (fun i ->
        Atomic.incr ran;
        if i = 2 || i = 5 then failwith (string_of_int i) else i * i)
  in
  Alcotest.(check int) "every task ran, also after a raise" 7
    (Atomic.get ran);
  Alcotest.(check (list string)) "results in index order"
    [ "0"; "1"; "raised 2"; "9"; "16"; "raised 5"; "36" ]
    (Array.to_list
       (Array.map
          (function
            | Ok v -> string_of_int v
            | Error (Failure m) -> "raised " ^ m
            | Error e -> Printexc.to_string e)
          results));
  Alcotest.(check int) "no tasks, no results" 0
    (Array.length (Bvf_util.Lanes.run ~tasks:0 (fun _ -> ())));
  Alcotest.(check int) "one lane per task up to the core count"
    (min 7 (Domain.recommended_domain_count ()))
    (Bvf_util.Lanes.count ~tasks:7)

(* Shard 0 runs in the calling domain, and a run never uses more
   domains than the machine recommends, however many shards it has. *)
let test_shards_on_lanes () =
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun jobs ->
       (* each shard writes only its own slot *)
       let seen = Array.make jobs [] in
       let on_step shard (_ : Campaign.t) =
         let id = (Domain.self () :> int) in
         if not (List.mem id seen.(shard)) then
           seen.(shard) <- id :: seen.(shard)
       in
       ignore
         (Parallel.run ~on_step ~jobs ~seed:2 ~iterations:(8 * jobs)
            Campaign.bvf_strategy (config ()));
       Alcotest.(check (list int)) "shard 0 steps on the caller's domain"
         [ (Domain.self () :> int) ] seen.(0);
       let ids = List.sort_uniq compare (List.concat (Array.to_list seen)) in
       Alcotest.(check bool)
         (Printf.sprintf "jobs=%d: %d domains, at most %d" jobs
            (List.length ids) (min jobs cores))
         true
         (List.length ids <= min jobs cores);
       Array.iteri
         (fun i ds ->
            Alcotest.(check int)
              (Printf.sprintf "shard %d stays on one domain" i) 1
              (List.length ds))
         seen)
    [ 1; 2; cores + 2 ]

(* Lane k of a run knows the run's lane count while its tasks run; a
   domain outside any run sees 1. *)
let test_lanes_width () =
  Alcotest.(check int) "1 outside a run" 1 (Bvf_util.Lanes.width ());
  List.iter
    (fun tasks ->
       let widths =
         Bvf_util.Lanes.run ~tasks (fun _ -> Bvf_util.Lanes.width ())
       in
       Array.iteri
         (fun i w ->
            Alcotest.(check (result int reject))
              (Printf.sprintf "tasks=%d: task %d sees the lane count" tasks i)
              (Ok (Bvf_util.Lanes.count ~tasks)) w)
         widths;
       Alcotest.(check int) "1 again after the run" 1
         (Bvf_util.Lanes.width ()))
    [ 1; 2; 3; Domain.recommended_domain_count () + 2 ]

let heap_words () = (Gc.get ()).Gc.minor_heap_size

let set_heap_words (words : int) : unit =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }

(* A shard of a two-shard run steps with its lane's share of the
   budget, and a domain keeps its share after the run: a size of its own
   above the share is kept, a one-lane run's larger share is given up by
   a later two-lane run. *)
let test_shard_heap_share () =
  let jobs = 2 in
  let lanes = Bvf_util.Lanes.count ~tasks:jobs in
  let share = Bvf_util.Lanes.minor_heap_budget / lanes in
  (* lane 0 is the caller, here with a size of its own below any share;
     a spawned lane starts at the startup size *)
  let before = heap_words () in
  let own = 65_536 in
  set_heap_words own;
  let startup = Domain.join (Domain.spawn heap_words) in
  let run_jobs2 () =
    let seen = Array.make jobs 0 in
    ignore
      (Parallel.run
         ~on_step:(fun shard _ -> seen.(shard) <- heap_words ())
         ~jobs ~seed:2 ~iterations:(8 * jobs) Campaign.bvf_strategy
         (config ()));
    seen
  in
  let check_shards what seen =
    Array.iteri
      (fun i words ->
         let own = if i mod lanes = 0 then own else startup in
         Alcotest.(check int)
           (Printf.sprintf "%s: shard %d at budget / %d lanes" what i lanes)
           (max own share) words)
      seen
  in
  check_shards "first run" (run_jobs2 ());
  Alcotest.(check int) "the caller holds its share" (max own share)
    (heap_words ());
  ignore
    (Campaign.run_t ~seed:2 ~iterations:8 Campaign.bvf_strategy (config ()));
  Alcotest.(check int) "a one-lane run: the whole budget"
    (max own Bvf_util.Lanes.minor_heap_budget) (heap_words ());
  check_shards "after a one-lane run" (run_jobs2 ());
  Alcotest.(check int) "lane 0 back at its share" (max own share)
    (heap_words ());
  set_heap_words before

let test_parallel_failslab_deterministic () =
  let digest () =
    Parallel.digest
      (Parallel.run ~failslab_rate:0.1 ~failslab_seed:3 ~jobs:2 ~seed:5
         ~iterations:200 Campaign.bvf_strategy (config ()))
  in
  Alcotest.(check string) "per-shard fault plans reproducible"
    (digest ()) (digest ())

(* -- The minor heap ------------------------------------------------------------ *)

(* Campaign.run_t ~seed:21 ~iterations:300 at OCaml's default minor heap,
   pinned before campaigns resized it *)
let pinned_run_t = "739e769a98d699f2fabe0028db7a6982"

(* No outcome depends on the GC: the same campaign under a 32k-word and
   a 4M-word minor heap has the digest pinned at the default heap, and
   [run_t] leaves the caller's heap at its share, or at the size it
   found when that is larger. *)
let test_digest_under_any_heap () =
  let before = heap_words () in
  let digest_at words =
    set_heap_words words;
    let during = ref 0 in
    let c =
      Campaign.run_t ~on_step:(fun _ -> during := heap_words ()) ~seed:21
        ~iterations:300 Campaign.bvf_strategy (config ())
    in
    Alcotest.(check int)
      (Printf.sprintf "%dk words: one lane's share while it runs"
         (words / 1024))
      (max words Bvf_util.Lanes.minor_heap_budget) !during;
    Alcotest.(check int)
      (Printf.sprintf "%dk words: held after run_t returns" (words / 1024))
      (max words Bvf_util.Lanes.minor_heap_budget) (heap_words ());
    Campaign.digest c.Campaign.stats
  in
  let small = digest_at 32_768 in
  let large = digest_at 4_194_304 in
  set_heap_words before;
  Alcotest.(check string) "32k words: the pinned digest" pinned_run_t small;
  Alcotest.(check string) "4M words: the pinned digest" pinned_run_t large

(* A run_t that raises leaves the heap at its share, as one that
   returns does. *)
let test_heap_held_on_raise () =
  let before = heap_words () in
  let raising =
    { Campaign.bvf_strategy with
      Campaign.s_name = "raising";
      s_generate = (fun _ _ _ -> failwith "generate") }
  in
  set_heap_words 32_768;
  (match
     Campaign.run_t ~seed:1 ~iterations:5 raising (config ())
   with
   | exception Failure m -> Alcotest.(check string) "its exception" "generate" m
   | _ -> Alcotest.fail "expected s_generate's exception");
  let after = heap_words () in
  set_heap_words before;
  Alcotest.(check int) "held after run_t raises"
    Bvf_util.Lanes.minor_heap_budget after

(* -- Merge invariants ---------------------------------------------------------- *)

let shard_stats (sh : Parallel.state) : Campaign.stats =
  (Parallel.final_snapshot sh).Campaign.sn_stats

let test_merge_invariants () =
  let iterations = 300 and jobs = 3 in
  let r =
    Parallel.run ~jobs ~seed:9 ~iterations Campaign.bvf_strategy (config ())
  in
  let shards = r.Parallel.pr_shards in
  let merged = r.Parallel.pr_stats in
  Alcotest.(check int) "shard per job" jobs (List.length shards);
  let sums f =
    List.fold_left (fun acc sh -> acc + f (shard_stats sh)) 0 shards
  in
  Alcotest.(check int) "all iterations executed" iterations
    merged.Campaign.st_generated;
  Alcotest.(check int) "accepted summed"
    (sums (fun s -> s.Campaign.st_accepted))
    merged.Campaign.st_accepted;
  Alcotest.(check int) "rejected summed"
    (sums (fun s -> s.Campaign.st_rejected))
    merged.Campaign.st_rejected;
  Alcotest.(check int) "retries summed"
    (sums (fun s -> s.Campaign.st_retries))
    merged.Campaign.st_retries;
  (* coverage: union is bounded by the per-shard extremes *)
  let max_edges =
    List.fold_left
      (fun acc sh -> max acc (shard_stats sh).Campaign.st_edges)
      0 shards
  in
  Alcotest.(check bool) "union <= sum of shard edges" true
    (merged.Campaign.st_edges <= sums (fun s -> s.Campaign.st_edges));
  Alcotest.(check bool) "union >= best shard" true
    (merged.Campaign.st_edges >= max_edges);
  Alcotest.(check int) "stats edges match union map"
    (Coverage.edge_count r.Parallel.pr_cov) merged.Campaign.st_edges;
  (* findings: merged key set is exactly the union of shard key sets,
     remapped into the global iteration space *)
  List.iter
    (fun sh ->
       Hashtbl.iter
         (fun key _ ->
            Alcotest.(check bool) "shard finding survives the merge" true
              (Hashtbl.mem merged.Campaign.st_findings key))
         (shard_stats sh).Campaign.st_findings)
    shards;
  Hashtbl.iter
    (fun key f ->
       Alcotest.(check bool) "merged finding came from a shard" true
         (List.exists
            (fun sh ->
               Hashtbl.mem (shard_stats sh).Campaign.st_findings key)
            shards);
       Alcotest.(check bool) "global iteration in range" true
         (f.Campaign.fd_iteration >= 0
          && f.Campaign.fd_iteration < iterations))
    merged.Campaign.st_findings;
  (* merged curve: newest first, iterations strictly decreasing, summed
     per-shard signal monotone *)
  let rec descending = function
    | (a : Campaign.sample) :: (b :: _ as tl) ->
      a.Campaign.sa_iteration > b.Campaign.sa_iteration
      && a.Campaign.sa_edges >= b.Campaign.sa_edges
      && descending tl
    | _ -> true
  in
  Alcotest.(check bool) "merged curve monotone" true
    (descending merged.Campaign.st_curve);
  (* merged corpus: bounded, entries re-stamped with global iterations *)
  Alcotest.(check bool) "merged corpus bounded" true
    (Corpus.size r.Parallel.pr_corpus <= 256);
  List.iter
    (fun (e : Corpus.entry) ->
       Alcotest.(check bool) "corpus entry at global iteration" true
         (e.Corpus.added_at >= 0 && e.Corpus.added_at < iterations))
    (Corpus.entries r.Parallel.pr_corpus)

(* -- A shard that raises ------------------------------------------------------ *)

(* Shard 0 dies on its 5th program, in the calling domain, while the
   other shards still have most of their budget ahead.  The exception
   must reach the caller only after every other shard ran its whole
   budget (with more shards than cores, shard [cores] runs after shard
   0 on the caller's lane), and no shard trace file may be left
   behind. *)
let test_shard_failure_joins_and_cleans () =
  List.iter
    (fun jobs ->
       let trace = Filename.temp_file "bvf_par_fail" ".jsonl" in
       let iterations = 300 * jobs in
       let done_ = Array.init jobs (fun _ -> Atomic.make 0) in
       let on_step shard (c : Campaign.t) =
         let n = c.Campaign.stats.Campaign.st_generated in
         if shard = 0 && n = 5 then
           raise (Campaign.Environment "shard 0 died");
         Atomic.set done_.(shard) n
       in
       (match
          Parallel.run ~trace ~on_step ~jobs ~seed:3 ~iterations
            Campaign.bvf_strategy (config ())
        with
        | exception Campaign.Environment msg ->
          Alcotest.(check string) "shard 0's exception re-raised"
            "shard 0 died" msg
        | _ -> Alcotest.fail "expected the shard's exception");
       let counts = Parallel.shard_iterations ~iterations ~jobs in
       for i = 1 to jobs - 1 do
         Alcotest.(check int)
           (Printf.sprintf "jobs=%d: shard %d ran, then was joined" jobs i)
           counts.(i) (Atomic.get done_.(i))
       done;
       for i = 0 to jobs - 1 do
         let p = Printf.sprintf "%s.shard%d" trace i in
         Alcotest.(check bool) (p ^ " removed") false (Sys.file_exists p)
       done;
       Sys.remove trace)
    [ 2; Domain.recommended_domain_count () + 1 ]

(* -- Stop, checkpoint and resume ----------------------------------------------- *)

(* One stop flag polled by every shard (the CLI's SIGINT/SIGTERM path):
   each shard finishes its in-flight iteration and returns, and the join
   merges what the shards completed, trace included. *)
let test_stop_joins_completed () =
  let trace = Filename.temp_file "bvf_par_stop" ".jsonl" in
  let jobs = 2 and k = 40 and iterations = 4000 in
  let steps = Atomic.make 0 in
  let r =
    Parallel.run ~trace
      ~on_step:(fun _ _ -> Atomic.incr steps)
      ~stop:(fun _ () -> Atomic.get steps >= k)
      ~jobs ~seed:4 ~iterations Campaign.bvf_strategy (config ())
  in
  let n = Atomic.get steps in
  Alcotest.(check bool)
    (Printf.sprintf "%d steps: at most one more per other shard" n)
    true
    (n >= k && n < k + jobs);
  Alcotest.(check int) "merged stats count the completed iterations" n
    r.Parallel.pr_stats.Campaign.st_generated;
  Alcotest.(check int) "so does the join" n r.Parallel.pr_iterations;
  for i = 0 to jobs - 1 do
    Alcotest.(check bool) "no shard trace left" false
      (Sys.file_exists (Parallel.shard_trace_path ~jobs trace i))
  done;
  let summary = Telemetry.summarize (Telemetry.read_file trace) in
  Alcotest.(check int) "trace holds every completed iteration" n
    summary.Telemetry.su_generated;
  Alcotest.(check int) "no unknown rejection" 0
    (Telemetry.unknown_rejections summary);
  Sys.remove trace

(* A shard that its lane reaches only after the stop builds nothing:
   stop is true for shards 2 and 3 from the start, so whatever the core
   count they report a fresh snapshot (no program, no reboot) and the
   join merges shards 0 and 1 alone.  A stop before any shard starts
   returns an empty merge instead of raising, and leaves no shard file
   in the state directory. *)
let test_stop_before_start () =
  let jobs = 4 and iterations = 400 in
  let counts = Parallel.shard_iterations ~iterations ~jobs in
  let r =
    Parallel.run ~stop:(fun i () -> i >= 2) ~jobs ~seed:4 ~iterations
      Campaign.bvf_strategy (config ())
  in
  Alcotest.(check (list int)) "every shard reported" [ 0; 1; 2; 3 ]
    (List.map (fun sh -> sh.Parallel.ss_shard) r.Parallel.pr_shards);
  Alcotest.(check int) "shards 0 and 1 ran their budgets"
    (counts.(0) + counts.(1)) r.Parallel.pr_iterations;
  List.iter
    (fun (sh : Parallel.state) ->
       if sh.Parallel.ss_shard >= 2 then begin
         Alcotest.(check int) "no program" 0
           (shard_stats sh).Campaign.st_generated;
         Alcotest.(check int) "no kernel" 0
           (shard_stats sh).Campaign.st_reboots
       end)
    r.Parallel.pr_shards;
  let dir = Filename.temp_file "bvf_par_nostart" "" in
  Sys.remove dir;
  let trace = dir ^ ".jsonl" in
  let r =
    Parallel.run ~dir ~trace ~stop:(fun _ () -> true) ~jobs ~seed:4
      ~iterations Campaign.bvf_strategy (config ())
  in
  Alcotest.(check int) "nothing ran" 0 r.Parallel.pr_iterations;
  for i = 0 to jobs - 1 do
    Alcotest.(check bool) "no shard file" false
      (Sys.file_exists (Parallel.state_path dir i))
  done;
  Sys.remove trace;
  Unix.rmdir dir

(* -- State-directory lock ---------------------------------------------------- *)

(* A state directory whose lock names [owner]. *)
let locked_dir (name : string) (owner : int) : string =
  let dir = Filename.temp_file name "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let oc = open_out (Parallel.lock_path dir) in
  Printf.fprintf oc "%d\n" owner;
  close_out oc;
  dir

let run_in dir =
  Parallel.run ~dir ~jobs:2 ~seed:4 ~iterations:20 Campaign.bvf_strategy
    (config ())

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* A run on a directory that a live process holds (this one) is refused
   with the holder's pid before any shard file is written, and the
   holder keeps its lock. *)
let test_lock_live_holder () =
  let pid = Unix.getpid () in
  let dir = locked_dir "bvf_par_lock" pid in
  (match run_in dir with
   | exception Campaign.Environment msg ->
     Alcotest.(check string) "refusal names the holder"
       (Printf.sprintf
          "state directory is in use by a running campaign (pid %d holds %s)"
          pid (Parallel.lock_path dir))
       msg
   | _ -> Alcotest.fail "a live lock did not refuse the run");
  Alcotest.(check bool) "no shard file" false
    (Sys.file_exists (Parallel.state_path dir 0));
  Alcotest.(check bool) "the holder keeps its lock" true
    (Sys.file_exists (Parallel.lock_path dir));
  remove_dir dir

(* A lock whose owner is dead (no pid reaches 999999999) is broken: the
   run completes and removes its own lock. *)
let test_lock_stale_holder () =
  let dir = locked_dir "bvf_par_stale" 999_999_999 in
  Alcotest.(check int) "the run completes" 20
    (run_in dir).Parallel.pr_iterations;
  Alcotest.(check bool) "lock released" false
    (Sys.file_exists (Parallel.lock_path dir));
  remove_dir dir

(* The library form of CI's "Straight vs resumed -n" step, for one
   shard and for two.  A run over a state directory that every shard
   stops on a barrier (its 100th iteration), rerun in the same
   directory, ends with the digest and the trace bytes of a straight
   run.  So does a run whose whole budget ends on a barrier, rerun with
   a larger one — but a finished multi-shard run merged and removed
   its shard traces, so there only the digest is compared. *)
let test_checkpoint_then_resume () =
  List.iter
    (fun jobs ->
       let tmp = Filename.temp_file "bvf_par_resume" "" in
       Sys.remove tmp;
       let run ?stop ?on_step name iterations =
         Parallel.run ~failslab_rate:0.1 ~checkpoint_every:50 ?stop ?on_step
           ~dir:(Filename.concat tmp name)
           ~trace:(Filename.concat tmp (name ^ ".jsonl"))
           ~jobs ~seed:6 ~iterations Campaign.bvf_strategy (config ())
       in
       let read name =
         In_channel.with_open_bin (Filename.concat tmp (name ^ ".jsonl"))
           In_channel.input_all
       in
       let straight = run "straight" 300 in
       let same what (r : Parallel.result) =
         Alcotest.(check int) "whole budget" 300 r.Parallel.pr_iterations;
         Alcotest.(check string)
           (Printf.sprintf "jobs=%d, %s: digest of the straight run" jobs what)
           (Parallel.digest straight) (Parallel.digest r)
       in
       let local = Array.make jobs 0 in
       let stopped =
         run "stopped" 300
           ~on_step:(fun i c ->
               local.(i) <- c.Campaign.stats.Campaign.st_generated)
           ~stop:(fun i () -> local.(i) >= 100)
       in
       Alcotest.(check int) "stopped on the barrier" (100 * jobs)
         stopped.Parallel.pr_iterations;
       same "stopped" (run "stopped" 300);
       Alcotest.(check string)
         (Printf.sprintf "jobs=%d: trace of the straight run" jobs)
         (read "straight") (read "stopped");
       ignore (run "extended" (100 * jobs));
       let saved =
         Parallel.load_state
           (Parallel.state_path (Filename.concat tmp "extended") 0)
       in
       Alcotest.(check int) "state at the last barrier" 100
         saved.Parallel.ss_snapshot.Campaign.sn_completed;
       Alcotest.(check bool) "with the final snapshot" true
         (saved.Parallel.ss_final <> None);
       same "extended" (run "extended" 300))
    [ 1; 2 ]

let () =
  Alcotest.run "bvf_parallel"
    [
      ( "sharding",
        [ Alcotest.test_case "iteration split" `Quick test_shard_iterations;
          Alcotest.test_case "round-robin mapping" `Quick
            test_global_iteration_round_robin ] );
      ( "coverage merge",
        [ Alcotest.test_case "portable union" `Quick
            test_coverage_union_portable ] );
      ( "contract",
        [ Alcotest.test_case "jobs=1 identity" `Slow test_jobs1_bit_identical;
          Alcotest.test_case "deterministic" `Slow test_parallel_deterministic;
          Alcotest.test_case "deterministic with failslab" `Slow
            test_parallel_failslab_deterministic ] );
      ( "stop, resume",
        [ Alcotest.test_case "a stop joins the completed iterations" `Slow
            test_stop_joins_completed;
          Alcotest.test_case "checkpoint then resume = straight run" `Slow
            test_checkpoint_then_resume;
          Alcotest.test_case "a stop before a shard starts" `Slow
            test_stop_before_start ] );
      ( "lanes",
        [ Alcotest.test_case "results in order, failures isolated" `Quick
            test_lanes_run;
          Alcotest.test_case "shard 0 on the caller, one domain per core"
            `Slow test_shards_on_lanes;
          Alcotest.test_case "width = lane count inside, 1 outside" `Quick
            test_lanes_width;
          Alcotest.test_case "a jobs=2 shard at its heap share" `Slow
            test_shard_heap_share ] );
      ( "minor heap",
        [ Alcotest.test_case "digest under a 32k and a 4M heap" `Slow
            test_digest_under_any_heap;
          Alcotest.test_case "held when run_t raises" `Quick
            test_heap_held_on_raise ] );
      ( "lock",
        [ Alcotest.test_case "a live holder is refused" `Quick
            test_lock_live_holder;
          Alcotest.test_case "a stale holder is broken" `Slow
            test_lock_stale_holder ] );
      ( "merge",
        [ Alcotest.test_case "invariants" `Slow test_merge_invariants ] );
      ( "failure",
        [ Alcotest.test_case "a raising shard is joined and cleaned up"
            `Slow test_shard_failure_joins_and_cleans ] );
    ]
