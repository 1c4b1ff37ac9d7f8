(* Tests for the sharded parallel campaign runner: the round-robin
   iteration split, the jobs=1 bit-identity contract, run-to-run
   determinism for fixed (seed, jobs), the merge invariants (union
   coverage, deduplicated findings at global iterations, summed
   counters) and the portable cross-map coverage merge it builds on. *)

module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Coverage = Bvf_verifier.Coverage
module Corpus = Bvf_core.Corpus
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel

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
  Alcotest.(check string) "jobs=4 reproducible" (digest 4) (digest 4)

let test_parallel_failslab_deterministic () =
  let digest () =
    Parallel.digest
      (Parallel.run ~failslab_rate:0.1 ~failslab_seed:3 ~jobs:2 ~seed:5
         ~iterations:200 Campaign.bvf_strategy (config ()))
  in
  Alcotest.(check string) "per-shard fault plans reproducible"
    (digest ()) (digest ())

(* -- Merge invariants ---------------------------------------------------------- *)

let test_merge_invariants () =
  let iterations = 300 and jobs = 3 in
  let r =
    Parallel.run ~jobs ~seed:9 ~iterations Campaign.bvf_strategy (config ())
  in
  let shards = r.Parallel.pr_shards in
  let merged = r.Parallel.pr_stats in
  Alcotest.(check int) "shard per job" jobs (List.length shards);
  let sums f =
    List.fold_left (fun acc sh -> acc + f sh.Parallel.sh_stats) 0 shards
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
      (fun acc sh -> max acc sh.Parallel.sh_stats.Campaign.st_edges)
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
         sh.Parallel.sh_stats.Campaign.st_findings)
    shards;
  Hashtbl.iter
    (fun key f ->
       Alcotest.(check bool) "merged finding came from a shard" true
         (List.exists
            (fun sh ->
               Hashtbl.mem sh.Parallel.sh_stats.Campaign.st_findings key)
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

(* Shard 0 dies on its 5th program while shard 1 still has most of its
   budget ahead.  The exception must reach the caller only after shard
   1's domain was joined (it ran its whole shard), and no shard trace
   file may be left behind. *)
let test_shard_failure_joins_and_cleans () =
  let trace = Filename.temp_file "bvf_par_fail" ".jsonl" in
  let iterations = 600 and jobs = 2 in
  let shard1_done = Atomic.make 0 in
  let on_step shard (c : Campaign.t) =
    let n = c.Campaign.stats.Campaign.st_generated in
    if shard = 0 && n = 5 then raise (Campaign.Environment "shard 0 died");
    if shard = 1 then Atomic.set shard1_done n
  in
  (match
     Parallel.run ~trace ~on_step ~jobs ~seed:3 ~iterations
       Campaign.bvf_strategy (config ())
   with
   | exception Campaign.Environment msg ->
     Alcotest.(check string) "shard 0's exception re-raised" "shard 0 died"
       msg
   | _ -> Alcotest.fail "expected the shard's exception");
  Alcotest.(check int) "shard 1 was joined, not abandoned"
    (Parallel.shard_iterations ~iterations ~jobs).(1)
    (Atomic.get shard1_done);
  List.iter
    (fun i ->
       let p = Printf.sprintf "%s.shard%d" trace i in
       Alcotest.(check bool) (p ^ " removed") false (Sys.file_exists p))
    [ 0; 1 ];
  Sys.remove trace

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
      ( "merge",
        [ Alcotest.test_case "invariants" `Slow test_merge_invariants ] );
      ( "failure",
        [ Alcotest.test_case "a raising shard is joined and cleaned up"
            `Slow test_shard_failure_joins_and_cleans ] );
    ]
