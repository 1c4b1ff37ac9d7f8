(* Tests for the BVF core: the deterministic RNG, structured program
   generation (validity and structure invariants), mutation operators,
   the coverage-guided corpus, the oracle, triage slicing, campaigns and
   the self-test corpus builder. *)

module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Map = Bvf_kernel.Map
module Report = Bvf_kernel.Report
module Kmem = Bvf_kernel.Kmem
module Verifier = Bvf_verifier.Verifier
module Coverage = Bvf_verifier.Coverage
module Loader = Bvf_runtime.Loader
module Rng = Bvf_core.Rng
module Gen = Bvf_core.Gen
module Mutate = Bvf_core.Mutate
module Corpus = Bvf_core.Corpus
module Oracle = Bvf_core.Oracle
module Triage = Bvf_core.Triage
module Campaign = Bvf_core.Campaign
module Selftests = Bvf_core.Selftests

(* -- Rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_ranges () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let rng_weighted_prop =
  QCheck2.Test.make ~count:100 ~name:"weighted respects zero weights"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
       let rng = Rng.create seed in
       Rng.weighted rng [ (0, `Never); (5, `Sometimes) ] = `Sometimes)

let test_rng_chance_extremes () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)
  done

(* -- Generator -------------------------------------------------------------- *)

let gen_cfg_and_session () =
  let session = Loader.create (Kconfig.default Version.Bpf_next) in
  let maps = Campaign.standard_maps session in
  (session, { Gen.c_version = Version.Bpf_next; Gen.c_maps = maps })

let test_gen_structure () =
  let _, cfg = gen_cfg_and_session () in
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let req = Gen.generate rng cfg in
    let insns = req.Verifier.r_insns in
    let n = Array.length insns in
    Alcotest.(check bool) "non-empty" true (n > 0);
    (* end section: last insn is exit *)
    Alcotest.(check bool) "ends with exit" true (insns.(n - 1) = Insn.Exit);
    (* init header: first insn preserves the context pointer *)
    Alcotest.(check bool) "saves ctx first" true
      (insns.(0) = Asm.mov64_reg Insn.R6 Insn.R1);
    (* programs never reference the hidden register *)
    Alcotest.(check bool) "no R11" true
      (not
         (Array.exists
            (fun i ->
               List.mem Insn.R11 (Insn.regs_read i)
               || List.mem Insn.R11 (Insn.regs_written i))
            insns))
  done

let test_gen_branches_in_range () =
  let _, cfg = gen_cfg_and_session () in
  let rng = Rng.create 23 in
  for _ = 1 to 300 do
    let req = Gen.generate rng cfg in
    let insns = req.Verifier.r_insns in
    let n = Array.length insns in
    Array.iteri
      (fun i insn ->
         match insn with
         | Insn.Jmp { off; _ } | Insn.Ja off ->
           let target = i + 1 + off in
           Alcotest.(check bool) "branch lands inside" true
             (target >= 0 && target < n)
         | _ -> ())
      insns
  done

let test_gen_acceptance_window () =
  (* the paper's headline statistic: roughly half the generated
     programs pass the verifier *)
  let session, cfg = gen_cfg_and_session () in
  let rng = Rng.create 5 in
  let cov = Coverage.create () in
  let accepted = ref 0 in
  let total = 600 in
  for _ = 1 to total do
    let req = Gen.generate rng cfg in
    if Result.is_ok (Verifier.verify session.Loader.kst ~cov req) then
      incr accepted
  done;
  let rate = float_of_int !accepted /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "acceptance %.2f in [0.35, 0.85]" rate)
    true
    (rate > 0.35 && rate < 0.85)

let test_gen_deterministic () =
  let _, cfg = gen_cfg_and_session () in
  let a = Gen.generate (Rng.create 99) cfg in
  let b = Gen.generate (Rng.create 99) cfg in
  Alcotest.(check bool) "same program from same seed" true
    (a.Verifier.r_insns = b.Verifier.r_insns
     && a.Verifier.r_prog_type = b.Verifier.r_prog_type
     && a.Verifier.r_attach = b.Verifier.r_attach)

(* -- Mutation ----------------------------------------------------------------- *)

let test_mutate_duplicate () =
  let rng = Rng.create 2 in
  let base =
    Array.init 12 (fun i -> Asm.mov64_imm Insn.R1 (Int32.of_int i))
  in
  let grew = ref false in
  for _ = 1 to 50 do
    if Array.length (Mutate.duplicate_block rng base) > 12 then
      grew := true
  done;
  Alcotest.(check bool) "duplication grows programs" true !grew

let test_mutate_never_moves_branch_out () =
  let rng = Rng.create 4 in
  let prog =
    [| Asm.mov64_imm Insn.R1 0l;
       Asm.jmp_imm Insn.Jeq Insn.R1 0l 1;
       Asm.mov64_imm Insn.R1 1l;
       Asm.mov64_imm Insn.R0 0l;
       Asm.exit_ |]
  in
  for _ = 1 to 200 do
    let out = Mutate.duplicate_block rng prog in
    Array.iteri
      (fun i insn ->
         match insn with
         | Insn.Jmp { off; _ } | Insn.Ja off ->
           let t = i + 1 + off in
           Alcotest.(check bool) "target inside" true
             (t >= 0 && t <= Array.length out)
         | _ -> ())
      out
  done

let test_mutate_truncate_valid_tail () =
  let rng = Rng.create 6 in
  let prog =
    Array.init 20 (fun i -> Asm.mov64_imm Insn.R1 (Int32.of_int i))
  in
  for _ = 1 to 50 do
    let out = Mutate.truncate rng prog in
    let n = Array.length out in
    Alcotest.(check bool) "exit last" true (out.(n - 1) = Insn.Exit);
    Alcotest.(check bool) "r0 set" true
      (out.(n - 2) = Asm.mov64_imm Insn.R0 0l)
  done

(* -- Corpus ------------------------------------------------------------------- *)

let dummy_req = Verifier.request Prog.Socket_filter [| Insn.Exit |]

let test_corpus_add_pick () =
  let c = Corpus.create ~max_size:8 () in
  let rng = Rng.create 1 in
  Alcotest.(check bool) "empty pick" true (Corpus.pick c rng = None);
  Corpus.add c ~iteration:1 ~new_edges:0 dummy_req;
  Alcotest.(check int) "zero-edge entries skipped" 0 (Corpus.size c);
  Corpus.add c ~iteration:2 ~new_edges:5 dummy_req;
  Alcotest.(check int) "added" 1 (Corpus.size c);
  Alcotest.(check bool) "pick works" true (Corpus.pick c rng <> None);
  (* overflow trims to half *)
  for i = 0 to 20 do
    Corpus.add c ~iteration:i ~new_edges:(1 + i) dummy_req
  done;
  Alcotest.(check bool) "bounded" true (Corpus.size c <= 8)

let test_corpus_of_entries () =
  let mk added_at new_edges =
    { Corpus.request = dummy_req; new_edges; added_at; blamed = 0 }
  in
  let es = List.init 10 (fun i -> mk (i * 100) (20 - i)) in
  let c = Corpus.of_entries ~max_size:4 es in
  Alcotest.(check int) "capped at max_size" 4 (Corpus.size c);
  (* only the highest-energy entries survive *)
  let kept = Corpus.entries c in
  let cut =
    List.fold_left (fun m e -> min m (Corpus.energy e)) max_int kept
  in
  List.iter
    (fun e ->
       if not (List.memq e kept) then
         Alcotest.(check bool) "evicted entries are no stronger" true
           (Corpus.energy e <= cut))
    es;
  (* deterministic in the input order *)
  Alcotest.(check bool) "rebuild is deterministic" true
    (Corpus.entries (Corpus.of_entries ~max_size:4 es) = kept)

(* -- Oracle ------------------------------------------------------------------- *)

let test_oracle_indicator_classes () =
  let mem_fault origin =
    Report.make origin
      (Report.Mem_fault
         { Kmem.faccess = Kmem.Read; faddr = 0L; fsize = 8;
           fkind = Kmem.Null_deref; fregion = None })
  in
  Alcotest.(check bool) "sanitizer -> ind1" true
    (Oracle.classify_indicator (mem_fault Report.Sanitizer) = Oracle.Ind1);
  Alcotest.(check bool) "native -> ind1" true
    (Oracle.classify_indicator (mem_fault Report.Bpf_native) = Oracle.Ind1);
  Alcotest.(check bool) "routine -> ind2" true
    (Oracle.classify_indicator (mem_fault (Report.Kernel_routine "f"))
     = Oracle.Ind2)

let test_oracle_rejected_is_not_correctness () =
  let config = Kconfig.default Version.Bpf_next in
  let result =
    { Loader.verdict =
        Error (Bvf_verifier.Venv.verr_make Bvf_verifier.Venv.EINVAL
                 ~pc:0 "x");
      status = None;
      reports =
        [ Report.make (Report.Kernel_routine "bpf_prog_load")
            (Report.Warn "kmemdup of rewritten insns failed") ];
      insns_executed = 0; witness = [];
      verify_s = 0.; sanitize_s = 0.; exec_s = 0.;
      verify_w = 0.; sanitize_w = 0.; exec_w = 0.;
      vlog = ""; vstats = None }
  in
  match Oracle.classify config result with
  | [ f ] ->
    Alcotest.(check bool) "not a correctness bug" false
      f.Oracle.f_correctness;
    Alcotest.(check bool) "no indicator when rejected" true
      (f.Oracle.f_indicator = None)
  | _ -> Alcotest.fail "expected one finding"

(* -- Triage ------------------------------------------------------------------- *)

let test_triage_slice () =
  let insns =
    [| Asm.mov64_imm Insn.R1 7l;        (* 0: def r1, relevant *)
       Asm.mov64_imm Insn.R2 9l;        (* 1: def r2, irrelevant *)
       Asm.mov64_reg Insn.R3 Insn.R1;   (* 2: r3 <- r1, relevant *)
       Asm.ldx_dw Insn.R0 Insn.R3 0 |]  (* 3: guilty *)
  in
  let slice = Triage.backward_slice insns 3 in
  let pcs = List.map fst slice in
  Alcotest.(check (list int)) "slice keeps def-use chain" [ 0; 2 ] pcs

let test_triage_report () =
  let config = Kconfig.make Version.Bpf_next ~bugs:[ Kconfig.Bug2_btf_size_check ] in
  let session = Loader.create config in
  let insns =
    Asm.prog
      [ [ Asm.ld_btf_obj Insn.R6 1; Asm.ldx_dw Insn.R3 Insn.R6 288 ];
        Asm.ret 0l ]
  in
  match Loader.load_and_run session (Verifier.request Prog.Kprobe insns) with
  | { Loader.verdict = Ok loaded; reports = r :: _; _ } ->
    let slice = Triage.slice_report loaded r in
    Alcotest.(check bool) "guilty pc found" true (slice.Triage.guilty_pc <> None);
    Alcotest.(check bool) "has dependencies" true
      (slice.Triage.relevant <> [])
  | _ -> Alcotest.fail "expected a finding"

(* -- Campaign ----------------------------------------------------------------- *)

let test_campaign_finds_bugs () =
  let stats =
    Campaign.run ~seed:42 ~iterations:2500 Campaign.bvf_strategy
      (Kconfig.default Version.Bpf_next)
  in
  Alcotest.(check bool) "finds several bugs" true
    (List.length (Campaign.bugs_found stats) >= 4);
  Alcotest.(check bool) "finds a correctness bug" true
    (List.length (Campaign.correctness_bugs_found stats) >= 1);
  Alcotest.(check bool) "acceptance reasonable" true
    (Campaign.acceptance_rate stats > 0.3)

let test_campaign_deterministic () =
  let run () =
    let s =
      Campaign.run ~seed:77 ~iterations:400 Campaign.bvf_strategy
        (Kconfig.default Version.V6_1)
    in
    (s.Campaign.st_accepted, s.Campaign.st_edges,
     Hashtbl.length s.Campaign.st_findings)
  in
  Alcotest.(check bool) "same seed, same campaign" true (run () = run ())

let test_campaign_fixed_kernel_clean () =
  (* the oracle's soundness: a fixed kernel yields no correctness bugs *)
  let stats =
    Campaign.run ~seed:9 ~iterations:1500 Campaign.bvf_strategy
      (Kconfig.fixed Version.Bpf_next)
  in
  Alcotest.(check int) "no correctness bugs on fixed kernel" 0
    (List.length (Campaign.correctness_bugs_found stats))

let test_campaign_retry_attribution () =
  (* A transiently failing attempt can record the program's novel edges
     before dying (e.g. the rewritten-image allocation fails only after
     verification walked the program); the retry then re-verifies and
     sees nothing new.  That environment churn must not be credited to
     the corpus: under fault injection some retried steps grow coverage
     yet (correctly) add no entry, and a credited entry never claims
     more edges than the whole step observed. *)
  let config = Kconfig.default Version.Bpf_next in
  let failslab = Bvf_kernel.Failslab.create ~rate:0.35 ~seed:13 () in
  let uncredited = ref 0 in
  (* observed from the step hook: each call sees the state one step
     after the previous call (no checkpoint barriers run in between).
     Iteration 0 is skipped (it loads nothing), so the first observation
     records the freshly booted campaign and every executed step is
     checked against its exact pre-step state. *)
  let retries = ref 0 and size = ref 0 and edges = ref 0 in
  let observe (c : Campaign.t) =
    let growth = Coverage.edge_count c.Campaign.cov - !edges in
    let retried = c.Campaign.stats.Campaign.st_retries > !retries in
    let added = Corpus.size c.Campaign.corpus > !size in
    if added then
      (match Corpus.entries c.Campaign.corpus with
       | e :: _ ->
         Alcotest.(check bool) "credit bounded by step growth" true
           (e.Corpus.new_edges <= growth)
       | [] -> ());
    if retried && growth > 0 && not added then incr uncredited;
    retries := c.Campaign.stats.Campaign.st_retries;
    size := Corpus.size c.Campaign.corpus;
    edges := Coverage.edge_count c.Campaign.cov
  in
  ignore
    (Campaign.run ~failslab ~skip:(fun i -> i = 0) ~on_step:observe
       ~seed:13 ~iterations:401 Campaign.bvf_strategy config
     : Campaign.stats);
  Alcotest.(check bool)
    "retried steps can grow coverage without corpus credit" true
    (!uncredited > 0)

let test_campaign_curve_no_duplicate_sample () =
  (* finalizing a campaign twice (run, snapshot, resume for zero further
     iterations) used to push a second closing sample at the same
     iteration, double-counting it in the digest and plotted curves *)
  let config = Kconfig.default Version.Bpf_next in
  let c =
    Campaign.run_t ~sample_every:64 ~seed:11 ~iterations:128
      Campaign.bvf_strategy config
  in
  let s = Campaign.snapshot c in
  let stats =
    Campaign.run ~resume_from:s ~seed:11 ~iterations:0
      Campaign.bvf_strategy config
  in
  let iters =
    List.map (fun sa -> sa.Campaign.sa_iteration) stats.Campaign.st_curve
  in
  Alcotest.(check int) "curve samples unique per iteration"
    (List.length (List.sort_uniq compare iters))
    (List.length iters);
  Alcotest.(check bool) "closing sample present" true
    (List.mem 128 iters)

(* -- Selftests ----------------------------------------------------------------- *)

let test_selftests_all_verified () =
  let suite = Selftests.build ~count:120 Version.Bpf_next in
  Alcotest.(check bool) "suite is populated" true
    (List.length suite.Selftests.requests >= 120);
  List.iter
    (fun req ->
       Alcotest.(check bool) "has load/store" true
         (Array.exists
            (function
              | Insn.Ldx _ | Insn.St _ | Insn.Stx _ | Insn.Atomic _ -> true
              | _ -> false)
            req.Verifier.r_insns))
    suite.Selftests.requests

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_core"
    [
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          qt rng_weighted_prop;
          Alcotest.test_case "chance extremes" `Quick
            test_rng_chance_extremes ] );
      ( "generator",
        [ Alcotest.test_case "structure" `Quick test_gen_structure;
          Alcotest.test_case "branches in range" `Quick
            test_gen_branches_in_range;
          Alcotest.test_case "acceptance window" `Slow
            test_gen_acceptance_window;
          Alcotest.test_case "deterministic" `Quick
            test_gen_deterministic ] );
      ( "mutation",
        [ Alcotest.test_case "duplicate" `Quick test_mutate_duplicate;
          Alcotest.test_case "branch safety" `Quick
            test_mutate_never_moves_branch_out;
          Alcotest.test_case "truncate tail" `Quick
            test_mutate_truncate_valid_tail ] );
      ( "corpus",
        [ Alcotest.test_case "add/pick" `Quick test_corpus_add_pick;
          Alcotest.test_case "of_entries" `Quick test_corpus_of_entries ] );
      ( "oracle",
        [ Alcotest.test_case "indicators" `Quick
            test_oracle_indicator_classes;
          Alcotest.test_case "rejected programs" `Quick
            test_oracle_rejected_is_not_correctness ] );
      ( "triage",
        [ Alcotest.test_case "slice" `Quick test_triage_slice;
          Alcotest.test_case "report" `Quick test_triage_report ] );
      ( "campaign",
        [ Alcotest.test_case "finds bugs" `Slow test_campaign_finds_bugs;
          Alcotest.test_case "deterministic" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "fixed kernel clean" `Slow
            test_campaign_fixed_kernel_clean;
          Alcotest.test_case "retry attribution" `Slow
            test_campaign_retry_attribution;
          Alcotest.test_case "curve dedupe" `Quick
            test_campaign_curve_no_duplicate_sample ] );
      ( "selftests",
        [ Alcotest.test_case "all verified" `Slow
            test_selftests_all_verified ] );
    ]
