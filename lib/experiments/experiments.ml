(* Experiment harnesses regenerating every table and figure of the
   paper's evaluation (section 6).  Each function returns structured
   results and a [print_*] companion renders them in the shape of the
   corresponding paper artefact.  bench/main.ml and bin/bvf are thin
   wrappers over this module.

   Scaling note: the paper's campaigns are two weeks / 48 hours on a
   40-core server; ours are iteration-budgeted seconds-scale runs on a
   simulated kernel.  EXPERIMENTS.md records the shape criteria (who
   wins, by what factor) rather than absolute parity. *)

module Version = Bvf_ebpf.Version
module Prog = Bvf_ebpf.Prog
module Insn = Bvf_ebpf.Insn
module Disasm = Bvf_ebpf.Disasm
module Kconfig = Bvf_kernel.Kconfig
module Venv = Bvf_verifier.Venv
module Reject_reason = Bvf_verifier.Reject_reason
module Verifier = Bvf_verifier.Verifier
module Coverage = Bvf_verifier.Coverage
module Loader = Bvf_runtime.Loader
module Exec = Bvf_runtime.Exec
module Campaign = Bvf_core.Campaign
module Gen = Bvf_core.Gen
module Rng = Bvf_core.Rng
module Oracle = Bvf_core.Oracle
module Selftests = Bvf_core.Selftests
module Syz_gen = Bvf_baselines.Syz_gen
module Buzzer_gen = Bvf_baselines.Buzzer_gen

let tools () : Campaign.strategy list =
  [ Campaign.bvf_strategy; Syz_gen.strategy; Buzzer_gen.strategy () ]

(* -- Table 2: vulnerabilities discovered -------------------------------- *)

type table2_row = {
  t2_bug : Kconfig.bug;
  t2_component : string;
  t2_description : string;
  t2_correctness : bool;
  t2_found : (string * int option) list; (* tool -> first iteration *)
}

type table2 = {
  t2_rows : table2_row list;
  t2_stats : Campaign.stats list;
}

let table2 ?(iterations = 12_000) ?(seed = 1) () : table2 =
  let config = Kconfig.default Version.Bpf_next in
  let stats =
    List.map
      (fun strategy -> Campaign.run ~seed ~iterations strategy config)
      (tools ())
  in
  let first_iteration (s : Campaign.stats) (bug : Kconfig.bug) : int option
    =
    Hashtbl.fold
      (fun _ (f : Campaign.found) acc ->
         if f.Campaign.fd_finding.Oracle.f_bug = Some bug then
           match acc with
           | Some i -> Some (min i f.Campaign.fd_iteration)
           | None -> Some f.Campaign.fd_iteration
         else acc)
      s.Campaign.st_findings None
  in
  let rows =
    List.map
      (fun bug ->
         let component, description, kind = Kconfig.bug_info bug in
         {
           t2_bug = bug;
           t2_component = component;
           t2_description = description;
           t2_correctness = (kind = `Correctness);
           t2_found =
             List.map
               (fun s -> (s.Campaign.st_tool, first_iteration s bug))
               stats;
         })
      (List.filter
         (Kconfig.bug_in_version Version.Bpf_next)
         Kconfig.all_bugs)
  in
  { t2_rows = rows; t2_stats = stats }

let print_table2 (t : table2) : unit =
  Printf.printf
    "Table 2: vulnerabilities discovered (bpf-next, injected bug corpus)\n";
  Printf.printf "%-4s %-11s %-55s %-12s %s\n" "#" "Component" "Description"
    "Class" "first found at iteration";
  List.iteri
    (fun i row ->
       Printf.printf "%-4d %-11s %-55s %-12s %s\n" (i + 1)
         row.t2_component row.t2_description
         (if row.t2_correctness then "correctness" else "memory/lock")
         (String.concat "  "
            (List.map
               (fun (tool, found) ->
                  Printf.sprintf "%s=%s" tool
                    (match found with
                     | Some it -> string_of_int it
                     | None -> "-"))
               row.t2_found)))
    t.t2_rows;
  List.iter
    (fun s ->
       Printf.printf
         "  %s: %d/%d verifier correctness bugs, %d bugs total\n"
         s.Campaign.st_tool
         (List.length (Campaign.correctness_bugs_found s))
         (List.length
            (List.filter
               (fun b ->
                  match Kconfig.bug_info b with
                  | _, _, `Correctness -> true
                  | _ -> false)
               (List.filter
                  (Kconfig.bug_in_version Version.Bpf_next)
                  Kconfig.all_bugs)))
         (List.length (Campaign.bugs_found s)))
    t.t2_stats

(* -- Table 3 / Figure 6: coverage comparison ----------------------------- *)

type coverage_cell = {
  cc_tool : string;
  cc_version : Version.t;
  cc_edges : float;                    (* mean over repetitions *)
  cc_curve : (int * float) list;       (* iteration -> mean edges *)
}

type coverage_table = { ct_cells : coverage_cell list }

let coverage ?(iterations = 6_000) ?(repetitions = 3) ?(sample_every = 250)
    () : coverage_table =
  let versions = Version.all in
  let cells =
    List.concat_map
      (fun version ->
         let config = Kconfig.default version in
         List.map
           (fun strategy ->
              let runs =
                List.init repetitions (fun rep ->
                    Campaign.run ~sample_every ~seed:(rep * 7919 + 11)
                      ~iterations strategy config)
              in
              let mean f =
                List.fold_left (fun acc r -> acc +. f r) 0.0 runs
                /. float_of_int repetitions
              in
              let curve =
                (* align samples across runs by iteration *)
                let points =
                  List.sort_uniq compare
                    (List.concat_map
                       (fun r ->
                          List.map
                            (fun s -> s.Campaign.sa_iteration)
                            r.Campaign.st_curve)
                       runs)
                in
                List.map
                  (fun it ->
                     let value (r : Campaign.stats) =
                       (* edges at the latest sample <= it *)
                       List.fold_left
                         (fun acc (s : Campaign.sample) ->
                            if s.Campaign.sa_iteration <= it then
                              max acc (float_of_int s.Campaign.sa_edges)
                            else acc)
                         0.0 r.Campaign.st_curve
                     in
                     (it, mean value))
                  points
              in
              {
                cc_tool = strategy.Campaign.s_name;
                cc_version = version;
                cc_edges = mean (fun r -> float_of_int r.Campaign.st_edges);
                cc_curve = curve;
              })
           (tools ()))
      versions
  in
  { ct_cells = cells }

let cell (t : coverage_table) (tool : string) (version : Version.t) :
  coverage_cell =
  List.find
    (fun c -> c.cc_tool = tool && c.cc_version = version)
    t.ct_cells

let print_table3 (t : coverage_table) : unit =
  Printf.printf
    "Table 3: verifier branch coverage (mean over repetitions; %% = BVF improvement)\n";
  Printf.printf "%-10s %10s %22s %22s\n" "Version" "BVF" "Syzkaller"
    "Buzzer";
  let overall = Hashtbl.create 4 in
  List.iter
    (fun version ->
       let bvf = (cell t "BVF" version).cc_edges in
       let syz = (cell t "Syzkaller" version).cc_edges in
       let buz = (cell t "Buzzer" version).cc_edges in
       List.iter
         (fun (k, v) ->
            Hashtbl.replace overall k
              (v +. Option.value (Hashtbl.find_opt overall k) ~default:0.0))
         [ ("bvf", bvf); ("syz", syz); ("buz", buz) ];
       let imp x = 100.0 *. (bvf -. x) /. (max x 1.0) in
       Printf.printf "%-10s %10.0f %12.0f (+%.1f%%) %12.0f (+%.1f%%)\n"
         (Version.to_string version)
         bvf syz (imp syz) buz (imp buz))
    Version.all;
  let n = float_of_int (List.length Version.all) in
  let avg k = Hashtbl.find overall k /. n in
  let imp x = 100.0 *. (avg "bvf" -. x) /. (max x 1.0) in
  Printf.printf "%-10s %10.0f %12.0f (+%.1f%%) %12.0f (+%.1f%%)\n" "Overall"
    (avg "bvf") (avg "syz") (imp (avg "syz")) (avg "buz") (imp (avg "buz"))

let print_figure6 (t : coverage_table) : unit =
  Printf.printf
    "Figure 6: branch coverage over time (CSV series per kernel version)\n";
  List.iter
    (fun version ->
       Printf.printf "# %s\niteration,BVF,Syzkaller,Buzzer\n"
         (Version.to_string version);
       let bvf = cell t "BVF" version in
       let syz = cell t "Syzkaller" version in
       let buz = cell t "Buzzer" version in
       List.iter
         (fun (it, v) ->
            let at c =
              match List.assoc_opt it c.cc_curve with
              | Some x -> x
              | None -> 0.0
            in
            Printf.printf "%d,%.0f,%.0f,%.0f\n" it v (at syz) (at buz))
         bvf.cc_curve)
    Version.all

(* -- Section 6.3 statistics: acceptance rate ----------------------------- *)

type acceptance = {
  ac_bvf : float;
  ac_syz : float;
  ac_buzzer_random : float;
  ac_buzzer_alujmp : float;
  ac_buzzer_alujmp_ratio : float; (* ALU+JMP fraction of Buzzer insns *)
  ac_syz_errno : (Venv.errno * int) list;
  ac_reasons : (string * (Reject_reason.t * int) list) list;
      (* per-tool rejection taxonomy, reasons sorted by count *)
}

let reason_table (s : Campaign.stats) : (Reject_reason.t * int) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.Campaign.st_reasons []
  |> List.sort (fun (ra, a) (rb, b) ->
         match compare b a with
         | 0 -> compare (Reject_reason.to_string ra) (Reject_reason.to_string rb)
         | c -> c)

let acceptance ?(programs = 4_000) ?(seed = 5) () : acceptance =
  (* measured exactly as the paper does: over a fuzzing campaign
     (generation plus mutation under coverage feedback) *)
  let config = Kconfig.default Version.Bpf_next in
  let campaign strategy =
    Campaign.run ~seed ~iterations:programs strategy config
  in
  let bvf = campaign Campaign.bvf_strategy in
  let syz = campaign Syz_gen.strategy in
  let bz_rand = campaign (Buzzer_gen.strategy ~mode:Buzzer_gen.Random_bytes ()) in
  let bz_aj = campaign (Buzzer_gen.strategy ()) in
  {
    ac_bvf = Campaign.acceptance_rate bvf;
    ac_syz = Campaign.acceptance_rate syz;
    ac_buzzer_random = Campaign.acceptance_rate bz_rand;
    ac_buzzer_alujmp = Campaign.acceptance_rate bz_aj;
    ac_buzzer_alujmp_ratio = Disasm.alu_jmp_ratio bz_aj.Campaign.st_histogram;
    ac_syz_errno =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) syz.Campaign.st_errno []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    ac_reasons =
      [
        (bvf.Campaign.st_tool, reason_table bvf);
        (syz.Campaign.st_tool, reason_table syz);
        (bz_rand.Campaign.st_tool, reason_table bz_rand);
        (bz_aj.Campaign.st_tool, reason_table bz_aj);
      ];
  }

let print_acceptance (a : acceptance) : unit =
  Printf.printf "Section 6.3: verifier acceptance rates\n";
  Printf.printf "  BVF                 %5.1f%%   (paper: 49%%)\n"
    (100.0 *. a.ac_bvf);
  Printf.printf "  Syzkaller           %5.1f%%   (paper: 23.5%%)\n"
    (100.0 *. a.ac_syz);
  Printf.printf "  Buzzer (random)     %5.1f%%   (paper: ~1%%)\n"
    (100.0 *. a.ac_buzzer_random);
  Printf.printf "  Buzzer (alu/jmp)    %5.1f%%   (paper: ~97%%)\n"
    (100.0 *. a.ac_buzzer_alujmp);
  Printf.printf "  Buzzer ALU+JMP insn ratio %.1f%% (paper: >=88.4%%)\n"
    (100.0 *. a.ac_buzzer_alujmp_ratio);
  Printf.printf "  Syzkaller top rejection errno: %s\n"
    (String.concat ", "
       (List.map
          (fun (e, n) ->
             Printf.sprintf "%s=%d" (Venv.errno_to_string e) n)
          a.ac_syz_errno));
  Printf.printf "  Rejection taxonomy (why each tool gets rejected):\n";
  List.iter
    (fun (tool, reasons) ->
       Printf.printf "    %-16s %s\n" tool
         (if reasons = [] then "(no rejections)"
          else
            String.concat ", "
              (List.map
                 (fun (r, n) ->
                    Printf.sprintf "%s=%d" (Reject_reason.to_string r) n)
                 reasons)))
    a.ac_reasons

(* -- Section 6.4: sanitation overhead ------------------------------------ *)

type overhead = {
  oh_programs : int;
  oh_exec_slowdown : float;      (* mean per-program exec time ratio - 1 *)
  oh_insn_footprint : float;     (* mean sanitized/unsanitized insn ratio *)
  oh_runs_per_program : int;
}

(* Execute [prog] [runs] times in [session], returning seconds. *)
let time_executions (session : Loader.t) (prog : Verifier.loaded)
    (runs : int) : float =
  let t0 = Bvf_util.Mclock.now_s () in
  for _ = 1 to runs do
    ignore (Loader.execute session prog)
  done;
  Bvf_util.Mclock.elapsed_s ~since:t0

let overhead ?(count = Selftests.target_count) ?(runs = 60)
    ?(version = Version.Bpf_next) () : overhead =
  let suite = Selftests.build ~count version in
  let session_plain =
    Loader.create (Kconfig.with_sanitize (Kconfig.fixed version) false)
  in
  let session_asan =
    Loader.create (Kconfig.with_sanitize (Kconfig.fixed version) true)
  in
  (* the suite's maps in both sessions, at the fds its programs use *)
  List.iter
    (fun session -> ignore (Selftests.install_maps session : int * int))
    [ session_plain; session_asan ];
  let slowdowns = ref [] in
  let footprints = ref [] in
  List.iter
    (fun req ->
       match
         ( Verifier.load session_plain.Loader.kst
             ~cov:session_plain.Loader.cov req,
           Verifier.load session_asan.Loader.kst
             ~cov:session_asan.Loader.cov req )
       with
       | Ok plain, Ok asan ->
         (* each side is the best of 5 alternating timings: one
            preemption inflates a repeat, not the minimum *)
         let t_plain = ref infinity and t_asan = ref infinity in
         for _ = 1 to 5 do
           t_plain :=
             Float.min !t_plain (time_executions session_plain plain runs);
           t_asan := Float.min !t_asan (time_executions session_asan asan runs)
         done;
         let t_plain = !t_plain and t_asan = !t_asan in
         if t_plain > 0.0 then
           slowdowns := (t_asan /. t_plain) :: !slowdowns;
         footprints :=
           (float_of_int (Array.length asan.Verifier.l_insns)
            /. float_of_int (Array.length plain.Verifier.l_insns))
           :: !footprints
       | _, _ -> ())
    suite.Selftests.requests;
  let mean l =
    match l with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  {
    oh_programs = List.length !footprints;
    oh_exec_slowdown = mean !slowdowns -. 1.0;
    oh_insn_footprint = mean !footprints;
    oh_runs_per_program = runs;
  }

let print_overhead (o : overhead) : unit =
  Printf.printf "Section 6.4: sanitation overhead on %d self-tests\n"
    o.oh_programs;
  Printf.printf "  execution slowdown:     %.0f%%   (paper: 90%%)\n"
    (100.0 *. o.oh_exec_slowdown);
  Printf.printf "  instruction footprint:  %.2fx  (paper: 3.0x)\n"
    o.oh_insn_footprint

(* -- Ablations (DESIGN.md section 6) ------------------------------------- *)

type ablation_row = {
  ab_name : string;
  ab_edges : int;
  ab_accept : float;
  ab_correctness_bugs : int;
}

let ablation ?(iterations = 6_000) ?(seed = 3) () : ablation_row list =
  let config = Kconfig.default Version.Bpf_next in
  let eval name strategy config =
    let s = Campaign.run ~seed ~iterations strategy config in
    {
      ab_name = name;
      ab_edges = s.Campaign.st_edges;
      ab_accept = Campaign.acceptance_rate s;
      ab_correctness_bugs =
        List.length (Campaign.correctness_bugs_found s);
    }
  in
  let no_feedback =
    { Campaign.bvf_strategy with
      Campaign.s_name = "BVF-nofeedback"; s_feedback = false }
  in
  let no_structure =
    { Syz_gen.strategy with Campaign.s_name = "BVF-nostructure" }
  in
  [
    eval "BVF (full)" Campaign.bvf_strategy config;
    eval "no coverage feedback" no_feedback config;
    eval "no structured generation" no_structure config;
    eval "sanitation disabled" Campaign.bvf_strategy
      (Kconfig.with_sanitize config false);
  ]

let print_ablation (rows : ablation_row list) : unit =
  Printf.printf "Ablation study (bpf-next, equal budgets)\n";
  Printf.printf "  %-26s %8s %10s %18s\n" "variant" "edges" "accept%"
    "correctness bugs";
  List.iter
    (fun r ->
       Printf.printf "  %-26s %8d %9.1f%% %18d\n" r.ab_name r.ab_edges
         (100.0 *. r.ab_accept) r.ab_correctness_bugs)
    rows

(* -- Hot-path microbench (BENCH_hotpath.json) ----------------------------- *)

(* Sequential single-core throughput of the three pipeline hot paths:
   verification (the dominant campaign phase), pre-decoded execution,
   and the end-to-end campaign step.  Alongside wall-clock rates the
   rows record minor-heap allocation per program (Gc.minor_words), a
   per-layer figure that only points at where time may go, and the
   campaign row pins the determinism digest, so a perf change that
   accidentally alters behavior fails loudly in the regression gate. *)

type hotpath_row = {
  hp_name : string;                 (* "verify" | "exec" | "campaign" *)
  hp_programs : int;                (* loads / executions / iterations *)
  hp_insns : int;                   (* insns analyzed or executed *)
  hp_seconds : float;
  hp_progs_per_sec : float;
  hp_ns_per_insn : float;
  hp_minor_words_per_prog : float;  (* allocation pressure *)
}

type hotpath_bench = {
  hb_count : int;       (* selftest corpus size (verify/exec rows) *)
  hb_repeat : int;      (* verify passes over the corpus *)
  hb_exec_runs : int;   (* executions per program *)
  hb_iterations : int;  (* campaign-row iteration budget *)
  hb_seed : int;
  hb_digest : string;   (* campaign digest: determinism pin *)
  hb_rows : hotpath_row list;
}

let hp_row ~name ~programs ~insns ~seconds ~minor_words : hotpath_row =
  {
    hp_name = name;
    hp_programs = programs;
    hp_insns = insns;
    hp_seconds = seconds;
    hp_progs_per_sec =
      (if seconds > 0.0 then float_of_int programs /. seconds else 0.0);
    hp_ns_per_insn =
      (if insns > 0 then seconds *. 1e9 /. float_of_int insns else 0.0);
    hp_minor_words_per_prog =
      (if programs > 0 then minor_words /. float_of_int programs else 0.0);
  }

(* Verify row: [repeat] sequential verification passes over the
   selftest corpus (fixed verifier, sanitation on — the campaign's
   dominant workload shape). *)
let hotpath_verify ?(count = Selftests.target_count) ?(repeat = 10)
    ?(version = Version.Bpf_next) () : hotpath_row =
  let suite = Selftests.build ~count version in
  let kst = suite.Selftests.session.Loader.kst in
  let cov = suite.Selftests.session.Loader.cov in
  let programs = ref 0 and insns = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = Bvf_util.Mclock.now_s () in
  for _ = 1 to repeat do
    List.iter
      (fun req ->
         incr programs;
         match Verifier.load kst ~cov req with
         | Ok l -> insns := !insns + l.Verifier.l_insn_processed
         | Error _ -> ())
      suite.Selftests.requests
  done;
  let seconds = Bvf_util.Mclock.elapsed_s ~since:t0 in
  let minor_words = Gc.minor_words () -. w0 in
  hp_row ~name:"verify" ~programs:!programs ~insns:!insns ~seconds
    ~minor_words

(* Exec row: [runs] executions of each verified selftest through the
   pre-decoded interpreter (decode happens once per program, amortized
   by the per-session decode cache). *)
let hotpath_exec ?(count = Selftests.target_count) ?(runs = 60)
    ?(version = Version.Bpf_next) () : hotpath_row =
  let suite = Selftests.build ~count version in
  let session = suite.Selftests.session in
  let loaded =
    List.filter_map
      (fun req ->
         match
           Verifier.load session.Loader.kst ~cov:session.Loader.cov req
         with
         | Ok l -> Some l
         | Error _ -> None)
      suite.Selftests.requests
  in
  let programs = ref 0 and insns = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = Bvf_util.Mclock.now_s () in
  List.iter
    (fun prog ->
       for _ = 1 to runs do
         incr programs;
         let r = Loader.execute session prog in
         insns := !insns + r.Exec.insns_executed
       done)
    loaded;
  let seconds = Bvf_util.Mclock.elapsed_s ~since:t0 in
  let minor_words = Gc.minor_words () -. w0 in
  hp_row ~name:"exec" ~programs:!programs ~insns:!insns ~seconds
    ~minor_words

(* Campaign row: the end-to-end sequential pipeline (generate, verify,
   sanitize, execute, oracle) — the number the ROADMAP hot-path item
   tracks — plus the digest that pins behavior. *)
let hotpath_campaign ?(iterations = 6_000) ?(seed = 1) () :
  hotpath_row * string =
  let config = Kconfig.default Version.Bpf_next in
  let w0 = Gc.minor_words () in
  let stats, seconds =
    Bvf_util.Mclock.time_s (fun () ->
        Campaign.run ~seed ~iterations Campaign.bvf_strategy config)
  in
  let minor_words = Gc.minor_words () -. w0 in
  let row =
    hp_row ~name:"campaign" ~programs:stats.Campaign.st_generated
      ~insns:stats.Campaign.st_vstats.Bvf_verifier.Vstats.ag_insn_processed
      ~seconds ~minor_words
  in
  (row, Campaign.digest stats)

let hotpath_bench ?(count = Selftests.target_count) ?(repeat = 10)
    ?(exec_runs = 60) ?(iterations = 6_000) ?(seed = 1) () :
  hotpath_bench =
  let verify = hotpath_verify ~count ~repeat () in
  let exec = hotpath_exec ~count ~runs:exec_runs () in
  let campaign, digest = hotpath_campaign ~iterations ~seed () in
  {
    hb_count = count;
    hb_repeat = repeat;
    hb_exec_runs = exec_runs;
    hb_iterations = iterations;
    hb_seed = seed;
    hb_digest = digest;
    hb_rows = [ verify; exec; campaign ];
  }

let print_hotpath (h : hotpath_bench) : unit =
  Printf.printf
    "Hot-path microbench (sequential, %d selftests x%d, %d exec runs, \
     %d campaign iterations, seed %d)\n"
    h.hb_count h.hb_repeat h.hb_exec_runs h.hb_iterations h.hb_seed;
  Printf.printf "  %-10s %9s %12s %9s %13s %10s %14s\n" "row" "programs"
    "insns" "seconds" "programs/sec" "ns/insn" "minor-w/prog";
  List.iter
    (fun r ->
       Printf.printf "  %-10s %9d %12d %9.3f %13.0f %10.1f %14.0f\n"
         r.hp_name r.hp_programs r.hp_insns r.hp_seconds
         r.hp_progs_per_sec r.hp_ns_per_insn r.hp_minor_words_per_prog)
    h.hb_rows;
  Printf.printf "  campaign digest: %s\n" h.hb_digest

let hotpath_to_json (h : hotpath_bench) : string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"hotpath\",\n";
  Printf.bprintf b "  \"count\": %d,\n" h.hb_count;
  Printf.bprintf b "  \"repeat\": %d,\n" h.hb_repeat;
  Printf.bprintf b "  \"exec_runs\": %d,\n" h.hb_exec_runs;
  Printf.bprintf b "  \"iterations\": %d,\n" h.hb_iterations;
  Printf.bprintf b "  \"seed\": %d,\n" h.hb_seed;
  Printf.bprintf b "  \"digest\": \"%s\",\n" h.hb_digest;
  (* the machine: a rate means little without its cores and compiler *)
  Printf.bprintf b "  \"nproc\": %d,\n" (Domain.recommended_domain_count ());
  Printf.bprintf b "  \"ocaml\": \"%s\",\n" Sys.ocaml_version;
  Printf.bprintf b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
       Printf.bprintf b
         "    {\"name\": \"%s\", \"programs\": %d, \"insns\": %d, \
          \"seconds\": %.6f, \"programs_per_sec\": %.1f, \
          \"ns_per_insn\": %.2f, \"minor_words_per_prog\": %.1f}%s\n"
         r.hp_name r.hp_programs r.hp_insns r.hp_seconds
         r.hp_progs_per_sec r.hp_ns_per_insn r.hp_minor_words_per_prog
         (if i < List.length h.hb_rows - 1 then "," else ""))
    h.hb_rows;
  Printf.bprintf b "  ]\n}\n";
  Buffer.contents b
