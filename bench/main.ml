(* Benchmark & experiment harness: regenerates every table and figure of
   the paper's evaluation from {!Bvf_experiments.Experiments}.

     dune exec bench/main.exe               - all experiments, full size
     dune exec bench/main.exe -- quick      - all experiments, small size
     dune exec bench/main.exe -- table2     - Table 2 only
     dune exec bench/main.exe -- table3     - Table 3 only
     dune exec bench/main.exe -- figure6    - Figure 6 series
     dune exec bench/main.exe -- acceptance - section 6.3 statistics
     dune exec bench/main.exe -- overhead   - section 6.4 sanitation cost
     dune exec bench/main.exe -- ablation   - DESIGN.md ablations
     dune exec bench/main.exe -- hotpath    - verify + exec + sequential
                                              campaign; writes
                                              BENCH_hotpath.json
     dune exec bench/main.exe -- hotpath-quick - same, smoke-sized (CI
                                              regression gate input);
                                              writes
                                              BENCH_hotpath_quick.json *)

module E = Bvf_experiments.Experiments

let line () = print_endline (String.make 78 '-')

let run_table2 ~iterations () =
  line ();
  E.print_table2 (E.table2 ~iterations ())

let coverage_memo = ref None

let coverage ~iterations ~repetitions () =
  match !coverage_memo with
  | Some t -> t
  | None ->
    let t = E.coverage ~iterations ~repetitions () in
    coverage_memo := Some t;
    t

let run_table3 ~iterations ~repetitions () =
  line ();
  E.print_table3 (coverage ~iterations ~repetitions ())

let run_figure6 ~iterations ~repetitions () =
  line ();
  E.print_figure6 (coverage ~iterations ~repetitions ())

let run_acceptance ~programs () =
  line ();
  E.print_acceptance (E.acceptance ~programs ())

let run_overhead ~count ~runs () =
  line ();
  E.print_overhead (E.overhead ~count ~runs ())

let run_ablation ~iterations () =
  line ();
  E.print_ablation (E.ablation ~iterations ())

(* Hot-path microbench: sequential verify / exec / campaign throughput
   plus allocation, recorded as BENCH_hotpath.json (the quick run's
   BENCH_hotpath_quick.json is the input of the CI regression gate,
   scripts/check_hotpath.sh). *)
let run_hotpath ?(path = "BENCH_hotpath.json") ~count ~repeat ~exec_runs
    ~iterations () =
  line ();
  let h = E.hotpath_bench ~count ~repeat ~exec_runs ~iterations () in
  E.print_hotpath h;
  let oc = open_out path in
  output_string oc (E.hotpath_to_json h);
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match arg with
  | "table2" -> run_table2 ~iterations:12_000 ()
  | "table3" -> run_table3 ~iterations:6_000 ~repetitions:3 ()
  | "figure6" -> run_figure6 ~iterations:6_000 ~repetitions:3 ()
  | "acceptance" -> run_acceptance ~programs:4_000 ()
  | "overhead" -> run_overhead ~count:708 ~runs:60 ()
  | "ablation" -> run_ablation ~iterations:6_000 ()
  | "hotpath" ->
    run_hotpath ~count:708 ~repeat:10 ~exec_runs:60 ~iterations:6_000 ()
  | "hotpath-quick" ->
    (* never over the committed full-run file; rows sized to stay well
       above timer noise on shared CI runners: the 20%-drop gate in
       scripts/check_hotpath.sh needs each row to run for a few hundred
       milliseconds at least *)
    run_hotpath ~path:"BENCH_hotpath_quick.json" ~count:400 ~repeat:20
      ~exec_runs:120 ~iterations:3_000 ()
  | "quick" ->
    run_table2 ~iterations:3_000 ();
    run_table3 ~iterations:1_500 ~repetitions:2 ();
    run_figure6 ~iterations:1_500 ~repetitions:2 ();
    run_acceptance ~programs:1_000 ();
    run_overhead ~count:150 ~runs:10 ();
    run_ablation ~iterations:1_500 ()
  | "all" ->
    run_table2 ~iterations:12_000 ();
    run_table3 ~iterations:6_000 ~repetitions:3 ();
    run_figure6 ~iterations:6_000 ~repetitions:3 ();
    run_acceptance ~programs:4_000 ();
    run_overhead ~count:708 ~runs:60 ();
    run_ablation ~iterations:6_000 ()
  | other ->
    Printf.eprintf
      "unknown experiment %S (try: all quick table2 table3 figure6 \
       acceptance overhead ablation hotpath hotpath-quick)\n"
      other;
    exit 2
