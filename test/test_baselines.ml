(* Tests for the baseline generators: they must exhibit the acceptance
   and instruction-mix characteristics the paper measured for Syzkaller
   and Buzzer (section 6.3). *)

module Insn = Bvf_ebpf.Insn
module Prog = Bvf_ebpf.Prog
module Disasm = Bvf_ebpf.Disasm
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Verifier = Bvf_verifier.Verifier
module Coverage = Bvf_verifier.Coverage
module Loader = Bvf_runtime.Loader
module Rng = Bvf_core.Rng
module Gen = Bvf_core.Gen
module Campaign = Bvf_core.Campaign
module Syz_gen = Bvf_baselines.Syz_gen
module Buzzer_gen = Bvf_baselines.Buzzer_gen

let setup () =
  let session = Loader.create (Kconfig.default Version.Bpf_next) in
  let maps = Campaign.standard_maps session in
  (session, { Gen.c_version = Version.Bpf_next; Gen.c_maps = maps })

let acceptance gen n seed =
  let session, cfg = setup () in
  let rng = Rng.create seed in
  let cov = Coverage.create () in
  let ok = ref 0 in
  for _ = 1 to n do
    let req = gen rng cfg in
    if Result.is_ok (Verifier.verify session.Loader.kst ~cov req) then
      incr ok
  done;
  float_of_int !ok /. float_of_int n

let test_syz_acceptance () =
  let rate = acceptance Syz_gen.generate 800 3 in
  Alcotest.(check bool)
    (Printf.sprintf "syzkaller acceptance %.2f in [0.1, 0.45]" rate)
    true
    (rate > 0.1 && rate < 0.45)

let test_buzzer_alujmp_acceptance () =
  let rate =
    acceptance (Buzzer_gen.generate Buzzer_gen.Alu_jmp) 800 3
  in
  Alcotest.(check bool)
    (Printf.sprintf "buzzer alu/jmp acceptance %.2f > 0.9" rate)
    true (rate > 0.9)

let test_buzzer_random_acceptance () =
  let rate =
    acceptance (Buzzer_gen.generate Buzzer_gen.Random_bytes) 800 3
  in
  Alcotest.(check bool)
    (Printf.sprintf "buzzer random acceptance %.3f < 0.05" rate)
    true (rate < 0.05)

let test_buzzer_insn_mix () =
  (* over 88.4%% of Buzzer's instructions are ALU or JMP (paper 6.3) *)
  let _, cfg = setup () in
  let rng = Rng.create 17 in
  let hist = ref Disasm.empty_histogram in
  for _ = 1 to 300 do
    let req = Buzzer_gen.generate Buzzer_gen.Alu_jmp rng cfg in
    hist := Disasm.add_histogram !hist req.Verifier.r_insns
  done;
  let ratio = Disasm.alu_jmp_ratio !hist in
  Alcotest.(check bool)
    (Printf.sprintf "alu+jmp ratio %.3f >= 0.884" ratio)
    true (ratio >= 0.884)

let test_syz_random_fields_vary () =
  let _, cfg = setup () in
  let rng = Rng.create 31 in
  let lengths = Hashtbl.create 8 in
  for _ = 1 to 100 do
    let req = Syz_gen.generate rng cfg in
    Hashtbl.replace lengths (Array.length req.Verifier.r_insns) ()
  done;
  Alcotest.(check bool) "length diversity" true
    (Hashtbl.length lengths > 5)

let test_baseline_campaigns_no_correctness_bugs () =
  (* the Table 2 headline: neither baseline triggers verifier
     correctness bugs within a comparable budget *)
  let config = Kconfig.default Version.Bpf_next in
  let syz = Campaign.run ~seed:8 ~iterations:1500 Syz_gen.strategy config in
  let buz =
    Campaign.run ~seed:8 ~iterations:1500 (Buzzer_gen.strategy ()) config
  in
  Alcotest.(check int) "syzkaller: none" 0
    (List.length (Campaign.correctness_bugs_found syz));
  Alcotest.(check int) "buzzer: none" 0
    (List.length (Campaign.correctness_bugs_found buz))

let test_buzzer_coverage_saturates () =
  let config = Kconfig.default Version.Bpf_next in
  let short =
    Campaign.run ~seed:5 ~iterations:300 (Buzzer_gen.strategy ()) config
  in
  let long =
    Campaign.run ~seed:5 ~iterations:3000 (Buzzer_gen.strategy ()) config
  in
  (* 10x the budget buys almost nothing: the saturation of Figure 6 *)
  Alcotest.(check bool) "saturated" true
    (long.Campaign.st_edges - short.Campaign.st_edges
     <= short.Campaign.st_edges / 2)

let () =
  Alcotest.run "bvf_baselines"
    [
      ( "acceptance",
        [ Alcotest.test_case "syzkaller window" `Quick test_syz_acceptance;
          Alcotest.test_case "buzzer alu/jmp high" `Quick
            test_buzzer_alujmp_acceptance;
          Alcotest.test_case "buzzer random low" `Quick
            test_buzzer_random_acceptance ] );
      ( "characteristics",
        [ Alcotest.test_case "buzzer insn mix" `Quick test_buzzer_insn_mix;
          Alcotest.test_case "syz diversity" `Quick
            test_syz_random_fields_vary ] );
      ( "campaigns",
        [ Alcotest.test_case "no correctness bugs" `Slow
            test_baseline_campaigns_no_correctness_bugs;
          Alcotest.test_case "buzzer saturates" `Slow
            test_buzzer_coverage_saturates ] );
    ]
