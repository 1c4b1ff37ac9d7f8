(* Bounded-loop verification end to end: widening at certified loop
   heads, the rejection split (zero-progress [Unbounded_loop] vs
   non-converging [Loop_unbounded]), the Bug13 widening regression
   demonstrated through the witness oracle, and the generated loopy
   corpus holding the soundness gates (invariant lint, witness) at
   campaign scale.

   The directed programs below all share one shape: a counted loop
   whose back edge carries the syntactic termination certificate
   (single conditional back edge, Jlt/Jle of the induction register
   against a small immediate, the increment just before it).  Only
   such heads ever widen — see analyze.ml. *)

module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Report = Bvf_kernel.Report
module Verifier = Bvf_verifier.Verifier
module Venv = Bvf_verifier.Venv
module Vstats = Bvf_verifier.Vstats
module Reject_reason = Bvf_verifier.Reject_reason
module Loader = Bvf_runtime.Loader
module Campaign = Bvf_core.Campaign
module Gen = Bvf_core.Gen
module Rng = Bvf_core.Rng

let load ?(config = Kconfig.make Version.Bpf_next ~bugs:[]) fragments =
  let session = Loader.create config in
  let req =
    Verifier.request Prog.Socket_filter (Asm.prog fragments)
  in
  Loader.load_and_run session req

(* -- Widening accepts counted loops ---------------------------------------- *)

(* r6 counts 0..40; r7 accumulates.  The second head arrival widens
   both scalars to threshold ranges and the third converges: accepted
   with a handful of widen rounds, and — the frozen-schema contract —
   zero "infinite loop detected" events. *)
let widened_loop_accepted () =
  let result =
    load
      [ [ Asm.mov64_imm Insn.R6 0l;
          Asm.mov64_imm Insn.R7 0l;
          (* head: *)
          Asm.alu64_imm Insn.Add Insn.R7 2l;
          Asm.alu64_imm Insn.Add Insn.R6 1l;
          Asm.jmp_imm Insn.Jlt Insn.R6 40l (-3) ];
        Asm.ret 0l ]
  in
  (match result.Loader.verdict with
   | Ok _ -> ()
   | Error e ->
     Alcotest.fail
       (Printf.sprintf "counted loop rejected: %s" e.Venv.vmsg));
  match result.Loader.vstats with
  | None -> Alcotest.fail "no verifier counters"
  | Some v ->
    Alcotest.(check bool) "widening ran" true (v.Vstats.vs_widen_rounds > 0);
    Alcotest.(check int) "one loop head" 1 v.Vstats.vs_loop_heads;
    Alcotest.(check int) "loops_detected keeps its meaning" 0
      v.Vstats.vs_loops_detected

(* The concrete interpreter agrees with the widened verdict: the loop
   runs its 40 trips and exits normally under the witness oracle with
   nothing escaping. *)
let widened_loop_runs_clean () =
  let config = Kconfig.make Version.Bpf_next ~bugs:[] ~witness:true in
  let result =
    load ~config
      [ [ Asm.mov64_imm Insn.R6 0l;
          Asm.mov64_imm Insn.R7 0l;
          Asm.alu64_imm Insn.Add Insn.R7 2l;
          Asm.alu64_imm Insn.Add Insn.R6 1l;
          Asm.jmp_imm Insn.Jlt Insn.R6 40l (-3) ];
        Asm.ret 0l ]
  in
  Alcotest.(check bool) "accepted" true
    (Result.is_ok result.Loader.verdict);
  Alcotest.(check bool) "loop body executed" true
    (result.Loader.insns_executed > 100);
  Alcotest.(check (list string)) "no witness escapes" []
    (List.map Report.to_string result.Loader.witness)

(* -- The rejection split --------------------------------------------------- *)

(* Zero progress at an uncertified head: the historical reject path
   (kernel "infinite loop detected") must keep firing, counted by
   loops_detected. *)
let zero_progress_still_rejected () =
  let result =
    load
      [ [ Asm.mov64_imm Insn.R6 0l;
          (* head: the And resets r6 to 0 every iteration *)
          Asm.alu64_imm Insn.And Insn.R6 0l;
          Asm.jmp_imm Insn.Jeq Insn.R6 0l (-2) ];
        Asm.ret 0l ]
  in
  (match result.Loader.verdict with
   | Ok _ -> Alcotest.fail "zero-progress loop accepted"
   | Error e ->
     Alcotest.(check bool) "reason is unbounded_loop" true
       (e.Venv.vreason = Reject_reason.Unbounded_loop));
  match result.Loader.vstats with
  | None -> Alcotest.fail "no verifier counters"
  | Some v ->
    Alcotest.(check bool) "loops_detected fired" true
      (v.Vstats.vs_loops_detected > 0)

(* A certified counter next to loop-carried pointer arithmetic the
   widening cannot absorb: unrolling runs out of per-insn entries and
   the analyzer reports the distinct [Loop_unbounded] reason. *)
let non_converging_loop_rejected () =
  let result =
    load
      [ [ Asm.mov64_imm Insn.R6 0l;
          Asm.mov64_reg Insn.R2 Insn.R10;
          (* head: *)
          Asm.alu64_imm Insn.Add Insn.R2 (-8l);
          Asm.alu64_imm Insn.Add Insn.R6 1l;
          Asm.jmp_imm Insn.Jlt Insn.R6 30l (-3) ];
        Asm.ret 0l ]
  in
  match result.Loader.verdict with
  | Ok _ -> Alcotest.fail "non-converging loop accepted"
  | Error e ->
    Alcotest.(check bool) "reason is loop_unbounded" true
      (e.Venv.vreason = Reject_reason.Loop_unbounded)

(* A cmpxchg loads the old memory value into R0, and a wire-decoded
   cmpxchg always carries the fetch flag.  An [r0 < k] loop whose body
   holds one therefore writes its induction register twice and carries
   no certificate: it must not widen.  Concretely it never ends — the
   slot holds 0, so from the second trip on the compare fails, R0 gets
   0 back and the increment leaves it at 1. *)
let cmpxchg_loop_not_certified () =
  let result =
    load
      [ [ Asm.mov64_imm Insn.R0 0l;
          Asm.st_dw Insn.R10 (-8) 0l;
          Asm.mov64_imm Insn.R1 0l;
          (* head: *)
          Asm.atomic ~fetch:true Insn.DW Insn.A_cmpxchg Insn.R10 Insn.R1 (-8);
          Asm.alu64_imm Insn.Add Insn.R0 1l;
          Asm.jmp_imm Insn.Jlt Insn.R0 10l (-3) ];
        Asm.ret 0l ]
  in
  (match result.Loader.verdict with
   | Ok _ -> Alcotest.fail "a loop that never ends was accepted"
   | Error _ -> ());
  match result.Loader.vstats with
  | None -> Alcotest.fail "no verifier counters"
  | Some v -> Alcotest.(check int) "never widened" 0 v.Vstats.vs_widen_rounds

(* -- Bug13: widening that declares convergence too early ------------------- *)

(* r7 grows by 3 per trip while r6 certifies 30 trips.  The first
   widening round lifts r7 to a threshold range; pre-fix
   (Bug13_widen_tight_exit) the very next head arrival is pruned as
   converged even though r7 has already escaped the widened bound, so
   the loop exit keeps a too-tight r7 range.  Concretely r7 reaches 90
   — the witness oracle reports the escape.  The fixed widening keeps
   going (to wider thresholds, ultimately to the unknown scalar) and
   nothing escapes. *)
let bug13_prog =
  [ [ Asm.mov64_imm Insn.R6 0l;
      Asm.mov64_imm Insn.R7 0l;
      (* head: *)
      Asm.alu64_imm Insn.Add Insn.R7 3l;
      Asm.alu64_imm Insn.Add Insn.R6 1l;
      Asm.jmp_imm Insn.Jlt Insn.R6 30l (-3) ];
    Asm.ret 0l ]

let bug13_escape (r : Report.t) =
  match r.Report.kind with
  | Report.Witness_escape { wreg; _ } -> wreg = 7
  | _ -> false

let bug13_buggy () =
  let config =
    Kconfig.make Version.Bpf_next
      ~bugs:[ Kconfig.Bug13_widen_tight_exit ] ~witness:true
  in
  let result = load ~config bug13_prog in
  Alcotest.(check bool) "still accepted (that is the bug)" true
    (Result.is_ok result.Loader.verdict);
  Alcotest.(check bool) "tight loop-exit range escapes via r7" true
    (List.exists bug13_escape result.Loader.witness)

let bug13_fixed () =
  let config = Kconfig.make Version.Bpf_next ~bugs:[] ~witness:true in
  let result = load ~config bug13_prog in
  Alcotest.(check bool) "accepted" true
    (Result.is_ok result.Loader.verdict);
  Alcotest.(check (list string)) "no witness escapes after the fix" []
    (List.map Report.to_string result.Loader.witness)

(* Bug13 is a regression demonstrator, not campaign ground truth. *)
let bug13_not_in_corpus () =
  Alcotest.(check bool) "absent from all_bugs" false
    (List.mem Kconfig.Bug13_widen_tight_exit Kconfig.all_bugs);
  List.iter
    (fun v ->
       Alcotest.(check bool)
         (Printf.sprintf "not shipped by %s" (Version.to_string v))
         false
         (Kconfig.bug_in_version v Kconfig.Bug13_widen_tight_exit))
    Version.all

(* -- The generated loopy corpus under the soundness gates ------------------ *)

let has_back_edge (insns : Insn.t array) =
  Array.exists
    (function
      | Insn.Jmp { off; _ } -> off < 0
      | Insn.Ja off -> off < 0
      | _ -> false)
    insns

(* The ISSUE 8 acceptance run: 6000 seeded generator iterations on a
   fixed kernel must produce >= 100 distinct loopy programs the
   verifier accepts, with zero invariant-lint violations and zero
   witness escapes.  Lint and witness both run on every loopy program,
   accepted or not — a rejection is fine, an unsound acceptance is
   not. *)
let loopy_corpus_sound () =
  let config =
    Kconfig.with_lint
      (Kconfig.make Version.Bpf_next ~bugs:[] ~witness:true)
      true
  in
  let session = Loader.create config in
  let gen_config =
    { Gen.c_version = Version.Bpf_next;
      c_maps = Campaign.standard_maps session }
  in
  let rng = Rng.create 8 in
  let cov = Bvf_verifier.Coverage.create () in
  let distinct_accepted = Hashtbl.create 256 in
  let loopy = ref 0 and violations = ref 0 and escapes = ref 0 in
  for _ = 1 to 6000 do
    let req = Gen.generate rng gen_config in
    if has_back_edge req.Verifier.r_insns then begin
      incr loopy;
      let _, _, n = Verifier.lint session.Loader.kst ~cov req in
      violations := !violations + n;
      let result = Loader.load_and_run session req in
      escapes := !escapes + List.length result.Loader.witness;
      if Result.is_ok result.Loader.verdict then
        Hashtbl.replace distinct_accepted
          (Bvf_ebpf.Disasm.prog_to_string req.Verifier.r_insns)
          ()
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf ">= 100 distinct accepted loopy programs (got %d of %d loopy)"
       (Hashtbl.length distinct_accepted) !loopy)
    true
    (Hashtbl.length distinct_accepted >= 100);
  Alcotest.(check int) "zero invariant-lint violations" 0 !violations;
  Alcotest.(check int) "zero witness escapes" 0 !escapes

let () =
  Alcotest.run "bvf_loops"
    [
      ( "widening",
        [ Alcotest.test_case "counted loop accepted via widening" `Quick
            widened_loop_accepted;
          Alcotest.test_case "accepted loop runs clean under witness"
            `Quick widened_loop_runs_clean ] );
      ( "rejection split",
        [ Alcotest.test_case "zero progress still rejected" `Quick
            zero_progress_still_rejected;
          Alcotest.test_case "non-converging loop is loop_unbounded"
            `Quick non_converging_loop_rejected;
          Alcotest.test_case "cmpxchg in an r0 loop is not certified"
            `Quick cmpxchg_loop_not_certified ] );
      ( "Bug13 widening regression",
        [ Alcotest.test_case "pre-fix tight exit escapes (Bug13)" `Quick
            bug13_buggy;
          Alcotest.test_case "fixed widening verifies cleanly" `Quick
            bug13_fixed;
          Alcotest.test_case "Bug13 stays out of the corpus" `Quick
            bug13_not_in_corpus ] );
      ( "loopy corpus",
        [ Alcotest.test_case "6000-iteration soundness gate" `Slow
            loopy_corpus_sound ] );
    ]
