(* Hot-path regression properties: the perf work on the verifier's
   state and the executor must be behavior-preserving, and the
   narrow-load fix it uncovered must stay fixed.

   - live stack region: every frame operation keeps [Vstate.frame.lo]
     a sound bound (nothing written below it), [states_equal], which
     only walks [old.lo ..], agrees with a full 512-byte comparison,
     and writing to a copy (or widening one) leaves its source
     unchanged;
   - no forced minor collection: loading, rewriting, executing and
     generating a large program builds its arrays without the stdlib
     builders that empty the minor heap first;
   - narrow-load witness regression: the pre-fix behavior (narrow [Ldx]
     of a constant spill keeping the stale full-width constant) is a
     real abstract/concrete divergence, demonstrated through the
     witness oracle with [Kconfig.Bug12_narrow_load_const];
   - counter-schema guard: the veristat counter schema is frozen by
     committed baselines; internal counters must not leak into it. *)

module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Report = Bvf_kernel.Report
module Regstate = Bvf_verifier.Regstate
module Vstate = Bvf_verifier.Vstate
module Vstats = Bvf_verifier.Vstats
module Verifier = Bvf_verifier.Verifier
module Loader = Bvf_runtime.Loader
module Campaign = Bvf_core.Campaign
module Gen = Bvf_core.Gen
module Rng = Bvf_core.Rng

(* -- Live stack region ----------------------------------------------------- *)

(* One stack operation: a store of [size] bytes at fp+[off] with a value
   of kind [v] (0: zero, 1: other constant, 2: unknown scalar, 3: stack
   pointer), or a helper-style mark-written. *)
type stack_op = Write of int * int * int | Mark of int * int

let gen_stack_op : stack_op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* size = oneofl [ 1; 2; 4; 8 ] in
  (* mostly near the frame top, as real programs are *)
  let* slot = oneof [ int_range 56 63; int_range 0 63 ] in
  let* delta = int_range 0 (8 - size) in
  let off = -Vstate.stack_bytes + (slot * 8) + delta in
  oneof
    [ map (fun v -> Write (off, size, v)) (int_range 0 3);
      return (Mark (off, size)) ]

let apply_op (f : Vstate.frame) (op : stack_op) : unit =
  match op with
  | Write (off, size, v) ->
    let stored =
      match v with
      | 0 -> Regstate.const_scalar 0L
      | 1 -> Regstate.const_scalar 7L
      | 2 -> Regstate.unknown_scalar
      | _ -> Regstate.fp 0
    in
    Vstate.stack_write f ~off ~size stored
  | Mark (off, size) -> Vstate.stack_mark_written f ~off ~size

(* [ops.(i)] goes to frame [i mod nframes]. *)
let apply_ops (st : Vstate.t) (ops : stack_op list) : unit =
  List.iteri
    (fun i op ->
       apply_op st.Vstate.frames.(i mod Vstate.frame_count st) op)
    ops

let lo_invariant (f : Vstate.frame) : bool =
  let ok = ref (f.Vstate.lo >= 0 && f.Vstate.lo <= Vstate.stack_bytes) in
  for i = 0 to f.Vstate.lo - 1 do
    if Bytes.get f.Vstate.stack i <> Vstate.b_invalid then ok := false
  done;
  for slot = 0 to (f.Vstate.lo / 8) - 1 do
    if f.Vstate.spills.(slot) <> None then ok := false
  done;
  !ok

let state_lo_invariant (st : Vstate.t) : bool =
  let ok = ref true in
  Vstate.iter_frames st (fun f -> if not (lo_invariant f) then ok := false);
  !ok

(* Reference subsumption: the whole-stack walk [states_equal] did before
   the live region existed. *)
let ref_byte_ok o c =
  if o = Vstate.b_invalid then true
  else if o = Vstate.b_misc then c <> Vstate.b_invalid
  else o = c

let ref_frame_within (o : Vstate.frame) (c : Vstate.frame) : bool =
  let ok = ref (o.Vstate.callsite = c.Vstate.callsite) in
  for i = 0 to 10 do
    if
      not
        (Regstate.reg_within ~old:o.Vstate.regs.(i) ~cur:c.Vstate.regs.(i)
           ~bug3:false)
    then ok := false
  done;
  for i = 0 to Vstate.stack_bytes - 1 do
    if not (ref_byte_ok (Bytes.get o.Vstate.stack i) (Bytes.get c.Vstate.stack i))
    then ok := false
  done;
  for slot = 0 to Vstate.spill_slots - 1 do
    match o.Vstate.spills.(slot), c.Vstate.spills.(slot) with
    | None, _ -> ()
    | Some r, Some r' ->
      if not (Regstate.reg_within ~old:r ~cur:r' ~bug3:false) then ok := false
    | Some r, None ->
      if not (Regstate.is_scalar r && not r.Regstate.precise) then ok := false
  done;
  !ok

let ref_states_equal (o : Vstate.t) (c : Vstate.t) : bool =
  Vstate.frame_count o = Vstate.frame_count c
  && o.Vstate.active_lock = c.Vstate.active_lock
  && List.length o.Vstate.refs = List.length c.Vstate.refs
  && (let ok = ref true in
      for i = 0 to Vstate.frame_count o - 1 do
        if not (ref_frame_within o.Vstate.frames.(i) c.Vstate.frames.(i))
        then ok := false
      done;
      !ok)

let gen_stack_case =
  let open QCheck2.Gen in
  let ops n = list_size (int_range 0 n) gen_stack_op in
  tup4 (int_range 1 2) (ops 24) (ops 6) (ops 6)

(* Mutual subsumption under the reference walk: the two states agree. *)
let same (a : Vstate.t) (b : Vstate.t) : bool =
  ref_states_equal a b && ref_states_equal b a

let stack_lo_exact =
  QCheck2.Test.make ~count:1000
    ~name:"live stack region is a sound bound and pruning stays exact"
    gen_stack_case
    (fun (frames, base_ops, old_ops, cur_ops) ->
       let build ops =
         let st = Vstate.initial ~ctx:Regstate.ctx_pointer in
         if frames = 2 then
           Vstate.push_top_frame st (Vstate.new_frame ~frameno:1 ~callsite:5);
         List.iter (apply_ops st) ops;
         st
       in
       let base = build [ base_ops ] in
       let old = Vstate.copy base in
       apply_ops old old_ops;
       let cur = Vstate.copy base in
       apply_ops cur cur_ops;
       (* a copy shares no mutable storage with its source: the
          references are built afresh, not copied *)
       if not (same base (build [ base_ops ])) then
         QCheck2.Test.fail_report "writing to a copy changed its source";
       let widened =
         Vstate.widen_state ~th:Regstate.no_thresholds ~force:true ~old ~cur
       in
       if
         not
           (same old (build [ base_ops; old_ops ])
            && same cur (build [ base_ops; cur_ops ]))
       then QCheck2.Test.fail_report "widening changed one of its inputs";
       let states = [ base; old; cur ] @ Option.to_list widened in
       let pairs =
         [ (old, cur); (cur, old); (base, cur); (cur, base) ]
         @ (match widened with
             | Some w -> [ (w, old); (w, cur); (old, w) ]
             | None -> [])
       in
       if not (List.for_all state_lo_invariant states) then
         QCheck2.Test.fail_report "a state breaks the lo invariant";
       List.for_all
         (fun (o, c) ->
            Vstate.states_equal ~old:o ~cur:c ~bug3:false = ref_states_equal o c)
         pairs)

(* -- No forced minor collection -------------------------------------------- *)

(* Eighty copies of a block that every rewrite pass touches: a sanitized
   context load, a division Fixup guards, an ld_imm64 Fixup resolves, a
   decided branch and a stack store; 642 instructions in all. *)
let big_prog =
  let block =
    [ Asm.mov64_imm Insn.R0 1l;
      Asm.ldx_dw Insn.R2 Insn.R6 0;
      Asm.mov64_imm Insn.R3 7l;
      Asm.alu64_reg Insn.Div Insn.R0 Insn.R3;
      Asm.ld_imm64 Insn.R4 0x1234L;
      Asm.jmp_imm Insn.Jgt Insn.R0 5l 1;
      Asm.mov64_imm Insn.R0 2l;
      Asm.stx_dw Insn.R10 Insn.R0 (-8) ]
  in
  Asm.prog
    ([ [ Asm.mov64_reg Insn.R6 Insn.R1 ] ]
     @ List.init 80 (fun _ -> block)
     @ [ Asm.ret 0l ])

(* First generator seed whose first program is a large one. *)
let big_gen_seed (cfg : Gen.config) : int =
  let rec go seed =
    let req = Gen.generate (Rng.create seed) cfg in
    if Array.length req.Verifier.r_insns >= 500 then seed else go (seed + 1)
  in
  go 1

let no_forced_minor () =
  if (Gc.get ()).Gc.minor_heap_size < 262144 then
    Printf.printf "minor heap below 256k words: skipped\n"
  else begin
    let config = Kconfig.default Version.Bpf_next in
    let session = Loader.create config in
    let cfg =
      { Gen.c_version = Version.Bpf_next;
        c_maps = Campaign.standard_maps session }
    in
    let seed = big_gen_seed cfg in
    let req =
      { Verifier.r_prog_type = Prog.Kprobe; r_attach = None;
        r_offload = false; r_insns = big_prog }
    in
    (* A full major collection, not just a minor one: OCaml 5 empties the
       minor heap whenever a major cycle ends, and where the current
       cycle stands depends on everything the process ran before.
       Starting from a fresh cycle keeps that end out of the window, so
       only a collection the code under test forces is counted. *)
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    let result = Loader.load_and_run session req in
    let generated = Gen.generate (Rng.create seed) cfg in
    let after = (Gc.quick_stat ()).Gc.minor_collections in
    (match result.Loader.verdict with
     | Ok l ->
       (* Fixup's three-insn division guard and the sanitizer's five-insn
          load guard, once per block *)
       Alcotest.(check int) "both rewrite passes inserted code"
         (Array.length big_prog + (80 * (3 + 5)))
         (Array.length l.Verifier.l_insns)
     | Error e -> Alcotest.fail ("big program rejected: " ^ e.Bvf_verifier.Venv.vmsg));
    Alcotest.(check bool) "big program executed" true
      (result.Loader.status <> None);
    Alcotest.(check bool) "generated a large program" true
      (Array.length generated.Verifier.r_insns >= 500);
    Alcotest.(check int) "minor collections during load, run and generate"
      before after
  end

(* -- Narrow-load witness regression --------------------------------------- *)

(* r2 = 0x101; spill it; narrow-reload the low byte.  Pre-fix the
   verifier kept the full 0x101 as r1's constant while the concrete
   little-endian load yields 0x01 — a divergence the witness oracle
   reports as an escape.  The fixed verifier truncates and nothing
   escapes. *)
let narrow_load_prog =
  Asm.prog
    [ [ Asm.mov64_imm Insn.R2 0x101l;
        Asm.stx_dw Insn.R10 Insn.R2 (-8);
        Asm.ldx_b Insn.R1 Insn.R10 (-8) ];
      Asm.ret 0l ]

let narrow_load_run config =
  let session = Loader.create config in
  let req =
    { Verifier.r_prog_type = Prog.Kprobe; r_attach = None;
      r_offload = false; r_insns = narrow_load_prog }
  in
  let result = Loader.load_and_run session req in
  (match result.Loader.verdict with
   | Error e ->
     Alcotest.fail
       (Printf.sprintf "narrow-load program rejected: %s"
          e.Bvf_verifier.Venv.vmsg)
   | Ok _ -> ());
  result

let narrow_load_escape (r : Report.t) =
  match r.Report.kind with
  | Report.Witness_escape { wreg; wvalue; _ } -> wreg = 1 && wvalue = 1L
  | _ -> false

let narrow_load_buggy () =
  let config =
    Kconfig.make Version.Bpf_next
      ~bugs:[ Kconfig.Bug12_narrow_load_const ] ~witness:true
  in
  let result = narrow_load_run config in
  Alcotest.(check bool) "stale constant escapes through the witness" true
    (List.exists narrow_load_escape result.Loader.witness)

let narrow_load_fixed () =
  let config = Kconfig.make Version.Bpf_next ~bugs:[] ~witness:true in
  let result = narrow_load_run config in
  Alcotest.(check (list string)) "no witness escapes after the fix" []
    (List.map Report.to_string result.Loader.witness)

(* Bug12 is a regression demonstrator, not campaign ground truth: it
   must stay out of the corpus and out of every version's bug set. *)
let narrow_load_not_in_corpus () =
  Alcotest.(check bool) "absent from all_bugs" false
    (List.mem Kconfig.Bug12_narrow_load_const Kconfig.all_bugs);
  List.iter
    (fun v ->
       Alcotest.(check bool)
         (Printf.sprintf "not shipped by %s" (Version.to_string v))
         false
         (Kconfig.bug_in_version v Kconfig.Bug12_narrow_load_const))
    Version.all

(* -- Counter-schema guard ------------------------------------------------- *)

(* The schema is frozen by the committed veristat baseline; internal
   diagnostics (the prune-filter skip counter) and the loop-widening
   counters must not leak into it. *)
let counter_schema () =
  Alcotest.(check (list string)) "veristat counter schema"
    [ "insn_processed"; "total_states"; "peak_states";
      "max_states_per_insn"; "prune_hits"; "prune_misses";
      "loops_detected"; "branch_hwm" ]
    Vstats.counter_names;
  (* widen_rounds / loop_heads postdate the frozen schema: they ride in
     the telemetry trace and the campaign aggregate, never in the
     canonical counter list a committed baseline would parse.  And
     loops_detected keeps its historical meaning — zero-progress
     infinite-loop rejections — so a widening loop that converges must
     leave it untouched. *)
  List.iter
    (fun name ->
       Alcotest.(check bool)
         (Printf.sprintf "%s outside the frozen schema" name)
         false
         (List.mem name Vstats.counter_names))
    [ "widen_rounds"; "loop_heads" ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_hotpath"
    [
      ("live stack region", [ qt stack_lo_exact ]);
      ( "minor heap",
        [ Alcotest.test_case "no forced minor collection per program" `Quick
            no_forced_minor ] );
      ( "narrow-load regression",
        [ Alcotest.test_case "pre-fix behavior diverges (Bug12)" `Quick
            narrow_load_buggy;
          Alcotest.test_case "fixed verifier truncates" `Quick
            narrow_load_fixed;
          Alcotest.test_case "Bug12 stays out of the corpus" `Quick
            narrow_load_not_in_corpus ] );
      ("veristat schema", [ Alcotest.test_case "frozen" `Quick counter_schema ]);
    ]
