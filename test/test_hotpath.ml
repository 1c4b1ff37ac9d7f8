(* Hot-path regression properties: the perf work on the verifier's
   state and the executor must be behavior-preserving, and the
   narrow-load fix it uncovered must stay fixed.

   - live stack region: every frame operation keeps a frame's buffers
     exactly the live region [base, 512) with [base] word-aligned,
     [states_equal], which only walks [old.base ..], agrees with a full
     512-byte comparison through the byte/slot readers, writing to a
     copy (or widening one) leaves its source unchanged, and copies
     that share buffers never alias: any interleaving of writes on both
     sides reads as if every copy were deep;
   - constant table: [Regstate.const_scalar] gives the record a fresh
     build would, inside and outside the shared table;
   - no forced minor collection: loading, rewriting, executing and
     generating a large program builds its arrays without the stdlib
     builders that empty the minor heap first;
   - narrow-load witness regression: the pre-fix behavior (narrow [Ldx]
     of a constant spill keeping the stale full-width constant) is a
     real abstract/concrete divergence, demonstrated through the
     witness oracle with [Kconfig.Bug12_narrow_load_const];
   - counter-schema guard: the veristat counter schema is frozen by
     committed baselines; internal counters must not leak into it;
   - memoised analyses: a load answered from a memo gives exactly what
     a walked load in a twin session gives, coverage hits included, and
     a memo is not used where the session's maps moved. *)

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
module Coverage = Bvf_verifier.Coverage
module Failslab = Bvf_kernel.Failslab
module Campaign = Bvf_core.Campaign
module Selftests = Bvf_core.Selftests
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

(* The buffers cover exactly [base, stack_bytes), [base] a word. *)
let region_invariant (f : Vstate.frame) : bool =
  let base = f.Vstate.base in
  base >= 0 && base <= Vstate.stack_bytes && base mod 8 = 0
  && Bytes.length f.Vstate.stack = Vstate.stack_bytes - base
  && Array.length f.Vstate.spills = Vstate.spill_slots - (base / 8)

let state_region_invariant (st : Vstate.t) : bool =
  let ok = ref true in
  Vstate.iter_frames st (fun f ->
      if not (region_invariant f) then ok := false);
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
    if not (ref_byte_ok (Vstate.stack_byte o i) (Vstate.stack_byte c i))
    then ok := false
  done;
  for slot = 0 to Vstate.spill_slots - 1 do
    match Vstate.spill o slot, Vstate.spill c slot with
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
       if not (List.for_all state_region_invariant states) then
         QCheck2.Test.fail_report "a frame's buffers are not its live region";
       List.for_all
         (fun (o, c) ->
            Vstate.states_equal ~old:o ~cur:c ~bug3:false = ref_states_equal o c)
         pairs)

(* -- Copies never alias ------------------------------------------------ *)

(* A pool of states built by one script twice: through [Vstate.copy],
   which shares stack buffers, and through a model that deep-copies
   every frame.  Each step reads or extends the pool at indices taken
   modulo its size. *)
type alias_op =
  | A_copy of int
  | A_stack of int * int * stack_op    (* state, frame, op *)
  | A_reg of int * int                 (* state, register 1..9 *)
  | A_map_id of int * int              (* state, id *)
  | A_widen of int * int * bool        (* old, cur, force *)

(* Nullable pointers with ids 1 and 2, so [map_regs_with_id] finds
   spills to rewrite. *)
let nullable (id : int) : Regstate.t =
  Regstate.pointer ~maybe_null:true ~id (Regstate.P_mem 16)

let gen_alias_op : alias_op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = int_range 0 7 in
  frequency
    [ (2, map (fun i -> A_copy i) idx);
      (6, map3 (fun i f op -> A_stack (i, f, op)) idx idx gen_stack_op);
      (2, map3 (fun i r id -> A_stack (i, 0, Write (-8 * r, 8, 3 + id)))
           idx (int_range 1 8) (int_range 1 2));
      (1, map2 (fun i r -> A_reg (i, r)) idx (int_range 1 9));
      (1, map2 (fun i id -> A_map_id (i, id)) idx (int_range 1 2));
      (1, map3 (fun o c f -> A_widen (o, c, f)) idx idx bool) ]

let alias_value (v : int) : Regstate.t =
  if v <= 3 then
    match v with
    | 0 -> Regstate.const_scalar 0L
    | 1 -> Regstate.const_scalar 7L
    | 2 -> Regstate.unknown_scalar
    | _ -> Regstate.fp 0
  else nullable (v - 3)

let deep_frame (f : Vstate.frame) : Vstate.frame =
  { f with Vstate.regs = Array.copy f.Vstate.regs;
           stack = Bytes.copy f.Vstate.stack;
           spills = Array.copy f.Vstate.spills; shared = false }

let deep_copy (st : Vstate.t) : Vstate.t =
  let d = Vstate.copy st in
  for i = 0 to Vstate.frame_count d - 1 do
    d.Vstate.frames.(i) <- deep_frame st.Vstate.frames.(i)
  done;
  d

(* Apply [op] to [pool] (newest last), copying with [copy]. *)
let alias_step ~(copy : Vstate.t -> Vstate.t) (pool : Vstate.t array)
    (op : alias_op) : Vstate.t array =
  let n = Array.length pool in
  let st i = pool.(i mod n) in
  let frame i f = (st i).Vstate.frames.(f mod Vstate.frame_count (st i)) in
  match op with
  | A_copy i -> Array.append pool [| copy (st i) |]
  | A_stack (i, f, Write (off, size, v)) ->
    Vstate.stack_write (frame i f) ~off ~size (alias_value v);
    pool
  | A_stack (i, f, Mark (off, size)) ->
    Vstate.stack_mark_written (frame i f) ~off ~size;
    pool
  | A_reg (i, r) ->
    Vstate.set_reg (st i)
      (Option.get (Insn.reg_of_int r))
      (Regstate.const_scalar 3L);
    pool
  | A_map_id (i, id) ->
    Vstate.map_regs_with_id (st i) ~id (fun r ->
        match r.Regstate.kind with
        | Regstate.Ptr p ->
          { r with Regstate.kind = Regstate.Ptr { p with maybe_null = false } }
        | _ -> r);
    pool
  | A_widen (o, c, force) -> (
      match
        Vstate.widen_state ~th:Regstate.no_thresholds ~force ~old:(st o)
          ~cur:(st c)
      with
      | Some w -> Array.append pool [| copy w |]
      | None -> pool)

(* Byte for byte through the readers, registers and spills by value. *)
let same_through_readers (a : Vstate.t) (b : Vstate.t) : bool =
  Vstate.frame_count a = Vstate.frame_count b
  && (let ok = ref true in
      for i = 0 to Vstate.frame_count a - 1 do
        let fa = a.Vstate.frames.(i) and fb = b.Vstate.frames.(i) in
        if fa.Vstate.regs <> fb.Vstate.regs then ok := false;
        for j = 0 to Vstate.stack_bytes - 1 do
          if Vstate.stack_byte fa j <> Vstate.stack_byte fb j then ok := false
        done;
        for slot = 0 to Vstate.spill_slots - 1 do
          if Vstate.spill fa slot <> Vstate.spill fb slot then ok := false
        done
      done;
      !ok)

let copies_never_alias =
  QCheck2.Test.make ~count:1000 ~name:"copies never alias"
    QCheck2.Gen.(pair (int_range 1 2) (list_size (int_range 1 40) gen_alias_op))
    (fun (frames, ops) ->
       let start () =
         let st = Vstate.initial ~ctx:Regstate.ctx_pointer in
         if frames = 2 then
           Vstate.push_top_frame st (Vstate.new_frame ~frameno:1 ~callsite:5);
         [| st |]
       in
       let shared = List.fold_left (alias_step ~copy:Vstate.copy) (start ()) ops
       and model = List.fold_left (alias_step ~copy:deep_copy) (start ()) ops in
       Array.length shared = Array.length model
       && Array.for_all2
            (fun s m ->
               state_region_invariant s
               && Vstate.states_equal ~old:s ~cur:m ~bug3:false
               && Vstate.states_equal ~old:m ~cur:s ~bug3:false
               && same_through_readers s m)
            shared model)

(* -- Constant table ---------------------------------------------------- *)

let const_table () =
  List.iter
    (fun v ->
       let fresh =
         { Regstate.kind = Regstate.Scalar; off = 0;
           var_off = Bvf_verifier.Tnum.const v; smin = v; smax = v; umin = v;
           umax = v; range = 0; precise = false; from_kfunc = false }
       in
       if Regstate.const_scalar v <> fresh then
         Alcotest.failf "const_scalar %Ld differs from a fresh record" v)
    [ -513L; -512L; 511L; 512L; 0L; Int64.min_int ];
  Alcotest.(check bool) "a small constant is one shared record" true
    (Regstate.const_scalar 7L == Regstate.const_scalar 7L)

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

(* -- Memoised analyses ------------------------------------------------------- *)

(* Everything a load reports, timings aside. *)
let check_same_run (what : string) (r : Loader.run_result)
    (w : Loader.run_result) : unit =
  let check name ok =
    if not ok then Alcotest.failf "%s: %s differs" what name
  in
  (match r.Loader.verdict, w.Loader.verdict with
   | Ok p, Ok q ->
     check "prog id" (p.Verifier.l_id = q.Verifier.l_id);
     check "l_insns"
       (Array.length p.Verifier.l_insns = Array.length q.Verifier.l_insns
        && Array.for_all2 Insn.equal p.Verifier.l_insns q.Verifier.l_insns);
     check "l_aux" (p.Verifier.l_aux = q.Verifier.l_aux);
     check "l_log" (p.Verifier.l_log = q.Verifier.l_log);
     check "l_insn_processed"
       (p.Verifier.l_insn_processed = q.Verifier.l_insn_processed);
     check "l_lint" (p.Verifier.l_lint = q.Verifier.l_lint);
     check "l_lint_count" (p.Verifier.l_lint_count = q.Verifier.l_lint_count);
     check "l_vstats"
       (Vstats.trace_counters p.Verifier.l_vstats
        = Vstats.trace_counters q.Verifier.l_vstats);
     check "l_attach"
       (p.Verifier.l_attach = q.Verifier.l_attach
        && p.Verifier.l_offload = q.Verifier.l_offload
        && p.Verifier.l_orig_len = q.Verifier.l_orig_len)
   | Error e, Error f -> check "rejection" (e = f)
   | Ok _, Error _ | Error _, Ok _ -> check "verdict" false);
  check "log" (r.Loader.vlog = w.Loader.vlog);
  check "vstats"
    (Option.map Vstats.trace_counters r.Loader.vstats
     = Option.map Vstats.trace_counters w.Loader.vstats);
  check "status" (r.Loader.status = w.Loader.status);
  check "insns executed" (r.Loader.insns_executed = w.Loader.insns_executed);
  check "reports" (r.Loader.reports = w.Loader.reports);
  check "witness" (r.Loader.witness = w.Loader.witness)

let check_same_cov (what : string) (a : Coverage.t) (b : Coverage.t) : unit =
  if Coverage.named_edges a <> Coverage.named_edges b then
    Alcotest.failf "%s: coverage hits differ" what

let memo_of (session : Loader.t) (recorder : Coverage.recorder)
    (origin : Verifier.origin) : Verifier.memo option =
  match origin with
  | Verifier.Walked a ->
    Some
      (Verifier.memo session.Loader.kst ~cov:session.Loader.cov recorder a)
  | Verifier.Refused | Verifier.Replayed -> None

(* [req_a] in session [a] through the memo path: walked once, then
   twice from the memo of that walk; [req_b] walked three times in the
   twin session [b].  Each load must match its twin, and both memo
   loads must be answered from the memo. *)
let memo_matches_walk (what : string) ~(recorder : Coverage.recorder)
    (a, req_a) (b, req_b) : unit =
  let r, origin = Loader.load_and_run_memo a ~recorder None req_a in
  check_same_run (what ^ ", walked") r (Loader.load_and_run b req_b);
  (match memo_of a recorder origin with
   | None -> ()
   | Some memo ->
     for k = 1 to 2 do
       let r, origin = Loader.load_and_run_memo a ~recorder (Some memo) req_a in
       if origin <> Verifier.Replayed then
         Alcotest.failf "%s: load %d not answered from the memo" what k;
       check_same_run (Printf.sprintf "%s, memo load %d" what k) r
         (Loader.load_and_run b req_b)
     done);
  check_same_cov what a.Loader.cov b.Loader.cov

let memo_configs : (string * Kconfig.t) list =
  let v = Version.Bpf_next in
  [ ("default", Kconfig.default v); ("fixed", Kconfig.fixed v);
    ("lint", Kconfig.with_lint (Kconfig.default v) true);
    ("witness", Kconfig.with_witness (Kconfig.default v) true) ]

(* Twin sessions under [config], each set up by [setup]. *)
let twins (config : Kconfig.t) (setup : Loader.t -> 'a) :
  (Loader.t * 'a) * (Loader.t * 'a) =
  let make () =
    let s = Loader.create config in
    (s, setup s)
  in
  let a = make () in
  (a, make ())

let memo_equivalence (name, config) () =
  let recorder = Coverage.recorder () in
  (* self-tests, against the self-test maps *)
  let suite = Selftests.build ~count:120 Version.Bpf_next in
  let (a, _), (b, _) = twins config Selftests.install_maps in
  List.iteri
    (fun i req ->
       memo_matches_walk (Printf.sprintf "%s selftest %d" name i) ~recorder
         (a, req) (b, req))
    suite.Selftests.requests;
  (* generator programs, against a campaign's maps *)
  let (a, maps), (b, _) = twins config Campaign.standard_maps in
  let cfg = { Gen.c_version = Version.Bpf_next; c_maps = maps } in
  let rng = Rng.create 7 in
  for i = 1 to 120 do
    let req = Gen.generate rng cfg in
    memo_matches_walk (Printf.sprintf "%s generated %d" name i) ~recorder
      (a, req) (b, req)
  done;
  (* the injected-bug reproducers, each in fresh twins *)
  List.iter
    (fun (r : Repros.t) ->
       let a, b = twins config (fun s -> Repros.request r s) in
       memo_matches_walk
         (Printf.sprintf "%s %s" name (Kconfig.bug_to_string r.Repros.bug))
         ~recorder a b)
    (Repros.table2 @ [ Repros.cve ])

(* A memo is checked against the session at every load: after a reboot
   whose failslab plan lost a map the repeat is walked afresh, and after
   a later reboot with every map back the same memo answers again — the
   sequence a campaign's retry that reboots puts one memo through. *)
let memo_after_reboot () =
  let config = Kconfig.default Version.Bpf_next in
  let recorder = Coverage.recorder () in
  let a = Loader.create config in
  let maps = Campaign.standard_maps a in
  let cfg = { Gen.c_version = Version.Bpf_next; c_maps = maps } in
  (* a generated program that reads a map and reaches the analysis *)
  let uses_map (req : Verifier.request) =
    Array.exists
      (function Insn.Ld_imm64 (_, Insn.Map_fd _) -> true | _ -> false)
      req.Verifier.r_insns
  in
  let rng = Rng.create 11 in
  let rec pick () =
    let req = Gen.generate rng cfg in
    if not (uses_map req) then pick ()
    else
      match Loader.load_and_run_memo a ~recorder None req with
      | _, (Verifier.Walked _ as origin) -> (req, origin)
      | _, (Verifier.Refused | Verifier.Replayed) -> pick ()
  in
  let req, origin = pick () in
  let memo = Option.get (memo_of a recorder origin) in
  let cov = a.Loader.cov in
  (* a twin walk of [req] in a session built like [boot] *)
  let walked boot =
    let s = boot (Coverage.create ()) in
    Loader.load_and_run s req
  in
  let dropped = ref 0 in
  for seed = 1 to 200 do
    let boot cov =
      let s =
        Loader.create ~cov ~failslab:(Failslab.create ~seed ~rate:0.5 ())
          config
      in
      (s, Campaign.standard_maps s)
    in
    let s, maps = boot cov in
    if List.length maps < 4 then begin
      let r, origin = Loader.load_and_run_memo s ~recorder (Some memo) req in
      (match origin with
       | Verifier.Replayed ->
         Alcotest.failf "seed %d: memo answered a session missing a map" seed
       | Verifier.Walked _ -> incr dropped
       | Verifier.Refused -> ());
      check_same_run (Printf.sprintf "failslab seed %d" seed) r
        (walked (fun cov -> fst (boot cov)));
      (* reboot with every map: the same memo answers again *)
      let s = Loader.create ~cov config in
      ignore (Campaign.standard_maps s : (int * Bvf_kernel.Map.def) list);
      let r, origin = Loader.load_and_run_memo s ~recorder (Some memo) req in
      Alcotest.(check bool) "memo answers after the next reboot" true
        (origin = Verifier.Replayed);
      check_same_run "full reboot" r
        (walked (fun cov ->
             let s = Loader.create ~cov config in
             ignore (Campaign.standard_maps s : (int * Bvf_kernel.Map.def) list);
             s))
    end
  done;
  Alcotest.(check bool) "a repeat after a reboot that lost a map is walked"
    true (!dropped > 0);
  (* a memo belongs to the map it was recorded in *)
  let s = Loader.create config in
  ignore (Campaign.standard_maps s : (int * Bvf_kernel.Map.def) list);
  let _, origin = Loader.load_and_run_memo s ~recorder (Some memo) req in
  Alcotest.(check bool) "no memo answer in another coverage map" false
    (origin = Verifier.Replayed)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_hotpath"
    [
      ("live stack region", [ qt stack_lo_exact; qt copies_never_alias ]);
      ( "constant table",
        [ Alcotest.test_case "const_scalar equals a fresh record" `Quick
            const_table ] );
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
      ( "memoised analysis",
        List.map
          (fun ((name, _) as c) ->
             Alcotest.test_case ("memo load equals walk, " ^ name) `Quick
               (memo_equivalence c))
          memo_configs
        @ [ Alcotest.test_case "reboot checks the memo again" `Quick
              memo_after_reboot ] );
    ]
