(* Runtime tests: concrete interpreter semantics (checked against the
   eBPF specification with property tests), the load-and-run pipeline,
   sanitizer behaviour at runtime, helper execution and event dispatch. *)

module Word = Bvf_ebpf.Word
module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Helper = Bvf_ebpf.Helper
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Map = Bvf_kernel.Map
module Verifier = Bvf_verifier.Verifier
module Loader = Bvf_runtime.Loader
module Exec = Bvf_runtime.Exec

let fixed = Kconfig.fixed Version.Bpf_next

(* Run a register-only program (exit appended) and return R0. *)
let run_prog ?(prog_type = Prog.Kprobe) (body : Insn.t list) : int64 =
  let session = Loader.create fixed in
  let insns = Asm.prog [ body; [ Asm.exit_ ] ] in
  match Loader.load_and_run session (Verifier.request prog_type insns) with
  | { Loader.verdict = Error e; _ } ->
    Alcotest.fail
      (Printf.sprintf "unexpected reject: %s" e.Bvf_verifier.Venv.vmsg)
  | { Loader.status = Some (Exec.Finished v); _ } -> v
  | { Loader.status = Some Exec.Aborted; reports; _ } ->
    Alcotest.fail
      (Printf.sprintf "aborted: %s"
         (String.concat "; " (List.map Bvf_kernel.Report.to_string reports)))
  | { Loader.status = Some (Exec.Error m); _ } -> Alcotest.fail m
  | { Loader.status = None; _ } -> Alcotest.fail "not executed"

(* -- ALU semantics --------------------------------------------------------- *)

let alu_ops =
  [ (Insn.Add, Int64.add); (Insn.Sub, Int64.sub); (Insn.Mul, Int64.mul);
    (Insn.Div, Word.udiv); (Insn.Mod, Word.umod);
    (Insn.Or, Int64.logor); (Insn.And, Int64.logand);
    (Insn.Xor, Int64.logxor); (Insn.Lsh, Word.shl64);
    (Insn.Rsh, Word.shr64); (Insn.Arsh, Word.ashr64) ]

let alu64_semantics =
  QCheck2.Test.make ~count:200 ~name:"alu64 matches spec"
    QCheck2.Gen.(triple (int_range 0 10) int64 int64)
    (fun (opi, a, b) ->
       let op, concrete = List.nth alu_ops opi in
       let expected = concrete a b in
       let got =
         run_prog
           [ Asm.ld_imm64 Insn.R1 a;
             Asm.ld_imm64 Insn.R2 b;
             Asm.mov64_reg Insn.R0 Insn.R1;
             Asm.alu64_reg op Insn.R0 Insn.R2 ]
       in
       got = expected)

let alu32_semantics =
  QCheck2.Test.make ~count:200 ~name:"alu32 zero-extends"
    QCheck2.Gen.(triple (int_range 0 10) int64 int64)
    (fun (opi, a, b) ->
       let op, _ = List.nth alu_ops opi in
       let got =
         run_prog
           [ Asm.ld_imm64 Insn.R1 a;
             Asm.ld_imm64 Insn.R2 b;
             Asm.mov64_reg Insn.R0 Insn.R1;
             Asm.alu32_reg op Insn.R0 Insn.R2 ]
       in
       Word.to_u32 got = got)

let test_div_by_zero () =
  Alcotest.(check int64) "div64 by 0" 0L
    (run_prog
       [ Asm.mov64_imm Insn.R0 7l; Asm.mov64_imm Insn.R1 0l;
         Asm.alu64_reg Insn.Div Insn.R0 Insn.R1 ]);
  Alcotest.(check int64) "mod64 by 0 keeps dividend" 7L
    (run_prog
       [ Asm.mov64_imm Insn.R0 7l; Asm.mov64_imm Insn.R1 0l;
         Asm.alu64_reg Insn.Mod Insn.R0 Insn.R1 ]);
  Alcotest.(check int64) "mod32 by 0 zero-extends" 7L
    (run_prog
       [ Asm.ld_imm64 Insn.R0 0xFF_0000_0007L; Asm.mov64_imm Insn.R1 0l;
         Asm.alu32_reg Insn.Mod Insn.R0 Insn.R1 ])

let test_endian () =
  Alcotest.(check int64) "bswap16" 0x3412L
    (run_prog
       [ Asm.ld_imm64 Insn.R0 0x1234L;
         Insn.Endian { swap = true; bits = 16; dst = Insn.R0 } ]);
  Alcotest.(check int64) "le truncates" 0x5678L
    (run_prog
       [ Asm.ld_imm64 Insn.R0 0x12345678L;
         Insn.Endian { swap = false; bits = 16; dst = Insn.R0 } ])

(* -- Memory and control flow ------------------------------------------------ *)

let test_stack_roundtrip () =
  Alcotest.(check int64) "store/load" 99L
    (run_prog
       [ Asm.st_dw Insn.R10 (-8) 99l; Asm.ldx_dw Insn.R0 Insn.R10 (-8) ])

let test_branching () =
  Alcotest.(check int64) "taken" 1L
    (run_prog
       [ Asm.mov64_imm Insn.R1 5l;
         Asm.mov64_imm Insn.R0 0l;
         Asm.jmp_imm Insn.Jgt Insn.R1 3l 1;
         Asm.exit_;
         Asm.mov64_imm Insn.R0 1l ]);
  Alcotest.(check int64) "loop sums 0..4" 10L
    (run_prog
       [ Asm.mov64_imm Insn.R0 0l;
         Asm.mov64_imm Insn.R1 0l;
         Asm.alu64_reg Insn.Add Insn.R0 Insn.R1;
         Asm.alu64_imm Insn.Add Insn.R1 1l;
         Asm.jmp_imm Insn.Jlt Insn.R1 5l (-3) ])

let test_bpf2bpf_call () =
  (* 0: r1=6  1: call sub  2: ja exit  3: r0=r1  4: r0*=2  5: exit *)
  Alcotest.(check int64) "subprogram result" 12L
    (run_prog
       [ Asm.mov64_imm Insn.R1 6l;
         Asm.call_local 1;
         Asm.ja 2;
         Asm.mov64_reg Insn.R0 Insn.R1;
         Asm.alu64_imm Insn.Mul Insn.R0 2l ])

let test_callee_saved_preserved () =
  (* 0: r6=7  1: r1=0  2: call sub(5)  3: r0=r6  4: ja exit
     5: r6=99  6: r0=0  7: exit (shared) *)
  Alcotest.(check int64) "r6 survives the call" 7L
    (run_prog
       [ Asm.mov64_imm Insn.R6 7l;
         Asm.mov64_imm Insn.R1 0l;
         Asm.call_local 2;
         Asm.mov64_reg Insn.R0 Insn.R6;
         Asm.ja 2;
         Asm.mov64_imm Insn.R6 99l;
         Asm.mov64_imm Insn.R0 0l ])

let test_map_roundtrip_runtime () =
  let session = Loader.create fixed in
  let fd = Loader.create_map session (Map.hash_def ()) in
  let insns =
    Asm.prog
      [ [ Asm.st_dw Insn.R10 (-8) 1l; Asm.st_dw Insn.R10 (-56) 77l ];
        List.init 5 (fun i -> Asm.st_dw Insn.R10 (-48 + (8 * i)) 0l);
        [ Asm.ld_map_fd Insn.R1 fd;
          Asm.mov64_reg Insn.R2 Insn.R10;
          Asm.alu64_imm Insn.Add Insn.R2 (-8l);
          Asm.mov64_reg Insn.R3 Insn.R10;
          Asm.alu64_imm Insn.Add Insn.R3 (-56l);
          Asm.mov64_imm Insn.R4 0l;
          Asm.call Helper.map_update_elem.Helper.id;
          Asm.ld_map_fd Insn.R1 fd;
          Asm.mov64_reg Insn.R2 Insn.R10;
          Asm.alu64_imm Insn.Add Insn.R2 (-8l);
          Asm.call Helper.map_lookup_elem.Helper.id;
          Asm.jmp_imm Insn.Jne Insn.R0 0l 2;
          Asm.mov64_imm Insn.R0 0l;
          Asm.exit_;
          Asm.ldx_dw Insn.R0 Insn.R0 0;
          Asm.exit_ ] ]
  in
  match
    Loader.load_and_run session (Verifier.request Prog.Kprobe insns)
  with
  | { Loader.status = Some (Exec.Finished v); _ } ->
    Alcotest.(check int64) "read back" 77L v
  | { Loader.verdict = Error e; _ } ->
    Alcotest.fail e.Bvf_verifier.Venv.vmsg
  | _ -> Alcotest.fail "execution failed"

(* -- Sanitizer runtime behaviour -------------------------------------------- *)

let test_sanitize_preserves_semantics =
  QCheck2.Test.make ~count:120 ~name:"sanitation preserves results"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
       let rng = Bvf_core.Rng.create seed in
       let session_plain =
         Loader.create (Kconfig.with_sanitize fixed false)
       in
       let session_asan =
         Loader.create (Kconfig.with_sanitize fixed true)
       in
       let maps s =
         [ (Loader.create_map s (Map.array_def ()), Map.array_def ());
           (Loader.create_map s (Map.hash_def ()), Map.hash_def ()) ]
       in
       let m1 = maps session_plain in
       let _ = maps session_asan in
       let cfg =
         { Bvf_core.Gen.c_version = Version.Bpf_next;
           Bvf_core.Gen.c_maps = m1 }
       in
       let req = Bvf_core.Gen.generate rng cfg in
       let req =
         { req with Verifier.r_attach = None; r_offload = false }
       in
       match
         ( Loader.load_and_run session_plain req,
           Loader.load_and_run session_asan req )
       with
       | { Loader.verdict = Ok _; status = Some (Exec.Finished a); _ },
         { Loader.verdict = Ok _; status = Some (Exec.Finished b); _ } ->
         a = b
       | _ -> true (* rejected or aborted in both: fine *))

let test_sanitizer_catches_planted_oob () =
  let config =
    Kconfig.make Version.Bpf_next ~bugs:[ Kconfig.Bug2_btf_size_check ]
  in
  let session = Loader.create config in
  let insns =
    Asm.prog
      [ [ Asm.ld_btf_obj Insn.R6 1;
          Asm.ldx_dw Insn.R0 Insn.R6 280 (* past the 256-byte object *) ];
        Asm.ret 0l ]
  in
  match
    Loader.load_and_run session (Verifier.request Prog.Kprobe insns)
  with
  | { Loader.verdict = Ok _; status = Some Exec.Aborted; reports; _ } ->
    Alcotest.(check bool) "sanitizer report" true
      (List.exists
         (fun r ->
            r.Bvf_kernel.Report.origin = Bvf_kernel.Report.Sanitizer)
         reports)
  | { Loader.verdict = Error e; _ } ->
    Alcotest.fail ("rejected: " ^ e.Bvf_verifier.Venv.vmsg)
  | _ -> Alcotest.fail "fault not caught"

let test_sanitize_off_misses_oob () =
  let config =
    Kconfig.with_sanitize
      (Kconfig.make Version.Bpf_next ~bugs:[ Kconfig.Bug2_btf_size_check ])
      false
  in
  let session = Loader.create config in
  let insns =
    Asm.prog
      [ [ Asm.ld_btf_obj Insn.R6 1; Asm.ldx_dw Insn.R0 Insn.R6 280 ];
        Asm.ret 0l ]
  in
  match
    Loader.load_and_run session (Verifier.request Prog.Kprobe insns)
  with
  | { Loader.verdict = Ok _; status = Some (Exec.Finished _); _ } -> ()
  | _ -> Alcotest.fail "expected silent execution without sanitizer"

let test_long_loops_finish () =
  let session = Loader.create fixed in
  let insns =
    Asm.prog
      [ [ Asm.mov64_imm Insn.R6 0l;
          Asm.alu64_imm Insn.Add Insn.R6 1l;
          Asm.jmp_imm Insn.Jlt Insn.R6 1000l (-2) ];
        Asm.ret 0l ]
  in
  match
    Loader.load_and_run session (Verifier.request Prog.Kprobe insns)
  with
  | { Loader.status = Some (Exec.Finished _); insns_executed; _ } ->
    Alcotest.(check bool) "loop iterations executed" true
      (insns_executed > 1500)
  | _ -> Alcotest.fail "bounded loop must finish"

(* -- Attach and events ------------------------------------------------------- *)

let test_attach_trigger () =
  let session = Loader.create fixed in
  let fd = Loader.create_map session (Map.array_def ()) in
  let insns =
    Asm.prog
      [ [ Asm.ld_map_value Insn.R6 fd 0;
          Asm.mov64_imm Insn.R3 1l;
          Asm.atomic Insn.DW Insn.A_add Insn.R6 Insn.R3 0 ];
        Asm.ret 0l ]
  in
  match
    Loader.load_and_run session
      (Verifier.request ~attach:(Some "sys_enter") Prog.Kprobe insns)
  with
  | { Loader.verdict = Ok _; status = Some (Exec.Finished _); _ } ->
    let m =
      Option.get (Bvf_kernel.Kstate.map_of_fd session.Loader.kst fd)
    in
    let key = Bytes.make 4 '\000' in
    let addr = Option.get (Map.lookup m ~key) in
    (match
       Bvf_kernel.Kmem.checked_load
         session.Loader.kst.Bvf_kernel.Kstate.mem ~addr ~size:8
     with
     | Ok v ->
       (* direct run + one attach trigger = 2 increments *)
       Alcotest.(check int64) "ran twice" 2L v
     | Error _ -> Alcotest.fail "counter unreadable")
  | { Loader.verdict = Error e; _ } ->
    Alcotest.fail e.Bvf_verifier.Venv.vmsg
  | _ -> Alcotest.fail "execution failed"

let test_offload_fixed_refuses_host_exec () =
  let session = Loader.create fixed in
  let insns = Asm.prog [ Asm.ret 2l ] in
  match
    Loader.load_and_run session
      (Verifier.request ~offload:true Prog.Xdp insns)
  with
  | { Loader.verdict = Ok _; status = Some (Exec.Error _); reports; _ } ->
    Alcotest.(check int) "no reports" 0 (List.length reports)
  | _ -> Alcotest.fail "fixed kernel must refuse host execution"

(* The kernel keeps a ringbuf_reserve size in the u32 mem_size, so a
   size of -133 makes a 4294967163-byte region and the store into it is
   in bounds: bpf-next accepts the load.  At runtime the reserve refuses
   the size, the program sees NULL and exits; nothing is reported. *)
let test_ringbuf_negative_size () =
  let session = Loader.create fixed in
  let ring = Loader.create_map session (Map.ringbuf_def ()) in
  let insns =
    Asm.prog
      [ [ Asm.ld_map_fd Insn.R1 ring;
          Asm.mov64_imm Insn.R2 (-133l);
          Asm.mov64_imm Insn.R3 0l;
          Asm.call Helper.ringbuf_reserve.Helper.id;
          Asm.jmp_imm Insn.Jne Insn.R0 0l 2;
          Asm.mov64_imm Insn.R0 0l;
          Asm.exit_;
          Asm.mov64_reg Insn.R6 Insn.R0;
          Asm.st_dw Insn.R6 0 5l;
          Asm.mov64_reg Insn.R1 Insn.R6;
          Asm.mov64_imm Insn.R2 0l;
          Asm.call Helper.ringbuf_discard.Helper.id ];
        Asm.ret 0l ]
  in
  match
    Loader.load_and_run session (Verifier.request Prog.Kprobe insns)
  with
  | { Loader.verdict = Error e; _ } ->
    Alcotest.fail ("rejected: " ^ e.Bvf_verifier.Venv.vmsg)
  | { Loader.status = Some (Exec.Finished v); reports; _ } ->
    Alcotest.(check int64) "NULL reservation: exit 0" 0L v;
    Alcotest.(check int) "no reports" 0 (List.length reports)
  | _ -> Alcotest.fail "did not run to its exit"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_runtime"
    [
      ( "alu",
        [ qt alu64_semantics; qt alu32_semantics;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "endian" `Quick test_endian ] );
      ( "memory+flow",
        [ Alcotest.test_case "stack roundtrip" `Quick test_stack_roundtrip;
          Alcotest.test_case "branching" `Quick test_branching;
          Alcotest.test_case "bpf2bpf" `Quick test_bpf2bpf_call;
          Alcotest.test_case "callee saved" `Quick
            test_callee_saved_preserved;
          Alcotest.test_case "map roundtrip" `Quick
            test_map_roundtrip_runtime ] );
      ( "sanitizer",
        [ qt test_sanitize_preserves_semantics;
          Alcotest.test_case "catches planted OOB" `Quick
            test_sanitizer_catches_planted_oob;
          Alcotest.test_case "silent without sanitizer" `Quick
            test_sanitize_off_misses_oob;
          Alcotest.test_case "long loops finish" `Quick
            test_long_loops_finish ] );
      ( "attach",
        [ Alcotest.test_case "attach trigger" `Quick test_attach_trigger;
          Alcotest.test_case "offload refused" `Quick
            test_offload_fixed_refuses_host_exec ] );
      ( "helpers",
        [ Alcotest.test_case "ringbuf size -133 is u32" `Quick
            test_ringbuf_negative_size ] );
    ]
