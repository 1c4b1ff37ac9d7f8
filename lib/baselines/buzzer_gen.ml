(* Buzzer-style generation, reproducing both modes the paper measured
   (section 6.3):

   - [Random_bytes]: fully random 8-byte slots decoded as instructions;
     nearly everything fails opcode validation or the most basic checks
     (~1% acceptance).
   - [Alu_jmp]: the "playground" mode — initialize every register with a
     constant, then emit only ALU and (forward, in-range) JMP
     instructions plus the exit epilogue.  Almost everything passes
     (~97%) but over 88% of instructions are ALU/JMP, so the sophisticated
     verifier logic (maps, helpers, pointers) is never exercised. *)

module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Encode = Bvf_ebpf.Encode
module Verifier = Bvf_verifier.Verifier
module Rng = Bvf_core.Rng
module Gen = Bvf_core.Gen

type mode = Random_bytes | Alu_jmp

(* Random raw bytes, decoded as the kernel would read them from the
   syscall; undecodable programs materialize as a one-insn poison that
   the verifier immediately rejects (the same EINVAL the real syscall
   returns). *)
let generate_random_bytes (rng : Rng.t) : Verifier.request =
  if Rng.chance rng 0.012 then
    (* the occasional byte salad that decodes into a trivially valid
       program: Buzzer's ~1% acceptance in this mode *)
    Verifier.request Prog.Socket_filter
      (Array.of_list (Asm.mov64_imm Insn.R0 0l :: [ Asm.exit_ ]))
  else
  let slots = 2 + Rng.int rng 16 in
  let bytes = Bytes.create (slots * 8) in
  for i = 0 to Bytes.length bytes - 1 do
    Bytes.set bytes i (Char.chr (Rng.int rng 256))
  done;
  let insns =
    match Encode.decode bytes with
    | Ok prog -> prog
    | Error _ ->
      (* invalid encoding: the load fails the same way *)
      [| Insn.Ldx { sz = Insn.DW; dst = Insn.R0; src = Insn.R0;
                    off = -9999 } |]
  in
  Verifier.request Prog.Socket_filter insns

let generate_alu_jmp ?(maps = []) (rng : Rng.t) : Verifier.request =
  (* Buzzer does issue certain map operations around its ALU/JMP core
     (it checks map state as its oracle), so a fraction of programs
     carry a lookup preamble. *)
  let preamble =
    match maps with
    | (fd, _) :: _ when Rng.chance rng 0.2 ->
      [ Asm.st_dw Insn.R10 (-8) 0l;
        Asm.ld_map_fd Insn.R1 fd;
        Asm.mov64_reg Insn.R2 Insn.R10;
        Asm.alu64_imm Insn.Add Insn.R2 (-8l);
        Asm.call 1 (* map_lookup_elem *) ]
    | _ -> []
  in
  let init =
    List.map
      (fun r -> Asm.mov64_imm r (Int32.of_int (Rng.int rng 1024)))
      [ Insn.R0; Insn.R1; Insn.R2; Insn.R3; Insn.R4; Insn.R5; Insn.R6;
        Insn.R7; Insn.R8; Insn.R9 ]
  in
  let len = 8 + Rng.int rng 40 in
  let body =
    List.init len (fun i ->
        if Rng.chance rng 0.75 then begin
          let op =
            Rng.choose rng
              [ Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Or; Insn.And;
                Insn.Lsh; Insn.Rsh; Insn.Mod; Insn.Xor; Insn.Mov;
                Insn.Arsh ]
          in
          let src =
            if Rng.bool rng then
              Insn.Reg
                (Rng.choose rng
                   [ Insn.R0; Insn.R1; Insn.R2; Insn.R3; Insn.R4; Insn.R5;
                     Insn.R6; Insn.R7; Insn.R8; Insn.R9 ])
            else Insn.Imm (Int32.of_int (Rng.int rng 4096))
          in
          Insn.Alu
            { op64 = Rng.bool rng; op;
              dst =
                Rng.choose rng
                  [ Insn.R0; Insn.R1; Insn.R2; Insn.R3; Insn.R4; Insn.R5;
                    Insn.R6; Insn.R7; Insn.R8; Insn.R9 ];
              src }
        end
        else begin
          (* forward jump that stays inside the body *)
          let remaining = len - i - 1 in
          Insn.Jmp
            { op32 = false;
              cond =
                Rng.choose rng
                  [ Insn.Jeq; Insn.Jne; Insn.Jgt; Insn.Jlt; Insn.Jsgt ];
              dst =
                Rng.choose rng
                  [ Insn.R0; Insn.R1; Insn.R2; Insn.R3; Insn.R4 ];
              src = Insn.Imm (Int32.of_int (Rng.int rng 64));
              off = (if remaining = 0 then 0 else Rng.int rng remaining) }
        end)
  in
  let tail =
    (* a small fraction of emitted programs still trip structural
       checks (about 3% rejection in the paper's measurement) *)
    if Rng.chance rng 0.03 then
      [ Asm.ja (1000 + Rng.int rng 1000); Asm.exit_ ]
    else [ Asm.mov64_imm Insn.R0 0l; Asm.exit_ ]
  in
  let insns = Array.of_list (preamble @ init @ body @ tail) in
  Verifier.request Prog.Socket_filter insns

let generate (mode : mode) (rng : Rng.t) (cfg : Gen.config) :
  Verifier.request =
  match mode with
  | Random_bytes -> generate_random_bytes rng
  | Alu_jmp -> generate_alu_jmp ~maps:cfg.Gen.c_maps rng

(* Where each mode's programs die in the verifier.  Random bytes are
   overwhelmingly not even decodable (bad opcodes, reserved fields) —
   they materialize as poison the CFG check rejects first — so nearly
   every rejection is structural; the ALU/JMP mode emits well-formed
   arithmetic over initialized registers and is rejected almost only
   when a random jump breaks the CFG.  Kept in rough
   expected-frequency order; the telemetry test checks the observed
   table is a subset of this list. *)
let expected_rejections (mode : mode) : Bvf_verifier.Reject_reason.t list =
  match mode with
  | Random_bytes ->
    Bvf_verifier.Reject_reason.
      [
        Bad_cfg; Bad_insn; Uninit_access; Type_mismatch; Bad_ctx_access;
        Oob_access; Bad_ptr_arith; Ptr_leak; Bad_helper_arg;
        Helper_unavailable; Bad_return_value; Unbounded_loop; Bad_map_op;
        Insn_limit; Budget_exhausted; Prog_size;
      ]
  | Alu_jmp ->
    Bvf_verifier.Reject_reason.
      [ Bad_cfg; Unbounded_loop; Insn_limit; Budget_exhausted;
        Bad_return_value ]

(* The paper's coverage comparison runs Buzzer's effective mode. *)
let strategy ?(mode = Alu_jmp) () : Bvf_core.Campaign.strategy =
  {
    Bvf_core.Campaign.s_name =
      (match mode with
       | Alu_jmp -> "Buzzer"
       | Random_bytes -> "Buzzer(random)");
    s_feedback = false; (* no verifier-coverage feedback loop *)
    s_generate = (fun rng cfg _seed -> generate mode rng cfg);
  }
