(* Tests for the ISA library: word arithmetic, instruction metadata, the
   binary encoder/decoder (including offset translation across the
   two-slot LD_IMM64), the disassembler and the helper catalogue. *)

module Word = Bvf_ebpf.Word
module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Encode = Bvf_ebpf.Encode
module Disasm = Bvf_ebpf.Disasm
module Helper = Bvf_ebpf.Helper
module Prog = Bvf_ebpf.Prog
module Version = Bvf_ebpf.Version

let check = Alcotest.check
let i64 = Alcotest.int64

(* -- Word ---------------------------------------------------------------- *)

let test_word_sext () =
  check i64 "sext8 0xff" (-1L) (Word.sext8 0xffL);
  check i64 "sext8 0x7f" 0x7fL (Word.sext8 0x7fL);
  check i64 "sext16 0x8000" (-32768L) (Word.sext16 0x8000L);
  check i64 "sext32 0xffffffff" (-1L) (Word.sext32 0xFFFF_FFFFL);
  check i64 "sext32 positive" 5L (Word.sext32 5L)

let test_word_zext () =
  check i64 "zext8" 0xffL (Word.zext8 (-1L));
  check i64 "zext16" 0xffffL (Word.zext16 (-1L));
  check i64 "to_u32" 0xFFFF_FFFFL (Word.to_u32 (-1L))

let test_word_div_semantics () =
  (* eBPF: x/0 = 0, x%0 = x *)
  check i64 "udiv by zero" 0L (Word.udiv 42L 0L);
  check i64 "umod by zero" 42L (Word.umod 42L 0L);
  check i64 "sdiv by zero" 0L (Word.sdiv (-42L) 0L);
  check i64 "smod by zero" (-42L) (Word.smod (-42L) 0L);
  check i64 "sdiv overflow" Int64.min_int (Word.sdiv Int64.min_int (-1L));
  check i64 "smod overflow" 0L (Word.smod Int64.min_int (-1L))

let test_word_shift_masking () =
  (* shift amounts are masked to the operand width *)
  check i64 "shl64 by 64" 1L (Word.shl64 1L 64L);
  check i64 "shl64 by 65" 2L (Word.shl64 1L 65L);
  check i64 "shl32 by 32" 1L (Word.shl32 1L 32L);
  check i64 "shr32 keeps low" 0x7FFF_FFFFL (Word.shr32 0xFFFF_FFFEL 1L)

let test_word_bswap () =
  check i64 "bswap16" 0x3412L (Word.bswap16 0x1234L);
  check i64 "bswap32" 0x78563412L (Word.bswap32 0x12345678L);
  check i64 "bswap64 round trip" 0x0123456789ABCDEFL
    (Word.bswap64 (Word.bswap64 0x0123456789ABCDEFL))

let test_word_le_bytes () =
  let b = Bytes.make 8 '\000' in
  Word.set_le b 0 8 0x1122334455667788L;
  check i64 "get_le full" 0x1122334455667788L (Word.get_le b 0 8);
  check i64 "get_le low half" 0x55667788L (Word.get_le b 0 4);
  Word.set_le b 0 1 0x00L;
  check i64 "get_le after byte overwrite" 0x55667700L (Word.get_le b 0 4)

let test_word_unsigned_cmp () =
  Alcotest.(check bool) "ult wraps" true (Word.ult 1L (-1L));
  Alcotest.(check bool) "ugt wraps" true (Word.ugt (-1L) 1L);
  check i64 "umax" (-1L) (Word.umax 1L (-1L));
  check i64 "umin" 1L (Word.umin 1L (-1L))

(* -- Insn metadata -------------------------------------------------------- *)

let test_reg_roundtrip () =
  List.iter
    (fun r ->
       match Insn.reg_of_int (Insn.reg_to_int r) with
       | Some r' -> Alcotest.(check bool) "reg roundtrip" true (r = r')
       | None -> Alcotest.fail "reg_of_int failed")
    (Insn.R11 :: Insn.all_regs)

let test_cond_negate_involution () =
  List.iter
    (fun c ->
       if c <> Insn.Jset then
         Alcotest.(check bool) "negate involutive" true
           (Insn.cond_negate (Insn.cond_negate c) = c))
    [ Insn.Jeq; Insn.Jne; Insn.Jgt; Insn.Jge; Insn.Jlt; Insn.Jle;
      Insn.Jsgt; Insn.Jsge; Insn.Jslt; Insn.Jsle ]

let test_slots () =
  Alcotest.(check int) "ld_imm64 is two slots" 2
    (Insn.slots (Asm.ld_imm64 Insn.R1 7L));
  Alcotest.(check int) "alu is one slot" 1
    (Insn.slots (Asm.mov64_imm Insn.R1 7l));
  Alcotest.(check int) "prog_slots"
    3
    (Insn.prog_slots [| Asm.ld_imm64 Insn.R1 7L; Asm.exit_ |])

let test_regs_read_written () =
  let ldx = Asm.ldx_dw Insn.R3 Insn.R5 0 in
  Alcotest.(check bool) "ldx reads src" true
    (List.mem Insn.R5 (Insn.regs_read ldx));
  Alcotest.(check bool) "ldx writes dst" true
    (List.mem Insn.R3 (Insn.regs_written ldx));
  let call = Asm.call 1 in
  Alcotest.(check int) "call clobbers R0-R5" 6
    (List.length (Insn.regs_written call));
  (* the corners the list forms always had: a mov does not read its
     destination, a neg ignores its source field, a non-fetching
     cmpxchg writes R0, and the hidden R11 is a register like any other *)
  let regs = Alcotest.(list string) in
  let names l = List.map (fun r -> Printf.sprintf "r%d" (Insn.reg_to_int r)) l in
  Alcotest.check regs "mov reads only src" [ "r2" ]
    (names (Insn.regs_read (Asm.mov64_reg Insn.R1 Insn.R2)));
  Alcotest.check regs "neg reads dst only" [ "r1" ]
    (names
       (Insn.regs_read
          (Insn.Alu
             { op64 = true; op = Insn.Neg; dst = Insn.R1;
               src = Insn.Reg Insn.R11 })));
  Alcotest.check regs "cmpxchg writes r0" [ "r0" ]
    (names
       (Insn.regs_written
          (Asm.atomic Insn.DW Insn.A_cmpxchg Insn.R1 Insn.R2 0)));
  Alcotest.check regs "cmpxchg reads r0" [ "r0"; "r1"; "r2" ]
    (names
       (Insn.regs_read
          (Asm.atomic ~fetch:true Insn.DW Insn.A_cmpxchg Insn.R1 Insn.R2 0)));
  Alcotest.check regs "fetching add writes src" [ "r2" ]
    (names
       (Insn.regs_written
          (Asm.atomic ~fetch:true Insn.DW Insn.A_add Insn.R1 Insn.R2 0)));
  Alcotest.(check bool) "r11 read" true
    (Insn.reads_reg (Asm.mov64_reg Insn.R1 Insn.R11) Insn.R11);
  Alcotest.(check bool) "r11 written" true
    (Insn.writes_reg (Asm.mov64_reg Insn.R11 Insn.R1) Insn.R11);
  Alcotest.(check bool) "exit reads r0" true (Insn.reads_reg Asm.exit_ Insn.R0)

(* -- Encode/decode -------------------------------------------------------- *)

(* QCheck generator for structurally valid instructions.  Branch offsets
   are patched afterwards by the program generator below. *)
let gen_insn : Insn.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let reg =
    oneofl [ Insn.R0; Insn.R1; Insn.R2; Insn.R3; Insn.R4; Insn.R5;
             Insn.R6; Insn.R7; Insn.R8; Insn.R9; Insn.R10 ]
  in
  let size = oneofl [ Insn.B; Insn.H; Insn.W; Insn.DW ] in
  let alu_op =
    oneofl [ Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Or; Insn.And;
             Insn.Lsh; Insn.Rsh; Insn.Neg; Insn.Mod; Insn.Xor; Insn.Mov;
             Insn.Arsh ]
  in
  let cond =
    oneofl [ Insn.Jeq; Insn.Jne; Insn.Jgt; Insn.Jge; Insn.Jlt; Insn.Jle;
             Insn.Jsgt; Insn.Jsge; Insn.Jslt; Insn.Jsle; Insn.Jset ]
  in
  let imm32 = map Int64.to_int32 (int_range (-100000) 100000 >|= Int64.of_int) in
  let off16 = int_range (-50) 50 in
  oneof
    [
      (let* op64 = bool and* op = alu_op and* dst = reg in
       let* src =
         oneof [ map (fun i -> Insn.Imm i) imm32;
                 map (fun r -> Insn.Reg r) reg ]
       in
       (* NEG has no source operand in the wire format *)
       let src = if op = Insn.Neg then Insn.Imm 0l else src in
       return (Insn.Alu { op64; op; dst; src }));
      (let* dst = reg and* v = int_range (-1000000) 1000000 in
       return (Insn.Ld_imm64 (dst, Insn.Const (Int64.of_int v))));
      (let* dst = reg in
       return (Insn.Ld_imm64 (dst, Insn.Map_fd 3)));
      (let* dst = reg and* o = int_range 0 40 in
       return (Insn.Ld_imm64 (dst, Insn.Map_value (4, o))));
      (let* dst = reg in
       return (Insn.Ld_imm64 (dst, Insn.Btf_obj 1)));
      (let* sz = size and* dst = reg and* src = reg and* off = off16 in
       return (Insn.Ldx { sz; dst; src; off }));
      (let* sz = size and* dst = reg and* off = off16 and* imm = imm32 in
       return (Insn.St { sz; dst; off; imm }));
      (let* sz = size and* dst = reg and* src = reg and* off = off16 in
       return (Insn.Stx { sz; dst; src; off }));
      (let* sz = oneofl [ Insn.W; Insn.DW ]
       and* op = oneofl [ Insn.A_add; Insn.A_or; Insn.A_and; Insn.A_xor ]
       and* fetch = bool
       and* dst = reg and* src = reg and* off = off16 in
       return (Insn.Atomic { sz; op; fetch; dst; src; off }));
      (let* op32 = bool and* cond = cond and* dst = reg
       and* src = oneof [ map (fun i -> Insn.Imm i) imm32;
                          map (fun r -> Insn.Reg r) reg ] in
       return (Insn.Jmp { op32; cond; dst; src; off = 0 }));
      (let* swap = bool and* bits = oneofl [ 16; 32; 64 ] and* dst = reg in
       return (Insn.Endian { swap; bits; dst }));
      return (Insn.Call (Insn.Helper 1));
      return (Insn.Call (Insn.Kfunc 1));
      return Insn.Exit;
    ]

(* Generate a program whose every branch offset lands inside it. *)
let gen_prog : Insn.t array QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* len = int_range 1 40 in
  let* insns = array_repeat len gen_insn in
  let* raw_offsets = array_repeat len (int_range 0 (2 * len)) in
  let fixed =
    Array.mapi
      (fun i insn ->
         let clamp off =
           (* valid target in [0, len], expressed relative to i+1 *)
           let target = off mod (len + 1) in
           target - (i + 1)
         in
         match insn with
         | Insn.Jmp j -> Insn.Jmp { j with off = clamp raw_offsets.(i) }
         | Insn.Ja _ -> Insn.Ja (clamp raw_offsets.(i))
         | Insn.Call (Insn.Local _) ->
           Insn.Call (Insn.Local (clamp raw_offsets.(i)))
         | other -> other)
      insns
  in
  return fixed

let encode_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"encode/decode roundtrip" gen_prog
    (fun prog ->
       match Encode.decode (Encode.encode prog) with
       | Ok prog' ->
         Array.length prog = Array.length prog'
         && Array.for_all2 Insn.equal prog prog'
       | Error e ->
         QCheck2.Test.fail_reportf "decode failed at %d: %s"
           e.Encode.pos e.Encode.reason)

let test_encode_ld_imm64_offsets () =
  (* a jump across an LD_IMM64 must survive the slot translation *)
  let prog =
    [| Asm.jmp_imm Insn.Jeq Insn.R1 0l 1 (* over the ld_imm64 *);
       Asm.ld_imm64 Insn.R2 0x1122334455667788L;
       Asm.mov64_imm Insn.R0 0l;
       Asm.exit_ |]
  in
  match Encode.decode (Encode.encode prog) with
  | Ok prog' ->
    Alcotest.(check bool) "same prog" true
      (Array.for_all2 Insn.equal prog prog')
  | Error e -> Alcotest.fail e.Encode.reason

let test_decode_rejects_garbage () =
  let bytes = Bytes.make 8 '\xff' in
  match Encode.decode bytes with
  | Ok _ -> Alcotest.fail "garbage decoded"
  | Error _ -> ()

let test_decode_rejects_truncated_ld64 () =
  let prog = [| Asm.ld_imm64 Insn.R1 1L |] in
  let bytes = Encode.encode prog in
  let truncated = Bytes.sub bytes 0 8 in
  match Encode.decode truncated with
  | Ok _ -> Alcotest.fail "truncated ld_imm64 decoded"
  | Error _ -> ()

let test_decode_rejects_branch_into_ld64 () =
  (* craft a raw jump into the second slot of an ld_imm64 *)
  let prog =
    [| Asm.ja 0; Asm.ld_imm64 Insn.R1 1L; Asm.exit_ |]
  in
  let bytes = Encode.encode prog in
  (* retarget the JA (slot 0) to slot offset +1 = ld_imm64's 2nd slot *)
  Bytes.set bytes 2 '\001';
  Bytes.set bytes 3 '\000';
  match Encode.decode bytes with
  | Ok _ -> Alcotest.fail "branch into ld_imm64 middle decoded"
  | Error _ -> ()

(* The kernel's resolve_pseudo_ldimm64 refuses a second LD_IMM64 slot
   with any field but imm set; decode reports it at the first slot. *)
let test_decode_rejects_dirty_ld64_second_slot () =
  let prog =
    [| Asm.ld_imm64 Insn.R1 5L; Asm.mov64_imm Insn.R0 0l; Asm.exit_ |]
  in
  let clean = Encode.encode prog in
  List.iter
    (fun (field, dirty) ->
       let bytes = Bytes.copy clean in
       Encode.raw_to_bytes bytes 8 (dirty (Encode.raw_of_bytes bytes 8));
       match Encode.decode bytes with
       | Ok _ -> Alcotest.failf "second slot with %s set decoded" field
       | Error e ->
         Alcotest.(check int) (field ^ ": first slot") 0 e.Encode.pos;
         Alcotest.(check string) (field ^ ": reason")
           "bad ld_imm64 second slot" e.Encode.reason)
    [ ("dst", fun r -> { r with Encode.dst = 1 });
      ("src", fun r -> { r with Encode.src = 1 });
      ("off", fun r -> { r with Encode.off = 1 });
      ("off -1", fun r -> { r with Encode.off = -1 }) ];
  (* imm alone is the upper half of the constant *)
  let bytes = Bytes.copy clean in
  Encode.raw_to_bytes bytes 8
    { (Encode.raw_of_bytes bytes 8) with Encode.imm = -1l };
  match Encode.decode bytes with
  | Ok p ->
    Alcotest.(check bool) "imm carries the high word" true
      (Insn.equal p.(0) (Asm.ld_imm64 Insn.R1 0xFFFF_FFFF_0000_0005L))
  | Error e -> Alcotest.fail e.Encode.reason

(* -- Disasm --------------------------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_disasm_smoke () =
  let prog =
    [| Asm.ld_map_fd Insn.R1 3; Asm.call 1; Asm.mov64_imm Insn.R0 0l;
       Asm.exit_ |]
  in
  let text = Disasm.prog_to_string prog in
  Alcotest.(check bool) "mentions helper name" true
    (contains ~needle:"map_lookup_elem" text);
  Alcotest.(check bool) "mentions exit" true (contains ~needle:"exit" text)

let test_histogram () =
  let prog =
    [| Asm.mov64_imm Insn.R0 0l; Asm.jmp_imm Insn.Jeq Insn.R0 0l 0;
       Asm.ldx_dw Insn.R1 Insn.R10 (-8); Asm.exit_ |]
  in
  let h = Disasm.histogram prog in
  Alcotest.(check int) "alu" 1 h.Disasm.alu;
  Alcotest.(check int) "jmp" 1 h.Disasm.jmp;
  Alcotest.(check int) "load" 1 h.Disasm.load;
  Alcotest.(check bool) "ratio" true (Disasm.alu_jmp_ratio h = 0.5)

(* -- Helper catalogue ------------------------------------------------------ *)

let test_helper_lookup () =
  Alcotest.(check bool) "find map_lookup" true
    (Helper.find 1 = Some Helper.map_lookup_elem);
  Alcotest.(check bool) "unknown id" true (Helper.find 9999 = None);
  Alcotest.(check bool) "asan helpers are internal" true
    Helper.asan_load64.Helper.internal

let test_helper_availability () =
  let v515_socket =
    Helper.available ~version:Version.V5_15 ~pt:Prog.Socket_filter
  in
  Alcotest.(check bool) "no trace_printk for socket" true
    (not (List.mem Helper.trace_printk v515_socket));
  Alcotest.(check bool) "no get_current_task_btf on v5.15" true
    (not
       (List.mem Helper.get_current_task_btf
          (Helper.available ~version:Version.V5_15 ~pt:Prog.Kprobe)));
  Alcotest.(check bool) "get_current_task_btf on v6.1" true
    (List.mem Helper.get_current_task_btf
       (Helper.available ~version:Version.V6_1 ~pt:Prog.Kprobe))

let test_kfunc_availability () =
  Alcotest.(check int) "no kfuncs on v5.15" 0
    (List.length (Helper.kfuncs_available ~version:Version.V5_15));
  Alcotest.(check bool) "kfuncs on v6.1" true
    (List.length (Helper.kfuncs_available ~version:Version.V6_1) > 0)

(* -- Prog layouts ---------------------------------------------------------- *)

let test_ctx_layouts () =
  List.iter
    (fun pt ->
       let layout = Prog.ctx_layout pt in
       Alcotest.(check bool) "fields inside ctx" true
         (List.for_all
            (fun f -> f.Prog.foff + f.Prog.fsize <= layout.Prog.ctx_size)
            layout.Prog.fields))
    Prog.all_prog_types

let test_field_at () =
  let layout = Prog.ctx_layout Prog.Xdp in
  Alcotest.(check bool) "data field" true
    (match Prog.field_at layout ~off:0 ~size:4 with
     | Some f -> f.Prog.fkind = Prog.Fk_pkt_data
     | None -> false);
  Alcotest.(check bool) "misaligned miss" true
    (Prog.field_at layout ~off:2 ~size:4 = None);
  Alcotest.(check bool) "wrong size miss" true
    (Prog.field_at layout ~off:0 ~size:8 = None)

let test_return_ranges () =
  Alcotest.(check bool) "socket constrained" true
    (Prog.return_range Prog.Socket_filter = Some (0L, 1L));
  Alcotest.(check bool) "kprobe unconstrained" true
    (Prog.return_range Prog.Kprobe = None)

let test_version_order () =
  Alcotest.(check bool) "5.15 < 6.1" true
    (Version.compare Version.V5_15 Version.V6_1 < 0);
  Alcotest.(check bool) "6.1 < next" true
    (Version.compare Version.V6_1 Version.Bpf_next < 0);
  Alcotest.(check bool) "at_least" true
    (Version.at_least Version.Bpf_next Version.V5_15);
  List.iter
    (fun v ->
       Alcotest.(check bool) "to/of string" true
         (Version.of_string (Version.to_string v) = Some v))
    Version.all

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_ebpf"
    [
      ( "word",
        [ Alcotest.test_case "sext" `Quick test_word_sext;
          Alcotest.test_case "zext" `Quick test_word_zext;
          Alcotest.test_case "div semantics" `Quick test_word_div_semantics;
          Alcotest.test_case "shift masking" `Quick test_word_shift_masking;
          Alcotest.test_case "bswap" `Quick test_word_bswap;
          Alcotest.test_case "le bytes" `Quick test_word_le_bytes;
          Alcotest.test_case "unsigned cmp" `Quick test_word_unsigned_cmp ] );
      ( "insn",
        [ Alcotest.test_case "reg roundtrip" `Quick test_reg_roundtrip;
          Alcotest.test_case "cond negate" `Quick
            test_cond_negate_involution;
          Alcotest.test_case "slots" `Quick test_slots;
          Alcotest.test_case "regs read/written" `Quick
            test_regs_read_written ] );
      ( "encode",
        [ qt encode_roundtrip;
          Alcotest.test_case "jump over ld_imm64" `Quick
            test_encode_ld_imm64_offsets;
          Alcotest.test_case "garbage rejected" `Quick
            test_decode_rejects_garbage;
          Alcotest.test_case "truncated ld64" `Quick
            test_decode_rejects_truncated_ld64;
          Alcotest.test_case "branch into ld64" `Quick
            test_decode_rejects_branch_into_ld64;
          Alcotest.test_case "dirty ld64 second slot" `Quick
            test_decode_rejects_dirty_ld64_second_slot ] );
      ( "disasm",
        [ Alcotest.test_case "smoke" `Quick test_disasm_smoke;
          Alcotest.test_case "histogram" `Quick test_histogram ] );
      ( "helpers",
        [ Alcotest.test_case "lookup" `Quick test_helper_lookup;
          Alcotest.test_case "availability" `Quick test_helper_availability;
          Alcotest.test_case "kfuncs" `Quick test_kfunc_availability ] );
      ( "prog",
        [ Alcotest.test_case "ctx layouts" `Quick test_ctx_layouts;
          Alcotest.test_case "field_at" `Quick test_field_at;
          Alcotest.test_case "return ranges" `Quick test_return_ranges;
          Alcotest.test_case "versions" `Quick test_version_order ] );
    ]
