(* Binary (wire) encoding of eBPF programs, byte-compatible with the
   kernel's struct bpf_insn layout:

     opcode:8 | dst_reg:4 src_reg:4 | off:16 (LE, signed) | imm:32 (LE, signed)

   LD_IMM64 occupies two 8-byte slots; since the structured representation
   ({!Insn.t}) is element-based, encoding and decoding translate branch
   offsets between element units and slot units. *)

open Insn

(* Instruction classes *)
let cls_ld = 0x00
let cls_ldx = 0x01
let cls_st = 0x02
let cls_stx = 0x03
let cls_alu = 0x04
let cls_jmp = 0x05
let cls_jmp32 = 0x06
let cls_alu64 = 0x07

(* ALU/JMP source flag *)
let src_k = 0x00
let src_x = 0x08

let alu_op_code = function
  | Add -> 0x0 | Sub -> 0x1 | Mul -> 0x2 | Div -> 0x3 | Or -> 0x4
  | And -> 0x5 | Lsh -> 0x6 | Rsh -> 0x7 | Neg -> 0x8 | Mod -> 0x9
  | Xor -> 0xa | Mov -> 0xb | Arsh -> 0xc

let alu_op_of_code = function
  | 0x0 -> Some Add | 0x1 -> Some Sub | 0x2 -> Some Mul | 0x3 -> Some Div
  | 0x4 -> Some Or | 0x5 -> Some And | 0x6 -> Some Lsh | 0x7 -> Some Rsh
  | 0x8 -> Some Neg | 0x9 -> Some Mod | 0xa -> Some Xor | 0xb -> Some Mov
  | 0xc -> Some Arsh | _ -> None

let op_end = 0xd

let jmp_code = function
  | Jeq -> 0x1 | Jgt -> 0x2 | Jge -> 0x3 | Jset -> 0x4 | Jne -> 0x5
  | Jsgt -> 0x6 | Jsge -> 0x7 | Jlt -> 0xa | Jle -> 0xb | Jslt -> 0xc
  | Jsle -> 0xd

let jmp_cond_of_code = function
  | 0x1 -> Some Jeq | 0x2 -> Some Jgt | 0x3 -> Some Jge | 0x4 -> Some Jset
  | 0x5 -> Some Jne | 0x6 -> Some Jsgt | 0x7 -> Some Jsge | 0xa -> Some Jlt
  | 0xb -> Some Jle | 0xc -> Some Jslt | 0xd -> Some Jsle | _ -> None

let op_ja = 0x0
let op_call = 0x8
let op_exit = 0x9

let size_code = function W -> 0x00 | H -> 0x08 | B -> 0x10 | DW -> 0x18

let size_of_code = function
  | 0x00 -> Some W | 0x08 -> Some H | 0x10 -> Some B | 0x18 -> Some DW
  | _ -> None

let mode_imm = 0x00
let mode_mem = 0x60
let mode_atomic = 0xc0

(* Atomic imm encodings (matches BPF_FETCH etc.) *)
let atomic_code op fetch =
  match op, fetch with
  | A_add, f -> 0x00 lor (if f then 0x01 else 0)
  | A_or, f -> 0x40 lor (if f then 0x01 else 0)
  | A_and, f -> 0x50 lor (if f then 0x01 else 0)
  | A_xor, f -> 0xa0 lor (if f then 0x01 else 0)
  | A_xchg, _ -> 0xe1
  | A_cmpxchg, _ -> 0xf1

let atomic_of_code = function
  | 0x00 -> Some (A_add, false) | 0x01 -> Some (A_add, true)
  | 0x40 -> Some (A_or, false) | 0x41 -> Some (A_or, true)
  | 0x50 -> Some (A_and, false) | 0x51 -> Some (A_and, true)
  | 0xa0 -> Some (A_xor, false) | 0xa1 -> Some (A_xor, true)
  | 0xe1 -> Some (A_xchg, true) | 0xf1 -> Some (A_cmpxchg, true)
  | _ -> None

(* Pseudo src_reg values on LD_IMM64 / CALL *)
let pseudo_map_fd = 1
let pseudo_map_value = 2
let pseudo_btf_id = 3
let pseudo_call_local = 1
let pseudo_call_kfunc = 2

type raw = { op : int; dst : int; src : int; off : int; imm : int32 }

(* One slot, written straight into its wire fields. *)
let put (b : Bytes.t) (pos : int) ~(op : int) ~(dst : int) ~(src : int)
    ~(off : int) ~(imm : int32) : unit =
  Bytes.set_uint8 b pos (op land 0xff);
  Bytes.set_uint8 b (pos + 1) ((dst land 0xf) lor ((src land 0xf) lsl 4));
  Bytes.set_uint16_le b (pos + 2) (off land 0xffff);
  Bytes.set_int32_le b (pos + 4) imm

let raw_to_bytes (b : Bytes.t) (pos : int) (r : raw) : unit =
  put b pos ~op:r.op ~dst:r.dst ~src:r.src ~off:r.off ~imm:r.imm

let raw_of_bytes (b : Bytes.t) (pos : int) : raw =
  let regs = Bytes.get_uint8 b (pos + 1) in
  { op = Bytes.get_uint8 b pos; dst = regs land 0xf; src = regs lsr 4;
    off = Bytes.get_int16_le b (pos + 2);
    imm = Bytes.get_int32_le b (pos + 4) }

(* Lower one structured instruction into its one or two slots at byte
   [pos] of [b], which the caller has zeroed.  Branch offsets are
   translated by the caller; here [off]/[local_imm] are taken as
   already slot-based. *)
let lower (b : Bytes.t) (pos : int) (i : t) ~(off : int)
    ~(local_imm : int32) : unit =
  let reg = reg_to_int in
  match i with
  | Alu { op64; op = Neg; dst; _ } ->
    put b pos ~op:((alu_op_code Neg lsl 4) lor src_k
             lor (if op64 then cls_alu64 else cls_alu))
      ~dst:(reg dst) ~src:0 ~off:0 ~imm:0l
  | Alu { op64; op; dst; src } ->
    let cls = if op64 then cls_alu64 else cls_alu in
    (match src with
     | Imm imm ->
       put b pos ~op:((alu_op_code op lsl 4) lor src_k lor cls)
         ~dst:(reg dst) ~src:0 ~off:0 ~imm
     | Reg s ->
       put b pos ~op:((alu_op_code op lsl 4) lor src_x lor cls)
         ~dst:(reg dst) ~src:(reg s) ~off:0 ~imm:0l)
  | Endian { swap; bits; dst } ->
    put b pos
      ~op:((op_end lsl 4) lor (if swap then src_x else src_k) lor cls_alu)
      ~dst:(reg dst) ~src:0 ~off:0 ~imm:(Int32.of_int bits)
  | Ld_imm64 (dst, kind) ->
    let src, lo, hi =
      match kind with
      | Const v ->
        ( 0,
          Int64.to_int32 (Word.to_u32 v),
          Int64.to_int32 (Int64.shift_right_logical v 32) )
      | Map_fd fd -> (pseudo_map_fd, Int32.of_int fd, 0l)
      | Map_value (fd, o) -> (pseudo_map_value, Int32.of_int fd, Int32.of_int o)
      | Btf_obj id -> (pseudo_btf_id, Int32.of_int id, 0l)
    in
    put b pos ~op:(mode_imm lor size_code DW lor cls_ld) ~dst:(reg dst) ~src
      ~off:0 ~imm:lo;
    (* the second slot is all zero but its imm *)
    Bytes.set_int32_le b (pos + 12) hi
  | Ldx { sz; dst; src; off } ->
    put b pos ~op:(mode_mem lor size_code sz lor cls_ldx) ~dst:(reg dst)
      ~src:(reg src) ~off ~imm:0l
  | St { sz; dst; off; imm } ->
    put b pos ~op:(mode_mem lor size_code sz lor cls_st) ~dst:(reg dst) ~src:0
      ~off ~imm
  | Stx { sz; dst; src; off } ->
    put b pos ~op:(mode_mem lor size_code sz lor cls_stx) ~dst:(reg dst)
      ~src:(reg src) ~off ~imm:0l
  | Atomic { sz; op; fetch; dst; src; off } ->
    put b pos ~op:(mode_atomic lor size_code sz lor cls_stx) ~dst:(reg dst)
      ~src:(reg src) ~off ~imm:(Int32.of_int (atomic_code op fetch))
  | Jmp { op32; cond; dst; src; _ } ->
    let cls = if op32 then cls_jmp32 else cls_jmp in
    (match src with
     | Imm imm ->
       put b pos ~op:((jmp_code cond lsl 4) lor src_k lor cls) ~dst:(reg dst)
         ~src:0 ~off ~imm
     | Reg s ->
       put b pos ~op:((jmp_code cond lsl 4) lor src_x lor cls) ~dst:(reg dst)
         ~src:(reg s) ~off ~imm:0l)
  | Ja _ ->
    put b pos ~op:((op_ja lsl 4) lor cls_jmp) ~dst:0 ~src:0 ~off ~imm:0l
  | Call (Helper id) ->
    put b pos ~op:((op_call lsl 4) lor cls_jmp) ~dst:0 ~src:0 ~off:0
      ~imm:(Int32.of_int id)
  | Call (Kfunc id) ->
    put b pos ~op:((op_call lsl 4) lor cls_jmp) ~dst:0 ~src:pseudo_call_kfunc
      ~off:0 ~imm:(Int32.of_int id)
  | Call (Local _) ->
    put b pos ~op:((op_call lsl 4) lor cls_jmp) ~dst:0 ~src:pseudo_call_local
      ~off:0 ~imm:local_imm
  | Exit ->
    put b pos ~op:((op_exit lsl 4) lor cls_jmp) ~dst:0 ~src:0 ~off:0 ~imm:0l

(* Slot index of each element plus the total slot count. *)
let slot_table (prog : t array) : int array * int =
  let n = Array.length prog in
  let table = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    table.(i + 1) <- table.(i) + slots prog.(i)
  done;
  (table, table.(n))

let encode (prog : t array) : Bytes.t =
  let table, total = slot_table prog in
  let buf = Bytes.make (total * 8) '\000' in
  Array.iteri
    (fun i insn ->
       (* Translate an element-based offset (relative to the next element)
          into a slot-based one (relative to the next slot). *)
       let elem_off d =
         let target = i + 1 + d in
         if target < 0 || target > Array.length prog then
           invalid_arg
             (Printf.sprintf "encode: branch at %d escapes program" i)
         else table.(target) - (table.(i) + slots insn)
       in
       let off, local_imm =
         match insn with
         | Jmp { off; _ } | Ja off -> (elem_off off, 0l)
         | Call (Local d) -> (0, Int32.of_int (elem_off d))
         | _ -> (0, 0l)
       in
       lower buf (table.(i) * 8) insn ~off ~local_imm)
    prog;
  buf

type error = { pos : int; reason : string }

let err pos fmt = Format.kasprintf (fun reason -> Error { pos; reason }) fmt

(* Decode a raw slot sequence back into structured instructions.  Branch
   offsets are translated from slot units back to element units;
   ill-formed opcodes, truncated LD_IMM64 and branches into the middle of
   an LD_IMM64 are rejected. *)
let decode (bytes : Bytes.t) : (t array, error) result =
  if Bytes.length bytes mod 8 <> 0 then
    err 0 "byte length %d not a multiple of 8" (Bytes.length bytes)
  else begin
    let nslots = Bytes.length bytes / 8 in
    let exception Fail of error in
    let fail pos fmt =
      Format.kasprintf (fun reason -> raise (Fail { pos; reason })) fmt
    in
    (* First pass: structured insns plus slot->element maps. *)
    let insns = ref [] in
    let elem_of_slot = Array.make (nslots + 1) (-1) in
    let slot_of_elem = ref [] in
    let getreg pos n =
      match reg_of_int n with
      | Some r when n <= 10 -> r
      | Some _ | None -> fail pos "invalid register %d" n
    in
    (try
       let slot = ref 0 in
       let elem = ref 0 in
       while !slot < nslots do
         let pos = !slot in
         let base = pos * 8 in
         let code = Bytes.get_uint8 bytes base in
         let regs = Bytes.get_uint8 bytes (base + 1) in
         let dreg = regs land 0xf and sreg = regs lsr 4 in
         let off = Bytes.get_int16_le bytes (base + 2) in
         let imm = Bytes.get_int32_le bytes (base + 4) in
         let cls = code land 0x07 in
         let structured, width =
           if cls = cls_alu || cls = cls_alu64 then begin
             let opc = (code lsr 4) land 0xf in
             let is_x = code land 0x08 <> 0 in
             if opc = op_end then begin
               let bits = Int32.to_int imm in
               if bits <> 16 && bits <> 32 && bits <> 64 then
                 fail pos "invalid endian width %d" bits;
               (Endian { swap = is_x; bits; dst = getreg pos dreg }, 1)
             end
             else
               match alu_op_of_code opc with
               | None -> fail pos "invalid alu opcode %#x" code
               | Some op ->
                 let src =
                   if op = Neg then Imm 0l
                   else if is_x then Reg (getreg pos sreg)
                   else Imm imm
                 in
                 (Alu { op64 = cls = cls_alu64; op; dst = getreg pos dreg;
                        src }, 1)
           end
           else if cls = cls_jmp || cls = cls_jmp32 then begin
             let opc = (code lsr 4) land 0xf in
             let is_x = code land 0x08 <> 0 in
             if opc = op_ja then
               if cls = cls_jmp32 then fail pos "JA in jmp32 class"
               else (Ja off, 1)
             else if opc = op_call then begin
               if cls = cls_jmp32 then fail pos "CALL in jmp32 class";
               let id = Int32.to_int imm in
               if sreg = 0 then (Call (Helper id), 1)
               else if sreg = pseudo_call_local then (Call (Local id), 1)
               else if sreg = pseudo_call_kfunc then (Call (Kfunc id), 1)
               else fail pos "invalid call pseudo src %d" sreg
             end
             else if opc = op_exit then
               if cls = cls_jmp32 then fail pos "EXIT in jmp32 class"
               else (Exit, 1)
             else
               match jmp_cond_of_code opc with
               | None -> fail pos "invalid jmp opcode %#x" code
               | Some cond ->
                 let src =
                   if is_x then Reg (getreg pos sreg) else Imm imm
                 in
                 (Jmp { op32 = cls = cls_jmp32; cond;
                        dst = getreg pos dreg; src; off }, 1)
           end
           else if cls = cls_ld then begin
             if code <> (mode_imm lor size_code DW lor cls_ld) then
               fail pos "unsupported ld opcode %#x" code;
             if pos + 1 >= nslots then fail pos "truncated ld_imm64";
             (* the kernel rejects any second slot but [0 0 0 0 imm]
                (resolve_pseudo_ldimm64: "invalid bpf_ld_imm64 insn") *)
             if Bytes.get_int32_le bytes (base + 8) <> 0l then
               fail pos "bad ld_imm64 second slot";
             let hi = Bytes.get_int32_le bytes (base + 12) in
             let dst = getreg pos dreg in
             let kind =
               let lo = Int64.logand (Int64.of_int32 imm) 0xFFFF_FFFFL in
               if sreg = 0 then
                 Const
                   (Int64.logor lo
                      (Int64.shift_left (Int64.of_int32 hi) 32))
               else if sreg = pseudo_map_fd then Map_fd (Int32.to_int imm)
               else if sreg = pseudo_map_value then
                 Map_value (Int32.to_int imm, Int32.to_int hi)
               else if sreg = pseudo_btf_id then Btf_obj (Int32.to_int imm)
               else fail pos "invalid ld_imm64 pseudo src %d" sreg
             in
             (Ld_imm64 (dst, kind), 2)
           end
           else if cls = cls_ldx then begin
             match size_of_code (code land 0x18) with
             | Some sz when code land 0xe0 = mode_mem ->
               (Ldx { sz; dst = getreg pos dreg; src = getreg pos sreg;
                      off }, 1)
             | Some _ | None -> fail pos "invalid ldx opcode %#x" code
           end
           else if cls = cls_st then begin
             match size_of_code (code land 0x18) with
             | Some sz when code land 0xe0 = mode_mem ->
               (St { sz; dst = getreg pos dreg; off; imm }, 1)
             | Some _ | None -> fail pos "invalid st opcode %#x" code
           end
           else begin
             (* cls_stx *)
             match size_of_code (code land 0x18) with
             | Some sz when code land 0xe0 = mode_mem ->
               (Stx { sz; dst = getreg pos dreg; src = getreg pos sreg;
                      off }, 1)
             | Some sz when code land 0xe0 = mode_atomic -> begin
                 match atomic_of_code (Int32.to_int imm) with
                 | Some (op, fetch) ->
                   if sz <> W && sz <> DW then
                     fail pos "atomic requires word/dword size";
                   (Atomic { sz; op; fetch; dst = getreg pos dreg;
                             src = getreg pos sreg; off }, 1)
                 | None -> fail pos "invalid atomic op %#lx" imm
               end
             | Some _ | None -> fail pos "invalid stx opcode %#x" code
           end
         in
         elem_of_slot.(!slot) <- !elem;
         slot_of_elem := !slot :: !slot_of_elem;
         insns := structured :: !insns;
         slot := !slot + width;
         incr elem
       done;
       elem_of_slot.(nslots) <- !elem;
       let prog = array_of_rev_list !insns in
       let slot_of_elem = Array.of_list (List.rev !slot_of_elem) in
       let nelems = Array.length prog in
       (* Second pass: translate slot offsets to element offsets. *)
       let retarget i slot_off =
         let this_slot = slot_of_elem.(i) in
         let target_slot = this_slot + slots prog.(i) + slot_off in
         if target_slot < 0 || target_slot > nslots then
           fail this_slot "branch target slot %d out of range" target_slot
         else if target_slot = nslots then nelems - (i + 1)
         else begin
           let target = elem_of_slot.(target_slot) in
           if target < 0 then
             fail this_slot "branch into the middle of ld_imm64"
           else target - (i + 1)
         end
       in
       Array.iteri
         (fun i insn ->
            match insn with
            | Jmp j -> prog.(i) <- Jmp { j with off = retarget i j.off }
            | Ja off -> prog.(i) <- Ja (retarget i off)
            | Call (Local d) -> prog.(i) <- Call (Local (retarget i d))
            | Alu _ | Endian _ | Ld_imm64 _ | Ldx _ | St _ | Stx _
            | Atomic _ | Call (Helper _) | Call (Kfunc _) | Exit -> ())
         prog;
       Ok prog
     with Fail e -> Error e)
  end
