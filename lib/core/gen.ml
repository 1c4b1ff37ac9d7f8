open Cimport

(* Structured program generation — the paper's section 4.1.

   Programs are partitioned into an INIT HEADER (register loading:
   map fds, direct map values, BTF objects, random immediates, a saved
   context pointer), a FRAMED BODY (a sequence of basic / jump / call
   frames chosen with equal probability, nested jump frames containing
   sub-frames and occasional bounded back-edge loops), and an END
   SECTION (lock/reference cleanup and a valid exit).

   The generator tracks an abstract state per register — what the paper
   calls "recording the registers' states in different program points,
   and then synthesizing operations according to the states" — so that
   emitted operations are mostly coherent (initialized operands, typed
   memory bases, null checks after nullable helper returns), while a
   tunable fraction of boundary-probing emissions exercises the
   verifier's rejection edges. *)

type gstate =
  | G_uninit
  | G_scalar                       (* unknown scalar *)
  | G_const of int64
  | G_map_ptr of int * Map.def     (* fd *)
  | G_map_value of int * Map.def   (* non-null *)
  | G_map_value_null of int * Map.def
  | G_ctx
  | G_btf of Btf.desc
  | G_pkt of int                   (* proven range *)
  | G_pkt_end
  | G_ringbuf of int               (* reserved chunk, size *)

type t = {
  rng : Rng.t;
  version : Version.t;
  prog_type : Prog.prog_type;
  maps : (int * Map.def) list;
  mutable regs : gstate array; (* R0..R9 *)
  mutable stack_init : Bytes.t; (* 64 eight-byte slots, '\001' = init *)
  mutable code : Insn.t array; (* [0, len) emitted, the rest [Exit] *)
  mutable len : int;
  mutable lock_reg : Insn.reg option; (* reg holding the locked value *)
  mutable ring_reg : (Insn.reg * int) option; (* reserved chunk, size *)
  mutable budget : int;
  safe : bool; (* large programs avoid boundary probing: one bad op in
                  hundreds would reject the whole program *)
}

let reg_of_idx i =
  match Insn.reg_of_int i with Some r -> r | None -> assert false

(* The code buffer grows by doubling.  [Exit] is an immediate, so a
   fresh buffer never forces a minor collection however long it is. *)
let emit (g : t) (i : Insn.t) : unit =
  if g.len = Array.length g.code then begin
    let code = Array.make (max 16 (2 * g.len)) Insn.Exit in
    Array.blit g.code 0 code 0 g.len;
    g.code <- code
  end;
  Array.unsafe_set g.code g.len i;
  g.len <- g.len + 1

(* Give the placeholder jump at [pc] its real offset. *)
let patch_jump (g : t) (pc : int) (off : int) : unit =
  match g.code.(pc) with
  | Insn.Jmp j -> g.code.(pc) <- Insn.Jmp { j with off }
  | _ -> ()

let emits (g : t) (is : Insn.t list) : unit = List.iter (emit g) is

let set_reg (g : t) (r : Insn.reg) (s : gstate) : unit =
  let i = Insn.reg_to_int r in
  if i < 10 then g.regs.(i) <- s

let get_reg (g : t) (r : Insn.reg) : gstate = g.regs.(Insn.reg_to_int r)

let slot_init (g : t) (slot : int) : bool =
  Bytes.get g.stack_init slot <> '\000'

let init_slot (g : t) (slot : int) : unit =
  Bytes.set g.stack_init slot '\001'

(* Helper calls clobber R0-R5. *)
let clobber_caller_saved (g : t) (ret : gstate) : unit =
  g.regs.(0) <- ret;
  for i = 1 to 5 do
    g.regs.(i) <- G_uninit
  done

(* Register selection works on masks: bit [i] stands for register Ri.
   A state's kind is one bit, so "the registers in any of these kinds"
   is one pass over the file with no predicate closure to call. *)
let kind_bit = function
  | G_uninit -> 0x1
  | G_scalar -> 0x2
  | G_const _ -> 0x4
  | G_map_ptr _ -> 0x8
  | G_map_value _ -> 0x10
  | G_map_value_null _ -> 0x20
  | G_ctx -> 0x40
  | G_btf _ -> 0x80
  | G_pkt _ -> 0x100
  | G_pkt_end -> 0x200
  | G_ringbuf _ -> 0x400

let k_scalar = 0x2 lor 0x4
let k_scratch = 0x1 lor k_scalar (* dead or scalar: safe to overwrite *)
let k_map_value = 0x10
let k_ctx = 0x40
let k_btf = 0x80
let k_pkt = 0x100
let k_pkt_end = 0x200

(* R6-R9, the callee-saved registers. *)
let callee_saved = 0x3C0

let is_scalar s = kind_bit s land k_scalar <> 0

let regs_of_kinds (g : t) (kinds : int) : int =
  let m = ref 0 in
  for i = 0 to Array.length g.regs - 1 do
    if kind_bit (Array.unsafe_get g.regs i) land kinds <> 0 then
      m := !m lor (1 lsl i)
  done;
  !m

(* For the few selections a kind alone does not decide. *)
let regs_where (g : t) (p : gstate -> bool) : int =
  let m = ref 0 in
  for i = 0 to Array.length g.regs - 1 do
    if p g.regs.(i) then m := !m lor (1 lsl i)
  done;
  !m

(* A register of [mask], drawn as [Rng.choose_opt] draws from the list
   of those registers, highest index first: same draw, same pick. *)
let choose_reg (g : t) (mask : int) : Insn.reg option =
  match Rng.choose_bit g.rng mask with
  | -1 -> None
  | i -> Some (reg_of_idx i)

(* The highest-indexed register in any of [kinds], from [i] down (no
   draw). *)
let rec highest_reg (g : t) (kinds : int) (i : int) : Insn.reg option =
  if i < 0 then None
  else if kind_bit g.regs.(i) land kinds <> 0 then Some (reg_of_idx i)
  else highest_reg g kinds (i - 1)

(* A register safe to overwrite: prefer dead/scalar callee-saved regs. *)
let scratch_reg (g : t) : Insn.reg =
  match choose_reg g (regs_of_kinds g k_scratch land callee_saved) with
  | None -> Rng.choose g.rng [ Insn.R6; Insn.R7; Insn.R8; Insn.R9 ]
  | Some r -> r

let aligned_stack_slot (g : t) : int =
  (* offsets -8, -16, ..., -64: a compact working set *)
  -8 * (1 + Rng.int g.rng 8)

(* -- Init header -------------------------------------------------------- *)

(* Favour BTF objects that are NULL at runtime: comparing against those
   is what stresses the nullness analysis. *)
let btf_weights : (int * Btf.desc) list =
  List.map
    (fun d -> ((if d.Btf.runtime_null then 3 else 1), d))
    Btf.catalogue

let emit_init_header (g : t) : unit =
  (* always preserve the context pointer in R6 (R1 will be clobbered by
     the first call) *)
  emit g (Asm.mov64_reg Insn.R6 Insn.R1);
  set_reg g Insn.R6 G_ctx;
  set_reg g Insn.R1 G_ctx;
  let n_loads = 1 + Rng.int g.rng 3 in
  let targets = [ Insn.R7; Insn.R8; Insn.R9 ] in
  List.iteri
    (fun i r ->
       if i < n_loads then begin
         match Rng.weighted g.rng
                 [ (3, `Imm); (3, `Map_fd); (2, `Map_value); (2, `Btf) ]
         with
         | `Imm ->
           let v = Rng.interesting g.rng in
           if Rng.bool g.rng then begin
             emit g (Asm.ld_imm64 r v);
             set_reg g r (G_const v)
           end
           else begin
             emit g (Asm.mov64_imm r (Int64.to_int32 (Word.to_u32 v)));
             set_reg g r (G_const (Word.sext32 (Word.to_u32 v)))
           end
         | `Map_fd -> begin
             match Rng.choose_opt g.rng g.maps with
             | Some (fd, def) ->
               emit g (Asm.ld_map_fd r fd);
               set_reg g r (G_map_ptr (fd, def))
             | None -> ()
           end
         | `Map_value -> begin
             let arrays =
               List.filter
                 (fun (_, d) -> d.Map.mtype = Map.Array_map)
                 g.maps
             in
             match Rng.choose_opt g.rng arrays with
             | Some (fd, def) ->
               let off =
                 if Rng.chance g.rng 0.8 then
                   8 * Rng.int g.rng (max 1 (def.Map.value_size / 8))
                 else Rng.int g.rng (def.Map.value_size + 8)
               in
               let off = min off (def.Map.value_size - 1) in
               emit g (Asm.ld_map_value r fd off);
               set_reg g r (G_map_value (fd, def))
             | None -> ()
           end
         | `Btf ->
           let d = Rng.weighted g.rng btf_weights in
           emit g (Asm.ld_btf_obj r d.Btf.btf_id);
           set_reg g r (G_btf d)
       end)
    targets

(* -- Scalar materialization --------------------------------------------- *)

(* Ensure some register holds a scalar; returns it. *)
let any_scalar (g : t) : Insn.reg =
  match choose_reg g (regs_of_kinds g k_scalar) with
  | Some r -> r
  | None ->
    let r = scratch_reg g in
    emit g (Asm.mov64_imm r (Int32.of_int (Rng.int g.rng 256)));
    set_reg g r (G_const (Int64.of_int 0));
    r

(* A scalar provably within [0, bound): mask + modulo-free pattern. *)
let bounded_scalar (g : t) (bound : int) : Insn.reg =
  let r = any_scalar g in
  let mask =
    (* largest 2^k - 1 below bound *)
    let rec go m = if m * 2 <= bound then go (m * 2) else m - 1 in
    go 1
  in
  emit g (Asm.alu64_imm Insn.And r (Int32.of_int mask));
  set_reg g r G_scalar;
  r

(* -- Basic frame --------------------------------------------------------- *)

(* Fixed choice sets, drawn with [Rng.pick]. *)
let alu_ops =
  [| Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Or; Insn.And; Insn.Lsh;
     Insn.Rsh; Insn.Mod; Insn.Xor; Insn.Arsh; Insn.Mov |]

let sizes = [| Insn.B; Insn.H; Insn.W; Insn.DW |]
let atomic_ops = [| Insn.A_add; Insn.A_or; Insn.A_and; Insn.A_xor |]

let fwd_conds =
  [| Insn.Jeq; Insn.Jne; Insn.Jgt; Insn.Jge; Insn.Jlt; Insn.Jle; Insn.Jsgt;
     Insn.Jsge; Insn.Jset |]

let emit_scalar_alu (g : t) : unit =
  let dst = any_scalar g in
  let op = Rng.pick g.rng alu_ops in
  let op64 = Rng.chance g.rng 0.7 in
  (match Rng.weighted g.rng [ (2, `Imm); (1, `Reg) ] with
   | `Imm ->
     let imm =
       match op with
       | Insn.Lsh | Insn.Rsh | Insn.Arsh ->
         Int32.of_int (Rng.int g.rng (if op64 then 64 else 32))
       | _ -> Int64.to_int32 (Rng.interesting g.rng)
     in
     emit g (Insn.Alu { op64; op; dst; src = Insn.Imm imm })
   | `Reg ->
     let src = any_scalar g in
     emit g (Insn.Alu { op64; op; dst; src = Insn.Reg src }));
  set_reg g dst G_scalar;
  if Rng.chance g.rng 0.1 then begin
    emit g (Insn.Endian { swap = Rng.bool g.rng;
                          bits = Rng.choose g.rng [ 16; 32; 64 ]; dst });
    set_reg g dst G_scalar
  end

let emit_stack_op (g : t) : unit =
  let off = aligned_stack_slot g in
  let slot = (Prog.stack_size + off) / 8 in
  if Rng.bool g.rng || not (slot_init g slot) then begin
    (* store *)
    (match Rng.weighted g.rng [ (2, `Imm); (2, `Reg) ] with
     | `Imm ->
       let sz = Rng.pick g.rng sizes in
       emit g (Asm.st sz Insn.R10 off
                 (Int64.to_int32 (Rng.interesting g.rng)));
       (* only a full 8-byte store initializes the whole slot *)
       if sz = Insn.DW then init_slot g slot
     | `Reg ->
       let src = any_scalar g in
       emit g (Asm.stx_dw Insn.R10 src off);
       init_slot g slot)
  end
  else begin
    (* load from an initialized slot *)
    let dst = scratch_reg g in
    emit g (Asm.ldx_dw dst Insn.R10 off);
    set_reg g dst G_scalar
  end

(* Fill [bytes] of stack ending near the frame top, returning the base
   offset.  [canonical] keys draw from a tiny value set so that map
   updates and lookups issued by different programs in one session
   actually collide on the same elements. *)
let init_stack_region ?(canonical = false) (g : t) (bytes : int) : int =
  let slots = (bytes + 7) / 8 in
  let base_slot = 56 - Rng.int g.rng 8 in
  let base_slot = max 0 (min (64 - slots) base_slot) in
  for s = base_slot to base_slot + slots - 1 do
    if canonical || not (slot_init g s) then begin
      let v =
        if canonical then Rng.int g.rng 3 else Rng.int g.rng 1024
      in
      emit g (Asm.st_dw Insn.R10 (-Prog.stack_size + (s * 8))
                (Int32.of_int v));
      init_slot g s
    end
  done;
  -Prog.stack_size + (base_slot * 8)

let emit_map_value_access (g : t) : unit =
  match choose_reg g (regs_of_kinds g k_map_value) with
  | None -> ()
  | Some base ->
    let def =
      match get_reg g base with
      | G_map_value (_, d) -> d
      | _ -> assert false
    in
    let sz = Rng.pick g.rng sizes in
    let bytes = Insn.size_bytes sz in
    let lock_skip = if def.Map.has_spin_lock then 8 else 0 in
    let max_off = def.Map.value_size - bytes in
    let off =
      if g.safe || Rng.chance g.rng 0.82 then begin
        (* in-bounds, aligned, clear of the spin-lock area *)
        let lo = (lock_skip + bytes - 1) / bytes * bytes in
        let choices = max 1 ((max_off - lo) / bytes + 1) in
        lo + (bytes * Rng.int g.rng choices)
      end
      else
        (* boundary probing: exactly at or just past the end *)
        max_off + Rng.choose g.rng [ 0; 1; bytes; 8 ]
    in
    (match Rng.weighted g.rng [ (3, `Load); (2, `Store); (1, `Atomic) ] with
     | `Load ->
       let dst = scratch_reg g in
       emit g (Asm.ldx sz dst base off);
       set_reg g dst G_scalar
     | `Store ->
       if Rng.bool g.rng then
         emit g (Asm.st sz base off (Int64.to_int32 (Rng.interesting g.rng)))
       else begin
         let src = any_scalar g in
         emit g (Asm.stx sz base src off)
       end
     | `Atomic ->
       let src = any_scalar g in
       let sz = if Rng.bool g.rng then Insn.W else Insn.DW in
       let off = off / 8 * 8 in
       let off = max lock_skip (min off (def.Map.value_size - 8)) in
       emit g
         (Asm.atomic ~fetch:(Rng.bool g.rng) sz
            (Rng.pick g.rng atomic_ops)
            base src off);
       set_reg g src G_scalar)

let emit_ctx_access (g : t) : unit =
  match choose_reg g (regs_of_kinds g k_ctx) with
  | None -> ()
  | Some base ->
    let layout = Prog.ctx_layout g.prog_type in
    let f = Rng.choose g.rng layout.Prog.fields in
    let sz =
      match f.Prog.fsize with
      | 1 -> Insn.B | 2 -> Insn.H | 4 -> Insn.W | _ -> Insn.DW
    in
    if f.Prog.fwritable && Rng.chance g.rng 0.3 then
      emit g (Asm.st sz base f.Prog.foff (Int32.of_int (Rng.int g.rng 256)))
    else begin
      let dst = scratch_reg g in
      emit g (Asm.ldx sz dst base f.Prog.foff);
      set_reg g dst
        (match f.Prog.fkind with
         | Prog.Fk_scalar -> G_scalar
         | Prog.Fk_pkt_data ->
           if Prog.has_packet_access g.prog_type then G_pkt 0 else G_scalar
         | Prog.Fk_pkt_end ->
           if Prog.has_packet_access g.prog_type then G_pkt_end
           else G_scalar)
    end

let emit_btf_access (g : t) : unit =
  match choose_reg g (regs_of_kinds g k_btf) with
  | None -> ()
  | Some base ->
    let d =
      match get_reg g base with G_btf d -> d | _ -> assert false
    in
    let dst = scratch_reg g in
    let off =
      if g.safe || Rng.chance g.rng 0.75 then
        8 * Rng.int g.rng (d.Btf.btf_size / 8)
      else
        (* boundary probing around the object end: with Bug#2 the
           verifier accepts a window past task_struct *)
        d.Btf.btf_size - 8 + (8 * Rng.int g.rng 10)
    in
    emit g (Asm.ldx_dw dst base off);
    set_reg g dst G_scalar

(* Direct packet access behind the canonical bounds-check pattern. *)
let emit_packet_access (g : t) : unit =
  match
    highest_reg g k_pkt 9, highest_reg g k_pkt_end 9
  with
  | Some pkt, Some end_ -> begin
      match get_reg g pkt with
      | G_pkt range when range >= 8 ->
        let dst = scratch_reg g in
        let sz = Rng.pick g.rng sizes in
        let off = Rng.int g.rng (range - Insn.size_bytes sz + 1) in
        emit g (Asm.ldx sz dst pkt off);
        set_reg g dst G_scalar
      | G_pkt _ ->
        (* prove a range: tmp = pkt + N; if tmp > end goto +1-ish.
           Emitted as: r = pkt; r += N; if r > end goto (skip access). *)
        let n = 8 * (1 + Rng.int g.rng 4) in
        let tmp = scratch_reg g in
        let dst = scratch_reg g in
        emits g
          [ Asm.mov64_reg tmp pkt;
            Asm.alu64_imm Insn.Add tmp (Int32.of_int n);
            Asm.jmp_reg Insn.Jgt tmp end_ 1;
            Asm.ldx_dw dst pkt (n - 8) ];
        set_reg g tmp G_scalar (* conservatively forget *)
        ;
        set_reg g dst G_scalar;
        set_reg g pkt (G_pkt n)
      | _ -> ()
    end
  | _, _ -> ()

(* Pointer arithmetic on a map value with a masked scalar. *)
let emit_ptr_arith (g : t) : unit =
  match choose_reg g (regs_of_kinds g k_map_value) with
  | None -> ()
  | Some base ->
    let def =
      match get_reg g base with
      | G_map_value (_, d) -> d
      | _ -> assert false
    in
    let offr = bounded_scalar g (max 8 (def.Map.value_size / 2)) in
    emit g (Asm.alu64_reg Insn.Add base offr);
    let dst = scratch_reg g in
    let off = if def.Map.has_spin_lock then 8 else 0 in
    emit g (Asm.ldx_b dst base off);
    set_reg g dst G_scalar;
    (* the pointer now carries a variable offset: later fixed-offset
       accesses through it would overrun, so retire it *)
    set_reg g base G_uninit

let emit_basic_frame (g : t) : unit =
  let n = 1 + Rng.int g.rng 4 in
  for _ = 1 to n do
    match
      Rng.weighted g.rng
        [ (4, `Alu); (3, `Stack); (3, `Map_value); (2, `Ctx); (1, `Btf);
          (2, `Packet); (1, `Ptr_arith) ]
    with
    | `Alu -> emit_scalar_alu g
    | `Stack -> emit_stack_op g
    | `Map_value -> emit_map_value_access g
    | `Ctx -> emit_ctx_access g
    | `Btf -> emit_btf_access g
    | `Packet -> emit_packet_access g
    | `Ptr_arith -> emit_ptr_arith g
  done

(* -- Call frame ---------------------------------------------------------- *)

(* Early-exit sequence releasing everything currently held (a leaked
   reference or spin lock at EXIT is an instant reject, so every exit
   the generator plants must clean up first). *)
let early_exit_seq (g : t) : Insn.t list =
  let unlock =
    match g.lock_reg with
    | Some v ->
      [ Asm.mov64_reg Insn.R1 v; Asm.call Helper.spin_unlock.Helper.id ]
    | None -> []
  in
  let release =
    match g.ring_reg with
    | Some (r, _) ->
      [ Asm.mov64_reg Insn.R1 r;
        Asm.mov64_imm Insn.R2 0l;
        Asm.call Helper.ringbuf_discard.Helper.id ]
    | None -> []
  in
  unlock @ release @ [ Asm.mov64_imm Insn.R0 0l; Asm.exit_ ]

(* After a nullable helper return: mostly emit the canonical null-check
   epilogue; occasionally probe the verifier by skipping it or by
   comparing against another pointer (the Bug#1 shape). *)
let guard_nullable (g : t) (non_null : gstate) : unit =
  let no_btf = regs_of_kinds g k_btf = 0 in
  match Rng.weighted g.rng
          [ (7, `Null_check); ((if g.safe then 0 else 3), `Skip);
            ((if no_btf || g.safe then 0 else 3), `Btf_compare) ]
  with
  | `Null_check ->
    let seq = early_exit_seq g in
    emits g (Asm.jmp_imm Insn.Jne Insn.R0 0l (List.length seq) :: seq);
    set_reg g Insn.R0 non_null
  | `Skip -> () (* leave it nullable; downstream use will probe *)
  | `Btf_compare ->
    (* if r0 == r_btf goto +n ; <cleanup; exit> ; <equal path>:
       nullness propagation marks r0 non-null in the equal path, and
       the Listing 2 shape dereferences it right there *)
    let btf = Option.get (choose_reg g (regs_of_kinds g k_btf)) in
    let seq = early_exit_seq g in
    emits g (Asm.jmp_reg Insn.Jeq Insn.R0 btf (List.length seq) :: seq);
    set_reg g Insn.R0 non_null;
    (match non_null with
     | G_map_value (_, def) ->
       let off = if def.Map.has_spin_lock then 8 else 0 in
       let dst = scratch_reg g in
       emit g (Asm.ldx_dw dst Insn.R0 off);
       set_reg g dst G_scalar
     | _ -> ())

let setup_mem_pair (g : t) ~(write : bool) ~(max : int)
    ~(allow_zero : bool) (mem_reg : Insn.reg) (size_reg : Insn.reg) : unit
  =
  ignore write;
  let size = (if allow_zero && Rng.chance g.rng 0.05 then 0 else 8)
             + 8 * Rng.int g.rng (min 4 (max / 8))
  in
  let size = max |> min (Stdlib.max size 1) in
  let base = init_stack_region g size in
  emits g
    [ Asm.mov64_reg mem_reg Insn.R10;
      Asm.alu64_imm Insn.Add mem_reg (Int32.of_int base);
      Asm.mov64_imm size_reg (Int32.of_int size) ]

(* Prepare R1..Rn for [args]; returns false if impossible here. *)
let setup_args (g : t) (args : Helper.arg list) : bool =
  let arg_reg i = reg_of_idx (i + 1) in
  let ok = ref true in
  let pending_mem : (Insn.reg * bool) option ref = ref None in
  List.iteri
    (fun i arg ->
       if !ok then
         let r = arg_reg i in
         match arg with
         | Helper.Anything ->
           emit g (Asm.mov64_imm r (Int32.of_int (Rng.int g.rng 64)))
         | Helper.Const_map_ptr -> begin
             (* pick a map appropriate for the call when recognizable *)
             match Rng.choose_opt g.rng g.maps with
             | Some (fd, _) -> emit g (Asm.ld_map_fd r fd)
             | None -> ok := false
           end
         | Helper.Map_key -> begin
             match
               List.find_opt
                 (fun (_, d) -> d.Map.key_size > 0)
                 g.maps
             with
             | Some (_, d) ->
               let base = init_stack_region ~canonical:true g d.Map.key_size
               in
               emits g
                 [ Asm.mov64_reg r Insn.R10;
                   Asm.alu64_imm Insn.Add r (Int32.of_int base) ]
             | None -> ok := false
           end
         | Helper.Map_value -> begin
             match g.maps with
             | (_, d) :: _ ->
               let base = init_stack_region g d.Map.value_size in
               emits g
                 [ Asm.mov64_reg r Insn.R10;
                   Asm.alu64_imm Insn.Add r (Int32.of_int base) ]
             | [] -> ok := false
           end
         | Helper.Mem_rd -> pending_mem := Some (r, false)
         | Helper.Mem_wr -> pending_mem := Some (r, true)
         | Helper.Size { max; allow_zero } -> begin
             match !pending_mem with
             | Some (mem_reg, write) ->
               setup_mem_pair g ~write ~max:(min max 64) ~allow_zero
                 mem_reg r;
               pending_mem := None
             | None ->
               emit g (Asm.mov64_imm r (Int32.of_int (1 + Rng.int g.rng 8)))
           end
         | Helper.Ctx -> begin
             match choose_reg g (regs_of_kinds g k_ctx) with
             | Some c -> emit g (Asm.mov64_reg r c)
             | None -> ok := false
           end
         | Helper.Btf_task -> begin
             match
               choose_reg g
                 (regs_where g (function
                    | G_btf d -> d.Btf.btf_name = "task_struct"
                    | _ -> false))
             with
             | Some b -> emit g (Asm.mov64_reg r b)
             | None ->
               emit g (Asm.ld_btf_obj r Btf.task_struct.Btf.btf_id)
           end
         | Helper.Spin_lock -> begin
             match
               choose_reg g
                 (regs_where g (function
                    | G_map_value (_, d) -> d.Map.has_spin_lock
                    | _ -> false))
             with
             | Some v ->
               emit g (Asm.mov64_reg r v);
               g.lock_reg <- Some v
             | None -> ok := false
           end
         | Helper.Scalar_const ->
           emit g (Asm.mov64_imm r (Int32.of_int (8 * (1 + Rng.int g.rng 4)))))
    args;
  !ok

let lookup_pattern (g : t) : unit =
  (* the canonical Table 1 flow: key on stack, lookup, null-check *)
  match
    List.filter (fun (_, d) -> d.Map.mtype <> Map.Ringbuf) g.maps
  with
  | [] -> ()
  | candidates ->
    let fd, def = Rng.choose g.rng candidates in
    let base = init_stack_region ~canonical:true g (max 4 def.Map.key_size)
    in
    (* usually make sure the element exists, so the lookup hits and the
       interesting post-lookup behaviour actually executes; otherwise
       force a key outside the canonical set so the NULL path of the
       lookup genuinely runs (sessions accumulate the canonical keys) *)
    let update_first =
      def.Map.mtype = Map.Hash_map && Rng.chance g.rng 0.7
    in
    if not update_first then
      emit g
        (Asm.st_dw Insn.R10 base (Int32.of_int (100 + Rng.int g.rng 8)));
    if update_first then begin
      let vbase = init_stack_region g def.Map.value_size in
      emits g
        [ Asm.ld_map_fd Insn.R1 fd;
          Asm.mov64_reg Insn.R2 Insn.R10;
          Asm.alu64_imm Insn.Add Insn.R2 (Int32.of_int base);
          Asm.mov64_reg Insn.R3 Insn.R10;
          Asm.alu64_imm Insn.Add Insn.R3 (Int32.of_int vbase);
          Asm.mov64_imm Insn.R4 0l;
          Asm.call Helper.map_update_elem.Helper.id ];
      clobber_caller_saved g G_scalar
    end;
    emits g
      [ Asm.ld_map_fd Insn.R1 fd;
        Asm.mov64_reg Insn.R2 Insn.R10;
        Asm.alu64_imm Insn.Add Insn.R2 (Int32.of_int base);
        Asm.call Helper.map_lookup_elem.Helper.id ];
    clobber_caller_saved g (G_map_value_null (fd, def));
    guard_nullable g (G_map_value (fd, def))

let ringbuf_pattern (g : t) : unit =
  match
    List.find_opt (fun (_, d) -> d.Map.mtype = Map.Ringbuf) g.maps
  with
  | None -> ()
  | Some (fd, _) when g.ring_reg = None ->
    let size = 8 * (1 + Rng.int g.rng 4) in
    emits g
      [ Asm.ld_map_fd Insn.R1 fd;
        Asm.mov64_imm Insn.R2 (Int32.of_int size);
        Asm.mov64_imm Insn.R3 0l;
        Asm.call Helper.ringbuf_reserve.Helper.id ];
    clobber_caller_saved g G_uninit;
    (* null-check, then stash the chunk in a callee-saved reg *)
    emits g
      [ Asm.jmp_imm Insn.Jne Insn.R0 0l 2;
        Asm.mov64_imm Insn.R0 0l;
        Asm.exit_ ];
    let keep = scratch_reg g in
    emit g (Asm.mov64_reg keep Insn.R0);
    set_reg g keep (G_ringbuf size);
    set_reg g Insn.R0 (G_ringbuf size);
    g.ring_reg <- Some (keep, size);
    (* write into the chunk *)
    if Rng.bool g.rng then
      emit g (Asm.st_dw keep 0 (Int64.to_int32 (Rng.interesting g.rng)))
  | Some _ -> ()

(* Lookup a spin-lock map value and take/release its lock: the Figure 2
   shape when the program is attached to contention_begin (Bug#5). *)
let spin_pattern (g : t) : unit =
  match
    List.filter (fun (_, d) -> d.Map.has_spin_lock) g.maps
  with
  | [] -> ()
  | candidates ->
    if g.lock_reg = None then begin
      let fd, def = Rng.choose g.rng candidates in
      let base = init_stack_region ~canonical:true g (max 4 def.Map.key_size)
      in
      let vbase = init_stack_region g def.Map.value_size in
      emits g
        [ Asm.ld_map_fd Insn.R1 fd;
          Asm.mov64_reg Insn.R2 Insn.R10;
          Asm.alu64_imm Insn.Add Insn.R2 (Int32.of_int base);
          Asm.mov64_reg Insn.R3 Insn.R10;
          Asm.alu64_imm Insn.Add Insn.R3 (Int32.of_int vbase);
          Asm.mov64_imm Insn.R4 0l;
          Asm.call Helper.map_update_elem.Helper.id ];
      clobber_caller_saved g G_scalar;
      emits g
        [ Asm.ld_map_fd Insn.R1 fd;
          Asm.mov64_reg Insn.R2 Insn.R10;
          Asm.alu64_imm Insn.Add Insn.R2 (Int32.of_int base);
          Asm.call Helper.map_lookup_elem.Helper.id ];
      clobber_caller_saved g (G_map_value_null (fd, def));
      let seq = early_exit_seq g in
      emits g
        (Asm.jmp_imm Insn.Jne Insn.R0 0l (List.length seq) :: seq);
      set_reg g Insn.R0 (G_map_value (fd, def));
      let keep = scratch_reg g in
      emit g (Asm.mov64_reg keep Insn.R0);
      set_reg g keep (G_map_value (fd, def));
      g.lock_reg <- Some keep;
      emits g
        [ Asm.mov64_reg Insn.R1 keep;
          Asm.call Helper.spin_lock.Helper.id ];
      clobber_caller_saved g G_uninit;
      (* short critical section *)
      if Rng.bool g.rng then
        emit g (Asm.st_w keep 8 (Int32.of_int (Rng.int g.rng 100)));
      if Rng.chance g.rng 0.95 then begin
        emits g
          [ Asm.mov64_reg Insn.R1 keep;
            Asm.call Helper.spin_unlock.Helper.id ];
        clobber_caller_saved g G_uninit;
        g.lock_reg <- None
      end
      (* else: leave it held; the end section unlocks (and the verifier
         rejects intervening helper calls, probing that logic) *)
    end

let kfunc_pattern (g : t) : unit =
  if Version.at_least g.version Version.V6_1 then begin
    (* r0 = bpf_obj_id(x): scalar whose bounds differ per path — the
       Bug#3 shape when joined over a branch and used as an offset *)
    emit g (Asm.mov64_imm Insn.R1 (Int32.of_int (Rng.int g.rng 1024)));
    emit g (Asm.call_kfunc Helper.kfunc_obj_id.Helper.kid);
    clobber_caller_saved g G_scalar;
    match choose_reg g (regs_of_kinds g k_map_value) with
    | Some base when Rng.chance g.rng 0.7 ->
      let def =
        match get_reg g base with
        | G_map_value (_, d) -> d
        | _ -> assert false
      in
      let bound = max 8 (def.Map.value_size / 2) in
      let keep = scratch_reg g in
      emit g (Asm.mov64_reg keep Insn.R0);
      (* A two-way join where only the fall-through path bounds the
         kfunc-derived scalar.  The sound verifier explores both arms
         and rejects the unbounded one; with Bug#3 the stored state at
         the join treats kfunc scalars as interchangeable and prunes
         the unsafe arm away. *)
      emits g
        [ Asm.jmp_imm Insn.Jgt keep (Int32.of_int (bound - 1)) 1;
          Asm.ja 0;
          Asm.alu64_reg Insn.Add base keep ];
      let dst = scratch_reg g in
      emit g (Asm.ldx_b dst base 0);
      set_reg g dst G_scalar;
      set_reg g keep G_scalar
    | _ -> ()
  end

(* The helpers an [`Any_helper] call frame draws from, per (version,
   program type), built once: lock pairing and reference release are
   left to the dedicated patterns and the end section.  Read-only after
   module initialization, so domains share it. *)
let any_helper_table :
  (Version.t * (Prog.prog_type * Helper.t array) list) list =
  List.map
    (fun version ->
       ( version,
         List.map
           (fun pt ->
              ( pt,
                Helper.available ~version ~pt
                |> List.filter (fun h ->
                    h.Helper.name <> "spin_unlock"
                    && h.Helper.name <> "ringbuf_submit"
                    && h.Helper.name <> "ringbuf_discard"
                    && h.Helper.name <> "ringbuf_reserve")
                |> Array.of_list ))
           Prog.all_prog_types ))
    Version.all

let any_helpers (version : Version.t) (pt : Prog.prog_type) :
  Helper.t array =
  List.assq pt (List.assq version any_helper_table)

let emit_call_frame (g : t) ~(depth : int) : unit =
  match
    Rng.weighted g.rng
      [ (4, `Lookup); (4, `Any_helper);
        (* kfunc probing patterns are too spicy for large programs *)
        (* reserve/submit and lock/unlock pairings must dominate the
           exit, so these patterns only appear in straight-line
           context *)
        ((if depth = 0 then 1 else 0), `Ringbuf);
        ((if depth = 0 then 1 else 0), `Spin);
        ((if g.safe then 0 else 1), `Kfunc) ]
  with
  | `Lookup -> lookup_pattern g
  | `Ringbuf -> ringbuf_pattern g
  | `Spin -> spin_pattern g
  | `Kfunc -> kfunc_pattern g
  | `Any_helper -> begin
      let available = any_helpers g.version g.prog_type in
      match Array.length available with
      | 0 -> ()
      | n ->
        let h = available.(Rng.int g.rng n) in
        if setup_args g h.Helper.args then begin
          emit g (Asm.call h.Helper.id);
          let ret =
            match h.Helper.ret with
            | Helper.R_integer -> G_scalar
            | Helper.R_void -> G_uninit
            | Helper.R_map_value_or_null -> begin
                match g.maps with
                | (fd, d) :: _ -> G_map_value_null (fd, d)
                | [] -> G_uninit
              end
            | Helper.R_btf_task_or_null -> G_uninit
            | Helper.R_ringbuf_mem_or_null -> G_uninit
          in
          clobber_caller_saved g ret;
          (match h.Helper.ret with
           | Helper.R_map_value_or_null -> begin
               match g.maps with
               | (fd, d) :: _ -> guard_nullable g (G_map_value (fd, d))
               | [] -> ()
             end
           | Helper.R_btf_task_or_null ->
             let seq = early_exit_seq g in
             emits g
               (Asm.jmp_imm Insn.Jne Insn.R0 0l (List.length seq) :: seq);
             set_reg g Insn.R0 (G_btf Btf.task_struct)
           | _ -> ());
          (* paired lock release *)
          if h.Helper.name = "spin_lock" then begin
            (match g.lock_reg with
             | Some v ->
               (* a couple of ops inside the critical section *)
               if Rng.bool g.rng then
                 emit g (Asm.st_w v 8 (Int32.of_int (Rng.int g.rng 100)));
               emit g (Asm.mov64_reg Insn.R1 v);
               emit g (Asm.call Helper.spin_unlock.Helper.id);
               clobber_caller_saved g G_uninit
             | None -> ());
            g.lock_reg <- None
          end
        end
    end

(* -- Jump frame ----------------------------------------------------------- *)

(* Join after a branch body: forget registers whose state diverged from
   [saved], the state before it.  Each register is compared with its own
   saved state only, so the file is updated in place. *)
let join (g : t) (saved : gstate array) : unit =
  for i = 0 to Array.length g.regs - 1 do
    let s = g.regs.(i) and old = saved.(i) in
    if s != old && s <> old then
      g.regs.(i) <-
        (if is_scalar s && is_scalar old then G_scalar else G_uninit)
  done

let rec emit_jump_frame (g : t) ~(depth : int) : unit =
  let fwd () =
    (* if <cond> goto +len(body); <body frames> *)
    let d = any_scalar g in
    let cond = Rng.pick g.rng fwd_conds in
    let placeholder = g.len in
    emit g (Asm.jmp_imm cond d (Int64.to_int32 (Rng.interesting g.rng)) 0);
    let before = g.len in
    let saved = Array.copy g.regs in
    let saved_stack = Bytes.copy g.stack_init in
    emit_frames g ~depth:(depth + 1) ~n:(1 + Rng.int g.rng 2);
    let body_len = g.len - before in
    (* join: only stack slots initialized before the branch are
       guaranteed on both paths *)
    g.stack_init <- saved_stack;
    join g saved;
    patch_jump g placeholder body_len
  in
  let back () =
    (* bounded loop: r = 0; LOOP: body; r += 1; if r < K goto LOOP *)
    let counter = scratch_reg g in
    emit g (Asm.mov64_imm counter 0l);
    set_reg g counter G_scalar;
    let loop_start = g.len in
    let saved = Array.copy g.regs in
    emit_frames g ~depth:(depth + 1) ~n:1;
    join g saved;
    if get_reg g counter <> G_scalar && get_reg g counter <> G_uninit then
      ()
    else begin
      emit g (Asm.alu64_imm Insn.Add counter 1l);
      let k = 2 + Rng.int g.rng 4 in
      let body_len = g.len - loop_start in
      emit g (Asm.jmp_imm Insn.Jlt counter (Int32.of_int k)
                (-(body_len + 1)));
      set_reg g counter G_scalar
    end
  in
  let wide () =
    (* widening-exercising counted loop: the trip count is past the
       unroll budget, so only convergence at the certified loop head
       verifies it.  The body is synthesized directly (not via
       emit_frames) so the counter provably stays untouched — the
       certificate's only-write condition — while still carrying
       scalar arithmetic across iterations, re-deriving map-value
       pointer walks inside the body, and occasionally breaking out
       past the back edge on a data condition. *)
    let counter = scratch_reg g in
    emit g (Asm.mov64_imm counter 0l);
    set_reg g counter G_scalar;
    let pick_scratch (avoid : Insn.reg list) : Insn.reg option =
      let avoid =
        List.fold_left (fun m r -> m lor (1 lsl Insn.reg_to_int r)) 0 avoid
      in
      choose_reg g
        (regs_of_kinds g k_scratch land callee_saved land lnot avoid)
    in
    let acc = pick_scratch [ counter ] in
    (match acc with
     | Some a ->
       emit g (Asm.mov64_imm a 0l);
       set_reg g a G_scalar
     | None -> ());
    let loop_start = g.len in
    (* loop-carried scalar arithmetic on the accumulator *)
    (match acc with
     | Some a ->
       if Rng.bool g.rng then emit g (Asm.alu64_reg Insn.Add a counter)
       else
         emit g
           (Asm.alu64_imm
              (Rng.choose g.rng [ Insn.Add; Insn.Xor ])
              a
              (Int32.of_int (1 + Rng.int g.rng 64)));
       set_reg g a G_scalar
     | None -> ());
    (* pointer arithmetic re-derived each iteration: walk a fresh copy
       of a map-value pointer and load through it.  The copy dies at
       the head, so the loop state still converges (a pointer CARRIED
       across the back edge would refuse to widen). *)
    (match choose_reg g (regs_of_kinds g k_map_value) with
     | Some base when Rng.chance g.rng 0.5 -> (
       match pick_scratch (counter :: Option.to_list acc) with
       | Some tmp ->
         let def =
           match get_reg g base with
           | G_map_value (_, d) -> d
           | _ -> assert false
         in
         let lock_skip = if def.Map.has_spin_lock then 8 else 0 in
         if def.Map.value_size - lock_skip >= 8 then begin
           emit g (Asm.mov64_reg tmp base);
           emit g (Asm.alu64_imm Insn.Add tmp (Int32.of_int lock_skip));
           emit g (Asm.ldx_w tmp tmp 0);
           set_reg g tmp G_scalar
         end
       | None -> ())
     | _ -> ());
    (* conditional break past the back edge (patched below) *)
    let break_ph =
      match acc with
      | Some a when Rng.chance g.rng 0.4 ->
        let cond = Rng.choose g.rng [ Insn.Jgt; Insn.Jsgt; Insn.Jset ] in
        let ph = g.len in
        emit g
          (Asm.jmp_imm cond a (Int64.to_int32 (Rng.interesting g.rng)) 0);
        Some ph
      | _ -> None
    in
    emit g (Asm.alu64_imm Insn.Add counter 1l);
    let k = 32 + Rng.int g.rng 224 in
    let body_len = g.len - loop_start in
    emit g
      (Asm.jmp_imm
         (Rng.choose g.rng [ Insn.Jlt; Insn.Jle ])
         counter (Int32.of_int k)
         (-(body_len + 1)));
    (match break_ph with
     | Some ph -> patch_jump g ph (g.len - ph - 1)
     | None -> ());
    set_reg g counter G_scalar
  in
  if depth < 2 && Rng.chance g.rng 0.25 then
    (if Rng.chance g.rng 0.4 then wide () else back ())
  else fwd ()

and emit_frames (g : t) ~(depth : int) ~(n : int) : unit =
  for _ = 1 to n do
    if g.len < g.budget then
      (* the paper: select one of the frame kinds with equal
         probability *)
      match Rng.int g.rng 3 with
      | 0 -> emit_basic_frame g
      | 1 -> emit_call_frame g ~depth
      | _ -> emit_jump_frame g ~depth
  done

(* -- End section ---------------------------------------------------------- *)

let emit_end_section (g : t) : unit =
  (match g.lock_reg with
   | Some v ->
     emit g (Asm.mov64_reg Insn.R1 v);
     emit g (Asm.call Helper.spin_unlock.Helper.id);
     clobber_caller_saved g G_uninit;
     g.lock_reg <- None
   | None -> ());
  (match g.ring_reg with
   | Some (r, _) ->
     emits g
       [ Asm.mov64_reg Insn.R1 r;
         Asm.mov64_imm Insn.R2 0l;
         Asm.call
           (if Rng.bool g.rng then Helper.ringbuf_submit.Helper.id
            else Helper.ringbuf_discard.Helper.id) ];
     clobber_caller_saved g G_uninit;
     g.ring_reg <- None
   | None -> ());
  let ret =
    match Prog.return_range g.prog_type with
    | Some (lo, hi) ->
      Int64.to_int32
        (Int64.add lo
           (Int64.of_int (Rng.int g.rng (Int64.to_int (Int64.sub hi lo) + 1))))
    | None -> Int32.of_int (Rng.int g.rng 1024)
  in
  emits g [ Asm.mov64_imm Insn.R0 ret; Asm.exit_ ]

(* -- Top level ------------------------------------------------------------- *)

type config = {
  c_version : Version.t;
  c_maps : (int * Map.def) list; (* fds created in the session *)
}

let pick_prog_type (rng : Rng.t) : Prog.prog_type =
  Rng.weighted rng
    [ (3, Prog.Socket_filter); (3, Prog.Kprobe); (2, Prog.Tracepoint);
      (1, Prog.Raw_tracepoint); (2, Prog.Xdp); (1, Prog.Perf_event);
      (1, Prog.Cgroup_skb) ]

let pick_attach (rng : Rng.t) ~(version : Version.t)
    (pt : Prog.prog_type) : string option =
  if not (Prog.is_tracing pt) then None
  else begin
    let candidates = Tracepoint.available ~version ~pt in
    match candidates with
    | [] -> None
    | _ when Rng.chance rng 0.25 -> None
    | _ -> Some (Rng.choose rng candidates).Tracepoint.tp_name
  end

(* Generate one structured program request. *)
let generate (rng : Rng.t) (cfg : config) : Verifier.request =
  let prog_type = pick_prog_type rng in
  let attach = pick_attach rng ~version:cfg.c_version prog_type in
  let offload = prog_type = Prog.Xdp && Rng.chance rng 0.1 in
  let big = Rng.chance rng 0.035 in
  let budget =
    (* occasional very large programs probe the syscall paths that only
       misbehave above allocation limits (Bug#8) *)
    if big then 500 + Rng.int rng 500 else 20 + Rng.int rng 60
  in
  let g =
    {
      rng;
      version = cfg.c_version;
      prog_type;
      maps = cfg.c_maps;
      regs = Array.make 10 G_uninit;
      stack_init = Bytes.make 64 '\000';
      (* frames overshoot the budget a little; rarely past this *)
      code = Array.make (budget + 32) Insn.Exit;
      len = 0;
      lock_reg = None;
      ring_reg = None;
      budget;
      safe = big;
    }
  in
  g.regs.(1) <- G_ctx;
  emit_init_header g;
  emit_frames g ~depth:0 ~n:(2 + Rng.int rng 5);
  (* large-budget programs keep appending frames (Bug#8 surface) *)
  let guard = ref 0 in
  while g.len < g.budget - 8 && !guard < 4096 do
    incr guard;
    emit_frames g ~depth:0 ~n:1
  done;
  emit_end_section g;
  let insns = Array.sub g.code 0 g.len in
  { Verifier.r_prog_type = prog_type; r_attach = attach;
    r_offload = offload; r_insns = insns }
