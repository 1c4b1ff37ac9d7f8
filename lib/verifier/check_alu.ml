open Vimport

(* ALU instruction checking: scalar bounds arithmetic (the kernel's
   adjust_scalar_min_max_vals) and pointer arithmetic
   (adjust_ptr_min_max_vals), including the alu_limit computation that
   the sanitize pass turns into runtime assertions.

   Injected bug: with [Cve_2022_23222] present, arithmetic on
   maybe-null pointers is permitted (Listing 1 of the paper). *)

open Regstate

let u32_max = 0xFFFF_FFFFL

(* -- Scalar ops -------------------------------------------------------- *)

let unbounded (r : Regstate.t) : Regstate.t =
  { r with smin = Int64.min_int; smax = Int64.max_int; umin = 0L;
    umax = -1L }

let signed_add_overflows a b =
  let s = Int64.add a b in
  (b > 0L && s < a) || (b < 0L && s > a)

let signed_sub_overflows a b =
  let s = Int64.sub a b in
  (b < 0L && s < a) || (b > 0L && s > a)

let scalar_add (d : t) (s : t) : t =
  let smin, smax =
    if signed_add_overflows d.smin s.smin
       || signed_add_overflows d.smax s.smax
    then (Int64.min_int, Int64.max_int)
    else (Int64.add d.smin s.smin, Int64.add d.smax s.smax)
  in
  let umin, umax =
    (* unsigned overflow check *)
    if Word.ult (Int64.add d.umin s.umin) d.umin
       || Word.ult (Int64.add d.umax s.umax) d.umax
    then (0L, -1L)
    else (Int64.add d.umin s.umin, Int64.add d.umax s.umax)
  in
  sync { d with var_off = Tnum.add d.var_off s.var_off; smin; smax; umin;
         umax }

let scalar_sub (d : t) (s : t) : t =
  let smin, smax =
    if signed_sub_overflows d.smin s.smax
       || signed_sub_overflows d.smax s.smin
    then (Int64.min_int, Int64.max_int)
    else (Int64.sub d.smin s.smax, Int64.sub d.smax s.smin)
  in
  let umin, umax =
    if Word.ult d.umin s.umax then (0L, -1L)
    else (Int64.sub d.umin s.umax, Int64.sub d.umax s.umin)
  in
  sync { d with var_off = Tnum.sub d.var_off s.var_off; smin; smax; umin;
         umax }

let scalar_bitop op (d : t) (s : t) : t =
  let var_off =
    match op with
    | `And -> Tnum.and_ d.var_off s.var_off
    | `Or -> Tnum.or_ d.var_off s.var_off
    | `Xor -> Tnum.xor d.var_off s.var_off
  in
  let base =
    { d with var_off; umin = Tnum.umin var_off; umax = Tnum.umax var_off }
  in
  (* signed bounds: non-negative when both operands are *)
  let base =
    if d.smin >= 0L && s.smin >= 0L then
      { base with smin = 0L; smax = Int64.max_int }
    else { base with smin = Int64.min_int; smax = Int64.max_int }
  in
  sync base

let scalar_mul (d : t) (s : t) : t =
  let var_off = Tnum.mul d.var_off s.var_off in
  if Word.ule d.umax u32_max && Word.ule s.umax u32_max then begin
    (* both operands fit in 32 bits: the unsigned product cannot wrap
       64 bits, so the unsigned bounds are exact *)
    let umin = Int64.mul d.umin s.umin in
    let umax = Int64.mul d.umax s.umax in
    (* kernel adjust_scalar_min_max_vals: the unsigned bounds carry over
       to the signed ones only when the product provably fits in S64 —
       a product of 2^63 or above is negative as a signed value *)
    let smin, smax =
      if Word.ule umax Int64.max_int then (umin, umax)
      else (Int64.min_int, Int64.max_int)
    in
    sync { d with var_off; smin; smax; umin; umax }
  end
  else sync { (unbounded d) with var_off }

let scalar_div (d : t) (_s : t) : t =
  (* unsigned division: result never exceeds the dividend *)
  sync
    { d with var_off = Tnum.unknown; smin = Int64.min_int;
      smax = Int64.max_int; umin = 0L; umax = d.umax }

let scalar_mod (d : t) (s : t) : t =
  (* x mod 0 = x in eBPF, so the result is bounded by max(x, y-1) *)
  let umax =
    if s.umin <> 0L && Word.ult (Int64.sub s.umax 1L) d.umax then
      Int64.sub s.umax 1L
    else d.umax
  in
  sync
    { d with var_off = Tnum.unknown; smin = Int64.min_int;
      smax = Int64.max_int; umin = 0L; umax }

let scalar_shift op (d : t) (s : t) ~(op64 : bool) : t =
  let bits = if op64 then 64 else 32 in
  match Regstate.const_value s with
  | Some sh64 ->
    let sh = Int64.to_int (Int64.logand sh64 (Int64.of_int (bits - 1))) in
    if sh = 0 then Regstate.sync d (* identity shift *)
    else
    (match op with
     | `Lsh ->
       let var_off = Tnum.lshift d.var_off sh in
       (* kernel scalar_min_max_lsh: the shift is monotone only while
          no member overflows, i.e. while [umax] fits.  Once it does
          not, the members' images wrap and interleave, so BOTH bounds
          go: a shifted [umin] alone would claim a lower bound a
          wrapped member (e.g. [2^31 << 33 = 0]) falls below. *)
       let umin, umax =
         if Word.ule d.umax (Word.shr64 (-1L) (Int64.of_int sh)) then
           (Int64.shift_left d.umin sh, Int64.shift_left d.umax sh)
         else (0L, -1L)
       in
       sync
         { d with var_off; smin = Int64.min_int; smax = Int64.max_int;
           umin; umax }
     | `Rsh ->
       let var_off = Tnum.rshift d.var_off sh in
       sync
         { d with var_off; smin = 0L; smax = Int64.max_int;
           umin = Int64.shift_right_logical d.umin sh;
           umax = Int64.shift_right_logical d.umax sh }
     | `Arsh ->
       let var_off = Tnum.arshift d.var_off sh ~bits in
       sync
         { d with var_off; smin = Int64.shift_right d.smin sh;
           smax = Int64.shift_right d.smax sh; umin = 0L; umax = -1L })
  | None -> begin
      match op with
      | `Rsh ->
        (* shifting right by an unknown amount cannot grow the value
           (unsigned); the shift may be zero, so negative signed values
           survive *)
        sync
          { d with var_off = Tnum.unknown;
            smin = Word.smin d.smin 0L;
            smax = Int64.max_int; umin = 0L; umax = d.umax }
      | `Lsh | `Arsh -> unbounded { d with var_off = Tnum.unknown }
    end

(* Dispatch one scalar ALU op at 64-bit width. *)
let scalar_op64 (op : Insn.alu_op) (d : t) (s : t) : t =
  match op with
  | Insn.Add -> scalar_add d s
  | Insn.Sub -> scalar_sub d s
  | Insn.And -> scalar_bitop `And d s
  | Insn.Or -> scalar_bitop `Or d s
  | Insn.Xor -> scalar_bitop `Xor d s
  | Insn.Mul -> scalar_mul d s
  | Insn.Div -> scalar_div d s
  | Insn.Mod -> scalar_mod d s
  | Insn.Lsh -> scalar_shift `Lsh d s ~op64:true
  | Insn.Rsh -> scalar_shift `Rsh d s ~op64:true
  | Insn.Arsh -> scalar_shift `Arsh d s ~op64:true
  | Insn.Neg -> scalar_sub (Regstate.const_scalar 0L) d
  | Insn.Mov -> s

(* 32-bit ALU: operate on truncated operands, zero-extend the result.
   Shifts are tracked purely through the tnum domain at 32 bits — the
   signed-range reasoning of the 64-bit path does not transfer to
   zero-extended subregisters. *)
let scalar_op32 (op : Insn.alu_op) (d : t) (s : t) : t =
  let d32 = Regstate.truncate32 d and s32 = Regstate.truncate32 s in
  match op with
  | Insn.Lsh | Insn.Rsh | Insn.Arsh -> begin
      match Regstate.const_value s32 with
      | Some sh64 ->
        let sh = Int64.to_int (Int64.logand sh64 31L) in
        let t = Tnum.cast d32.var_off ~size:4 in
        let shifted =
          match op with
          | Insn.Lsh -> Tnum.cast (Tnum.lshift t sh) ~size:4
          | Insn.Rsh -> Tnum.rshift t sh
          | _ -> Tnum.arshift t sh ~bits:32
        in
        Regstate.truncate32 (Regstate.scalar_of_tnum shifted)
      | None ->
        Regstate.scalar_range ~umin:0L ~umax:u32_max
    end
  | Insn.Add | Insn.Sub | Insn.And | Insn.Or | Insn.Xor | Insn.Mul
  | Insn.Div | Insn.Mod | Insn.Neg | Insn.Mov ->
    Regstate.truncate32 (scalar_op64 op d32 s32)

(* -- Pointer arithmetic ------------------------------------------------ *)

(* Span of the object a pointer addresses: (start, end) relative to the
   pointer's original position.  Used for both static reasoning and the
   alu_limit runtime assertion. *)
let object_span (env : Venv.t) (pk : Regstate.ptr_kind) :
  (int * int) option =
  match pk with
  | P_stack _ -> Some (-Prog.stack_size, 0)
  | P_map_value mi -> Some (0, mi.mi_value_size)
  | P_mem size -> Some (0, size)
  | P_btf d ->
    Some (0, Btf.validated_size
            ~bug2:(Venv.has_bug env Kconfig.Bug2_btf_size_check) d)
  | P_packet -> None (* bounded dynamically by data_end comparisons *)
  | P_ctx | P_map_ptr _ | P_packet_end -> None

let ptr_alu_allowed (pk : Regstate.ptr_kind) : bool =
  match pk with
  | P_stack _ | P_map_value _ | P_mem _ | P_packet | P_btf _ -> true
  | P_ctx | P_map_ptr _ | P_packet_end -> false

let max_ptr_off = 1 lsl 29

(* dst(ptr) op= src(scalar).  Returns the new pointer state and records
   the alu_limit for the sanitizer when the offset is not constant. *)
let adjust_ptr (env : Venv.t) ~(pc : int) (op : Insn.alu_op)
    (ptr : t) (scalar : t) : t =
  let p =
    match ptr.kind with
    | Ptr p -> p
    | Scalar | Not_init -> assert false
  in
  Venv.cov env "alu:ptr"
    ~v:(match p.pk with
        | P_stack _ -> 0 | P_map_value _ -> 1 | P_ctx -> 2
        | P_map_ptr _ -> 3 | P_btf _ -> 4 | P_packet -> 5
        | P_packet_end -> 6 | P_mem _ -> 7);
  if p.maybe_null
     && not (Venv.has_bug env Kconfig.Cve_2022_23222) then
    Venv.reject env ~pc Venv.EACCES Null_deref
      "R? pointer arithmetic on %s_or_null prohibited, null-check it first"
      (Regstate.ptr_kind_name p.pk);
  if not (ptr_alu_allowed p.pk) then
    Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
      "R? pointer arithmetic on %s prohibited"
      (Regstate.ptr_kind_name p.pk);
  if op <> Insn.Add && op <> Insn.Sub then
    Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
      "R? pointer arithmetic with %s operator prohibited"
      (Insn.alu_op_to_string op);
  (* kernel: "math between <ptr> and register with unbounded min value
     is not allowed" *)
  if not (Regstate.is_const scalar) then begin
    Venv.cov env "alu:ptr:varoff";
    if scalar.smin < Int64.neg (Int64.of_int max_ptr_off)
       || scalar.smax > Int64.of_int max_ptr_off then
      Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
        "math between %s pointer and register with unbounded bounds"
        (Regstate.ptr_kind_name p.pk);
    (* record the runtime assertion limit (kernel retrieve_ptr_limit);
       only for provably non-negative offsets, where the unsigned
       runtime comparison cannot misfire *)
    (match object_span env p.pk with
     | Some (lo, hi) when scalar.smin >= 0L ->
       let is_sub = op = Insn.Sub in
       let limit =
         if is_sub then Int64.of_int (ptr.off - lo)
         else Int64.of_int (hi - ptr.off)
       in
       (Venv.aux_mut env pc).Venv.alu_limit <- Some (limit, is_sub)
     | Some _ | None -> ())
  end;
  match Regstate.const_value scalar with
  | Some delta ->
    let delta = Int64.to_int delta in
    let off = if op = Insn.Add then ptr.off + delta else ptr.off - delta in
    if abs off > max_ptr_off then
      Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
        "pointer offset %d out of range" off
    else { ptr with off }
  | None ->
    let combine = if op = Insn.Add then scalar_add else scalar_sub in
    let moved =
      combine
        { ptr with kind = Scalar }
        scalar
    in
    (* moving the pointer resets the proven packet range *)
    { moved with kind = ptr.kind; range = 0 }

(* -- Top-level ALU handling -------------------------------------------- *)

let check (env : Venv.t) ~(pc : int) ~(op64 : bool) (op : Insn.alu_op)
    (dst : Insn.reg) (src : Insn.src) : unit =
  Venv.check_reg_write env ~pc dst;
  let src_state =
    match src with
    | Insn.Imm i -> Regstate.const_scalar (Int64.of_int32 i)
    | Insn.Reg r -> Venv.check_reg_read env ~pc r
  in
  Venv.cov env "alu:op"
    ~v:((if op64 then 16 else 0)
        lor Char.code (String.get (Insn.alu_op_to_string op) 0) mod 16);
  match op with
  | Insn.Mov ->
    (* write checked above; mov reads only src *)
    let v =
      if op64 then src_state
      else
        match src_state.kind with
        | Scalar -> Regstate.truncate32 src_state
        | Ptr _ | Not_init ->
          (* 32-bit mov of a pointer leaks its low half as a scalar *)
          Regstate.truncate32 { Regstate.unknown_scalar with kind = Scalar }
    in
    Venv.set_reg env dst v
  | Insn.Neg ->
    let d = Venv.check_reg_read env ~pc dst in
    if Regstate.is_pointer d then
      Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
        "R%d pointer negation prohibited" (Insn.reg_to_int dst)
    else
      Venv.set_reg env dst
        (if op64 then scalar_op64 Insn.Neg d d else scalar_op32 Insn.Neg d d)
  | Insn.Add | Insn.Sub | Insn.Mul | Insn.Div | Insn.Or | Insn.And
  | Insn.Lsh | Insn.Rsh | Insn.Mod | Insn.Xor | Insn.Arsh -> begin
      let d = Venv.check_reg_read env ~pc dst in
      match d.kind, src_state.kind with
      | Ptr _, Scalar ->
        if not op64 then
          Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
            "R%d 32-bit pointer arithmetic prohibited"
            (Insn.reg_to_int dst);
        Venv.set_reg env dst (adjust_ptr env ~pc op d src_state)
      | Scalar, Ptr _ ->
        if op <> Insn.Add then
          Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
            "R%d pointer operand for %s prohibited" (Insn.reg_to_int dst)
            (Insn.alu_op_to_string op)
        else if not op64 then
          Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
            "R%d 32-bit pointer arithmetic prohibited"
            (Insn.reg_to_int dst)
        else begin
          Venv.set_reg env dst (adjust_ptr env ~pc op src_state d);
          (* the scalar operand is dst here, not src: the sanitizer's
             alu_limit guard reads the src register, so skip it *)
          (Venv.aux_mut env pc).Venv.alu_limit <- None
        end
      | Ptr pa, Ptr pb ->
        (* only pkt_ptr - pkt_ptr yields a scalar; everything else is
           rejected (leaks pointers otherwise) *)
        if op = Insn.Sub && pa.pk = P_packet && pb.pk = P_packet then begin
          Venv.cov env "alu:pkt_diff";
          Venv.set_reg env dst Regstate.unknown_scalar
        end
        else
          (* two pointer operands: prohibited arithmetic, not a type
             confusion *)
          Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
            "R%d pointer %s pointer prohibited"
            (Insn.reg_to_int dst) (Insn.alu_op_to_string op)
      | Scalar, Scalar ->
        Venv.set_reg env dst
          (if op64 then scalar_op64 op d src_state
           else scalar_op32 op d src_state)
      | Not_init, _ | _, Not_init -> assert false
    end

(* Endianness conversion: constants stay constant, everything else
   becomes an unknown scalar bounded by the operand width. *)
let check_endian (env : Venv.t) ~(pc : int) ~(swap : bool) ~(bits : int)
    (dst : Insn.reg) : unit =
  Venv.check_reg_write env ~pc dst;
  let d = Venv.check_reg_read env ~pc dst in
  if Regstate.is_pointer d then
    Venv.reject env ~pc Venv.EACCES Bad_ptr_arith
      "R%d byte swap of pointer prohibited" (Insn.reg_to_int dst);
  Venv.cov env "alu:endian" ~v:(bits / 16);
  let result =
    match Regstate.const_value d with
    | Some v when swap ->
      Regstate.const_scalar
        (match bits with
         | 16 -> Word.bswap16 v
         | 32 -> Word.bswap32 v
         | _ -> Word.bswap64 v)
    | Some v -> Regstate.const_scalar (Word.zext bits v)
    | None ->
      if bits >= 64 then Regstate.unknown_scalar
      else
        Regstate.scalar_range ~umin:0L
          ~umax:(Int64.sub (Int64.shift_left 1L bits) 1L)
  in
  Venv.set_reg env dst result
