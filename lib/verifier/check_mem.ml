open Vimport

(* Memory access validation (kernel check_mem_access): dispatches on the
   pointer type of the address register, enforces object bounds using
   the tracked constant and variable offsets, stack slot initialization,
   context field layouts and packet ranges.

   Injected bug: with [Bug2_btf_size_check], the validated window of a
   task_struct BTF object is 64 bytes too large, so out-of-bounds reads
   of kernel memory pass verification. *)

open Regstate

type access = Aread | Awrite

(* Annotate the instruction for the sanitize pass. *)
let set_aux (env : Venv.t) ~(pc : int) ~(pk : Regstate.ptr_kind)
    ~(addr_reg : Insn.reg) ~(var_const : bool) : unit =
  let aux = Venv.aux_mut env pc in
  (* the kernel refuses one insn dereferencing different pointer types
     on different paths (ctx accesses are rewritten per type) *)
  (match aux.Venv.ptr_kind with
   | Some prev when prev <> pk ->
     Venv.reject env ~pc Venv.EINVAL Type_mismatch
       "same insn cannot be used with different pointers (%s vs %s)"
       (Regstate.ptr_kind_name prev) (Regstate.ptr_kind_name pk)
   | Some _ | None -> ());
  aux.Venv.ptr_kind <- Some pk;
  (match pk with
   | P_stack _ when addr_reg = Insn.R10 && var_const ->
     (* paper 4.2: R10-relative constant accesses are validated
        statically, no instrumentation needed *)
     aux.Venv.skip_sanitize <- true
   | P_btf _ ->
     (* BTF loads are exception-tabled probe reads *)
     aux.Venv.exception_handled <- true
   | _ -> ())

let size_bytes = Insn.size_bytes

(* Effective constant offset; rejects variable offsets where the kernel
   requires constants (stack, ctx, btf).  A variable ctx offset is a
   context-layout error; a variable stack or btf offset comes from the
   pointer arithmetic before it. *)
let require_const_off (env : Venv.t) ~(pc : int) (r : t) (what : string) :
  unit =
  if not (Tnum.is_const r.var_off) then
    let reason : Reject_reason.t =
      if what = "ctx" then Bad_ctx_access else Bad_ptr_arith
    in
    Venv.reject env ~pc Venv.EACCES reason "variable %s access prohibited" what

let check_map_value (env : Venv.t) ~(pc : int) (mi : map_info) (r : t)
    ~(off : int) ~(size : int) : unit =
  let base = r.off + off in
  let lo = Int64.add (Int64.of_int base) r.smin in
  let hi = Int64.add (Int64.of_int base) r.smax in
  Venv.cov env "mem:map_value" ~v:size;
  let size_class =
    match size with 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> 3
  in
  (* v6.1 refined the per-offset bounds bookkeeping considerably, so
     newer verifiers have finer-grained checking branches here *)
  let granularity =
    if Version.at_least (Venv.version env) Version.V6_1 then 4 else 16
  in
  Venv.cov env "mem:map_value:offset"
    ~v:((base / granularity) lor (size_class lsl 4));
  if lo < 0L then
    Venv.reject env ~pc Venv.EACCES Oob_access
      "map_value access with min offset %Ld below 0" lo;
  if Int64.add hi (Int64.of_int size) > Int64.of_int mi.mi_value_size then
    Venv.reject env ~pc Venv.EACCES Oob_access
      "invalid access to map value, off=%Ld size=%d value_size=%d" hi size
      mi.mi_value_size;
  if mi.mi_has_spin_lock && lo < 4L then
    Venv.reject env ~pc Venv.EACCES Lock_violation
      "direct access to bpf_spin_lock area prohibited"

let check_ctx (env : Venv.t) ~(pc : int) (r : t) ~(off : int)
    ~(size : int) ~(access : access) : Regstate.t =
  require_const_off env ~pc r "ctx";
  let layout = Prog.ctx_layout env.Venv.prog_type in
  let eff = r.off + off in
  Venv.cov env "mem:ctx" ~v:(eff / 8);
  (* the legacy narrow-load conversion tables were removed in bpf-next
     in favour of the generic path: a chunk of checking logic that only
     the released kernels still carry *)
  if not (Version.at_least (Venv.version env) Version.Bpf_next) then
    Venv.cov env "mem:ctx:legacy_narrow" ~v:((eff / 4) + size);
  match Prog.field_at layout ~off:eff ~size with
  | None ->
    Venv.reject env ~pc Venv.EACCES Bad_ctx_access
      "invalid bpf_context access off=%d size=%d" eff size
  | Some f ->
    if access = Awrite && not f.Prog.fwritable then
      Venv.reject env ~pc Venv.EACCES Bad_ctx_access
        "write to read-only ctx field %s" f.Prog.fname;
    (match f.Prog.fkind with
     | Prog.Fk_scalar -> Regstate.unknown_scalar
     | Prog.Fk_pkt_data ->
       if Prog.has_packet_access env.Venv.prog_type then begin
         Venv.cov env "mem:ctx:pkt_data";
         Regstate.pointer P_packet ~id:(Venv.fresh_id env)
       end
       else Regstate.unknown_scalar
     | Prog.Fk_pkt_end ->
       if Prog.has_packet_access env.Venv.prog_type then
         Regstate.pointer P_packet_end
       else Regstate.unknown_scalar)

let check_packet (env : Venv.t) ~(pc : int) (r : t) ~(off : int)
    ~(size : int) ~(access : access) : unit =
  Venv.cov env "mem:packet" ~v:size;
  if access = Awrite && env.Venv.prog_type <> Prog.Xdp then
    Venv.reject env ~pc Venv.EACCES Type_mismatch
      "write into packet prohibited for %s"
      (Prog.prog_type_to_string env.Venv.prog_type);
  let base = r.off + off in
  if base < 0 || r.smin < 0L then
    Venv.reject env ~pc Venv.EACCES Oob_access
      "negative packet access off=%d" base;
  let max_access =
    Int64.add (Int64.add (Int64.of_int base) r.umax) (Int64.of_int size)
  in
  if max_access > Int64.of_int r.range then
    Venv.reject env ~pc Venv.EACCES Oob_access
      "invalid access to packet, off=%d size=%d R range=%d" base size
      r.range

let check_btf (env : Venv.t) ~(pc : int) (d : Btf.desc) (r : t)
    ~(off : int) ~(size : int) ~(access : access) : unit =
  Venv.cov env "mem:btf" ~v:d.Btf.btf_id;
  if access = Awrite then
    Venv.reject env ~pc Venv.EACCES Type_mismatch
      "write to BTF pointer %s prohibited" d.Btf.btf_name;
  require_const_off env ~pc r "btf";
  let eff = r.off + off in
  let limit =
    Btf.validated_size ~bug2:(Venv.has_bug env Kconfig.Bug2_btf_size_check)
      d
  in
  if eff < 0 || eff + size > limit then
    Venv.reject env ~pc Venv.EACCES Oob_access
      "invalid access to %s, off=%d size=%d" d.Btf.btf_name eff size

let check_stack (env : Venv.t) ~(pc : int) (r : t) ~(off : int)
    ~(size : int) ~(access : access) ~(stored : Regstate.t option) :
  Regstate.t =
  require_const_off env ~pc r "stack";
  let eff = r.off + off in
  Venv.cov env "mem:stack" ~v:(if access = Awrite then 1 else 0);
  if eff >= 0 || eff < -Prog.stack_size || eff + size > 0 then
    Venv.reject env ~pc Venv.EACCES Oob_access
      "invalid stack access off=%d size=%d" eff size;
  let frame =
    let fno = match r.kind with
      | Ptr { pk = P_stack fno; _ } -> fno
      | _ -> 0
    in
    Vstate.find_frame env.Venv.st fno
  in
  match access with
  | Awrite ->
    let stored = Option.value stored ~default:Regstate.unknown_scalar in
    if Regstate.is_pointer stored && size <> 8 then
      Venv.reject env ~pc Venv.EACCES Type_mismatch
        "partial spill of a pointer";
    Vstate.stack_write frame ~off:eff ~size stored;
    Regstate.unknown_scalar
  | Aread -> begin
      match Vstate.stack_read frame ~off:eff ~size with
      | Ok v -> v
      | Error (reason, msg) ->
        Venv.reject env ~pc Venv.EACCES reason "%s at fp%+d" msg eff
    end

(* Main entry: validate a [size]-byte access through [addr_reg]+[off].
   For reads, returns the abstract value loaded; [stored] carries the
   value register state for register stores (spill tracking). *)
let check (env : Venv.t) ~(pc : int) ~(access : access)
    ~(addr_reg : Insn.reg) ~(off : int) ~(size : int)
    ?(stored : Regstate.t option) () : Regstate.t =
  let r = Venv.check_reg_read env ~pc addr_reg in
  match r.kind with
  | Not_init -> assert false
  | Scalar ->
    Venv.reject env ~pc Venv.EACCES Type_mismatch
      "R%d invalid mem access 'scalar'" (Insn.reg_to_int addr_reg)
  | Ptr p ->
    if p.maybe_null then
      Venv.reject env ~pc Venv.EACCES Null_deref
        "R%d invalid mem access '%s_or_null'" (Insn.reg_to_int addr_reg)
        (Regstate.ptr_kind_name p.pk);
    set_aux env ~pc ~pk:p.pk ~addr_reg
      ~var_const:(Tnum.is_const r.var_off);
    (* unprivileged programs must not leak kernel pointers into
       memory readable by user space (maps, ringbuf) *)
    (match stored with
     | Some v
       when Regstate.is_pointer v && Venv.unprivileged env
         && (match p.pk with P_stack _ -> false | _ -> true) ->
       Venv.reject env ~pc Venv.EACCES Ptr_leak
         "R%d leaks addr into map (unprivileged)"
         (Insn.reg_to_int addr_reg)
     | Some _ | None -> ());
    (match p.pk with
     | P_stack _ -> check_stack env ~pc r ~off ~size ~access ~stored
     | P_map_value mi ->
       check_map_value env ~pc mi r ~off ~size;
       Regstate.unknown_scalar
     | P_ctx -> check_ctx env ~pc r ~off ~size ~access
     | P_btf d ->
       check_btf env ~pc d r ~off ~size ~access;
       Regstate.unknown_scalar
     | P_packet ->
       check_packet env ~pc r ~off ~size ~access;
       Regstate.unknown_scalar
     | P_mem msize ->
       Venv.cov env "mem:ringbuf";
       let eff = r.off + off in
       let hi = Int64.add (Int64.add (Int64.of_int eff) r.umax)
           (Int64.of_int size) in
       if eff < 0 || r.smin < 0L || hi > Int64.of_int msize then
         Venv.reject env ~pc Venv.EACCES Oob_access
           "invalid access to allocated mem, off=%d size=%d mem_size=%d"
           eff size msize;
       Regstate.unknown_scalar
     | P_map_ptr _ ->
       Venv.reject env ~pc Venv.EACCES Bad_map_op
         "R%d direct access to struct bpf_map prohibited"
         (Insn.reg_to_int addr_reg)
     | P_packet_end ->
       Venv.reject env ~pc Venv.EACCES Type_mismatch
         "access to pkt_end prohibited")

(* Atomic read-modify-write: both read and write permission on the
   target, scalar operand, W/DW width. *)
let check_atomic (env : Venv.t) ~(pc : int) (a : Insn.t) : unit =
  match a with
  | Insn.Atomic { sz; op; fetch; dst; src; off } ->
    if sz <> Insn.W && sz <> Insn.DW then
      Venv.reject env ~pc Venv.EINVAL Bad_insn "invalid atomic operand size";
    let size = size_bytes sz in
    let operand = Venv.check_reg_read env ~pc src in
    if not (Regstate.is_scalar operand) then
      Venv.reject env ~pc Venv.EACCES Type_mismatch
        "atomic operand R%d must be scalar" (Insn.reg_to_int src);
    Venv.cov env "mem:atomic"
      ~v:(match op with
          | Insn.A_add -> 0 | Insn.A_or -> 1 | Insn.A_and -> 2
          | Insn.A_xor -> 3 | Insn.A_xchg -> 4 | Insn.A_cmpxchg -> 5);
    let _ = check env ~pc ~access:Aread ~addr_reg:dst ~off ~size () in
    let _ =
      check env ~pc ~access:Awrite ~addr_reg:dst ~off ~size
        ~stored:Regstate.unknown_scalar ()
    in
    if fetch && op <> Insn.A_cmpxchg then
      Venv.set_reg env src Regstate.unknown_scalar;
    if op = Insn.A_cmpxchg then begin
      let _ = Venv.check_reg_read env ~pc Insn.R0 in
      Venv.set_reg env Insn.R0 Regstate.unknown_scalar
    end
  | _ -> invalid_arg "check_atomic: not an atomic insn"
