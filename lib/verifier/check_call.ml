open Vimport

(* Helper and kfunc call verification (kernel check_helper_call /
   check_kfunc_call): argument states are matched against the declared
   prototype, references (ringbuf chunks, acquired tasks) are tracked,
   the bpf_spin_lock critical-section discipline is enforced, and
   caller-saved registers are clobbered.

   Injected bugs (all "missing validation" class, per Table 2):
   - Bug#4: the fixed kernel refuses to attach a trace_printk-calling
     program to the kprobe on bpf_trace_printk itself; the buggy one
     loads it, and execution deadlocks on the printk buffer lock.
   - Bug#5: the fixed kernel refuses lock-acquiring helpers in programs
     attached to contention_begin (Figure 2); the buggy one does not.
   - Bug#6: the fixed kernel rejects send_signal for attach points that
     run in hard-irq/NMI context; the buggy one panics at runtime. *)

open Regstate

let arg_regs = [| Insn.R1; Insn.R2; Insn.R3; Insn.R4; Insn.R5 |]

let helper_acquires_lock (h : Helper.t) : bool =
  List.exists
    (function Helper.Acquires_lock _ -> true | _ -> false)
    h.Helper.attrs

(* Validate that [r] points to [size] readable (or writable) bytes. *)
let check_helper_mem (env : Venv.t) ~(pc : int) ~(argno : int)
    ~(write : bool) (r : t) ~(size : int) : unit =
  if size = 0 then ()
  else
    match r.kind with
    | Ptr p when not p.maybe_null -> begin
        match p.pk with
        | P_stack fno -> begin
            if not (Tnum.is_const r.var_off) then
              Venv.reject env ~pc Venv.EACCES Bad_helper_arg
                "R%d variable stack pointer to helper" argno;
            let frame = Vstate.find_frame env.Venv.st fno in
            let off = r.off in
            if off + size > 0 || off < -Prog.stack_size then
              Venv.reject env ~pc Venv.EACCES Bad_helper_arg
                "R%d invalid stack region off=%d size=%d" argno off size;
            if write then Vstate.stack_mark_written frame ~off ~size
            else if not (Vstate.stack_initialized frame ~off ~size) then
              Venv.reject env ~pc Venv.EACCES Bad_helper_arg
                "R%d uninitialized stack passed to helper (off=%d size=%d)"
                argno off size
          end
        | P_map_value mi ->
          Check_mem.check_map_value env ~pc mi r ~off:0 ~size
        | P_mem msize ->
          if r.off < 0 || r.off + size > msize then
            Venv.reject env ~pc Venv.EACCES Bad_helper_arg
              "R%d invalid ringbuf mem region" argno
        | P_packet ->
          if r.off < 0 || r.off + size > r.range then
            Venv.reject env ~pc Venv.EACCES Bad_helper_arg
              "R%d invalid packet region for helper" argno
        | P_ctx | P_map_ptr _ | P_btf _ | P_packet_end ->
          Venv.reject env ~pc Venv.EACCES Bad_helper_arg
            "R%d pointer type %s not allowed as mem argument" argno
            (Regstate.ptr_kind_name p.pk)
      end
    | Ptr _ ->
      Venv.reject env ~pc Venv.EACCES Null_deref
        "R%d nullable pointer passed to helper, null-check it first" argno
    | Scalar | Not_init ->
      Venv.reject env ~pc Venv.EACCES Bad_helper_arg
        "R%d expected pointer, got scalar" argno

(* Walk the declared argument list, validating R1..Rn. *)
let check_args (env : Venv.t) ~(pc : int) (args : Helper.arg list) :
  map_info option * int64 option =
  let seen_map = ref None in
  let const_size = ref None in
  let pending_mem : (int * t * bool) option ref = ref None in
  List.iteri
    (fun i arg ->
       let argno = i + 1 in
       let r = Venv.check_reg_read env ~pc arg_regs.(i) in
       Venv.cov env "call:arg" ~v:argno;
       match arg with
       | Helper.Anything ->
         () (* any initialized value, checked by the read above *)
       | Helper.Const_map_ptr -> begin
           match r.kind with
           | Ptr { pk = P_map_ptr mi; maybe_null = false; _ } ->
             seen_map := Some mi
           | _ ->
             Venv.reject env ~pc Venv.EACCES Bad_helper_arg
               "R%d expected const map pointer" argno
         end
       | Helper.Map_key -> begin
           match !seen_map with
           | None ->
             Venv.reject env ~pc Venv.EINVAL Bad_helper_arg
               "R%d map key without preceding map argument" argno
           | Some mi ->
             check_helper_mem env ~pc ~argno ~write:false r
               ~size:mi.mi_key_size
         end
       | Helper.Map_value -> begin
           match !seen_map with
           | None ->
             Venv.reject env ~pc Venv.EINVAL Bad_helper_arg
               "R%d map value without preceding map argument" argno
           | Some mi ->
             check_helper_mem env ~pc ~argno ~write:false r
               ~size:mi.mi_value_size
         end
       | Helper.Mem_rd -> pending_mem := Some (argno, r, false)
       | Helper.Mem_wr -> pending_mem := Some (argno, r, true)
       | Helper.Size { max; allow_zero } -> begin
           if not (Regstate.is_scalar r) then
             Venv.reject env ~pc Venv.EACCES Bad_helper_arg
               "R%d expected size scalar" argno;
           let umin = r.umin and umax = r.umax in
           if Word.ugt umax (Int64.of_int max) then
             Venv.reject env ~pc Venv.EACCES Bad_helper_arg
               "R%d unbounded memory size (umax=%Lu > %d)" argno umax max;
           if (not allow_zero) && umin = 0L then
             Venv.reject env ~pc Venv.EACCES Bad_helper_arg
               "R%d possible zero size for helper memory" argno;
           (match !pending_mem with
            | Some (mem_argno, mem_reg, write) ->
              check_helper_mem env ~pc ~argno:mem_argno ~write mem_reg
                ~size:(Int64.to_int umax);
              pending_mem := None
            | None -> ())
         end
       | Helper.Ctx -> begin
           match r.kind with
           | Ptr { pk = P_ctx; maybe_null = false; _ } -> ()
           | _ ->
             Venv.reject env ~pc Venv.EACCES Bad_helper_arg
               "R%d expected ctx pointer" argno
         end
       | Helper.Btf_task -> begin
           match r.kind with
           | Ptr { pk = P_btf _; maybe_null = false; _ } -> ()
           | _ ->
             Venv.reject env ~pc Venv.EACCES Bad_helper_arg
               "R%d expected trusted task pointer" argno
         end
       | Helper.Spin_lock -> begin
           match r.kind with
           | Ptr { pk = P_map_value mi; maybe_null = false; _ }
             when mi.mi_has_spin_lock
               && r.off = 0
               && Tnum.is_const r.var_off
               && r.var_off.Tnum.value = 0L ->
             ()
           | _ ->
             Venv.reject env ~pc Venv.EACCES Bad_helper_arg
               "R%d expected pointer to bpf_spin_lock" argno
         end
       | Helper.Scalar_const -> begin
           match Regstate.const_value r with
           | Some v -> const_size := Some v
           | None ->
             Venv.reject env ~pc Venv.EACCES Bad_helper_arg
               "R%d expected verifier-known constant" argno
         end)
    args;
  (!seen_map, !const_size)

let clobber_caller_saved (env : Venv.t) : unit =
  List.iter
    (fun r -> Venv.set_reg env r Regstate.not_init)
    [ Insn.R1; Insn.R2; Insn.R3; Insn.R4; Insn.R5 ]

(* Attach-point-dependent validation: where the fixed kernel gained new
   checks (and the buggy one lets unsafe combinations through). *)
let check_attach_constraints (env : Venv.t) ~(pc : int) (h : Helper.t) :
  unit =
  match env.Venv.attach with
  | None -> ()
  | Some tp ->
    Venv.cov env "call:attach_check";
    (* Bug#4 *)
    if tp.Tracepoint.tp_trigger = Tracepoint.Fired_by_helper h.Helper.name
       && not (Venv.has_bug env Kconfig.Bug4_trace_printk_recursion) then
      Venv.reject env ~pc Venv.EINVAL Bad_attach
        "program calling %s cannot attach to %s (recursion)" h.Helper.name
        tp.Tracepoint.tp_name;
    (* Bug#5 *)
    if tp.Tracepoint.tp_trigger = Tracepoint.Fired_by_lock_acquisition
       && helper_acquires_lock h
       && not (Venv.has_bug env Kconfig.Bug5_contention_begin_attach) then
      Venv.reject env ~pc Venv.EINVAL Bad_attach
        "lock-acquiring helper %s not allowed on %s" h.Helper.name
        tp.Tracepoint.tp_name;
    (* Bug#6 *)
    if (tp.Tracepoint.tp_ctx = Lockdep.Nmi
        || tp.Tracepoint.tp_ctx = Lockdep.Hardirq)
       && List.mem Helper.Sends_signal h.Helper.attrs
       && not (Venv.has_bug env Kconfig.Bug6_signal_send_nmi) then
      Venv.reject env ~pc Venv.EINVAL Bad_attach
        "%s not allowed in irq/nmi attach context %s" h.Helper.name
        tp.Tracepoint.tp_name

let check_helper (env : Venv.t) ~(pc : int) (id : int) : unit =
  let h =
    match Helper.find id with
    | Some h when not h.Helper.internal -> h
    | Some _ | None ->
      Venv.reject env ~pc Venv.EINVAL Helper_unavailable "invalid func id %d" id
  in
  Venv.cov env "call:helper" ~v:h.Helper.id;
  (Venv.aux_mut env pc).Venv.call_helper <- Some h;
  (* availability: version and program type gating *)
  if not (Version.at_least (Venv.version env) h.Helper.since) then
    Venv.reject env ~pc Venv.EINVAL Helper_unavailable
      "helper %s not available in %s" h.Helper.name
      (Version.to_string (Venv.version env));
  (match h.Helper.prog_types with
   | Some pts when not (List.mem env.Venv.prog_type pts) ->
     Venv.reject env ~pc Venv.EINVAL Helper_unavailable
       "helper %s not allowed for prog type %s" h.Helper.name
       (Prog.prog_type_to_string env.Venv.prog_type)
   | Some _ | None -> ());
  check_attach_constraints env ~pc h;
  (* spin-lock critical section: only the unlock is allowed inside *)
  let st = env.Venv.st in
  (match st.Vstate.active_lock with
   | Some _ when h.Helper.name <> "spin_unlock" ->
     Venv.reject env ~pc Venv.EINVAL Lock_violation
       "helper call %s not allowed inside bpf_spin_lock section"
       h.Helper.name
   | _ -> ());
  let seen_map, const_size = check_args env ~pc h.Helper.args in
  (* helper-specific state transitions *)
  (match h.Helper.name with
   | "spin_lock" -> begin
       match seen_map, Vstate.reg st Insn.R1 with
       | _, { kind = Ptr { pk = P_map_value mi; _ }; _ } ->
         st.Vstate.active_lock <- Some mi.mi_fd
       | _ -> st.Vstate.active_lock <- Some 0
     end
   | "spin_unlock" -> begin
       match st.Vstate.active_lock with
       | Some _ -> st.Vstate.active_lock <- None
       | None ->
         Venv.reject env ~pc Venv.EINVAL Lock_violation
           "spin_unlock without matching spin_lock"
     end
   | "ringbuf_submit" | "ringbuf_discard" -> begin
       (* must release a tracked reference *)
       match Vstate.reg st Insn.R1 with
       | { kind = Ptr { pk = P_mem _; ref_id; maybe_null = false; _ }; _ }
         when ref_id <> 0 && List.mem ref_id st.Vstate.refs ->
         st.Vstate.refs <-
           List.filter (fun r -> r <> ref_id) st.Vstate.refs;
         (* invalidate every copy of the released pointer *)
         Vstate.iter_frames st
           (fun fr ->
              Array.iteri
                (fun i r ->
                   match r.kind with
                   | Ptr { ref_id = rid; _ } when rid = ref_id ->
                     fr.Vstate.regs.(i) <- Regstate.not_init
                   | _ -> ())
                fr.Vstate.regs)
       | _ ->
         Venv.reject env ~pc Venv.EINVAL Bad_helper_arg
           "R1 must be a reserved ringbuf record"
     end
   | _ -> ());
  clobber_caller_saved env;
  (* return value *)
  let r0 =
    match h.Helper.ret with
    | Helper.R_integer -> Regstate.unknown_scalar
    | Helper.R_void -> Regstate.not_init
    | Helper.R_map_value_or_null -> begin
        match seen_map with
        | Some mi ->
          Regstate.pointer (P_map_value mi) ~maybe_null:true
            ~id:(Venv.fresh_id env)
        | None -> Regstate.unknown_scalar
      end
    | Helper.R_btf_task_or_null ->
      Regstate.pointer (P_btf Btf.task_struct) ~maybe_null:true
        ~id:(Venv.fresh_id env)
    | Helper.R_ringbuf_mem_or_null ->
      (* the kernel keeps the size in the u32 bpf_reg_state.mem_size *)
      let size =
        match const_size with
        | Some v -> Int64.to_int (Int64.logand v 0xFFFF_FFFFL)
        | None -> 0
      in
      let ref_id = Venv.fresh_id env in
      st.Vstate.refs <- ref_id :: st.Vstate.refs;
      Regstate.pointer (P_mem size) ~maybe_null:true
        ~id:(Venv.fresh_id env) ~ref_id
  in
  Venv.set_reg env Insn.R0 r0

let check_kfunc (env : Venv.t) ~(pc : int) (id : int) : unit =
  if Venv.unprivileged env then
    Venv.reject env ~pc Venv.EPERM Priv "kfunc calls require CAP_BPF";
  if not (Version.at_least (Venv.version env) Version.V6_1) then
    Venv.reject env ~pc Venv.EINVAL Helper_unavailable
      "kfunc calls not supported in %s"
      (Version.to_string (Venv.version env));
  let kf =
    match Helper.find_kfunc id with
    | Some kf -> kf
    | None ->
      Venv.reject env ~pc Venv.EINVAL Helper_unavailable
        "invalid kfunc id %d" id
  in
  Venv.cov env "call:kfunc" ~v:kf.Helper.kid;
  let st = env.Venv.st in
  (match st.Vstate.active_lock with
   | Some _ ->
     Venv.reject env ~pc Venv.EINVAL Lock_violation
       "kfunc call not allowed inside bpf_spin_lock section"
   | None -> ());
  let _ = check_args env ~pc kf.Helper.kargs in
  (* releasing kfuncs consume the reference passed in R1 *)
  if kf.Helper.krelease then begin
    match Vstate.reg st Insn.R1 with
    | { kind = Ptr { ref_id; _ }; _ } when ref_id <> 0
                                        && List.mem ref_id st.Vstate.refs ->
      st.Vstate.refs <- List.filter (fun r -> r <> ref_id) st.Vstate.refs
    | _ ->
      Venv.reject env ~pc Venv.EINVAL Bad_helper_arg
        "release kfunc %s expects a referenced object" kf.Helper.kname
  end;
  clobber_caller_saved env;
  let r0 =
    match kf.Helper.kret with
    | Helper.R_integer ->
      { Regstate.unknown_scalar with from_kfunc = true }
    | Helper.R_void -> Regstate.not_init
    | Helper.R_btf_task_or_null ->
      let ref_id = if kf.Helper.kacquire then Venv.fresh_id env else 0 in
      if ref_id <> 0 then st.Vstate.refs <- ref_id :: st.Vstate.refs;
      Regstate.pointer (P_btf Btf.task_struct) ~maybe_null:true
        ~id:(Venv.fresh_id env) ~ref_id
    | Helper.R_map_value_or_null | Helper.R_ringbuf_mem_or_null ->
      Regstate.unknown_scalar
  in
  Venv.set_reg env Insn.R0 r0
