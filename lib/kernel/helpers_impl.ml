open Import

(* Concrete implementations of the helper functions and kfuncs.

   Every anomaly observed while a helper runs — KASAN faults on the
   memory the program handed in, lockdep violations, panics — is
   appended to the kernel instance's report list with origin
   [Kernel_routine]; this is precisely the paper's indicator #2 capture
   path ("existing mechanisms can catch the majority of runtime bugs in
   these routines" since helpers are compiled with the kernel).  The
   caller (interpreter) aborts the execution when new reports appear. *)

type env = {
  pkt : Kmem.region option; (* packet backing the current context *)
}

let enoent = -2L
let enomem = -12L
let efault = -14L
let einval = -22L
let eperm = -1L

let routine_report (k : Kstate.t) ~pc ~(routine : string)
    (kind : Report.kind) : unit =
  Kstate.report k (Report.make ~pc (Report.Kernel_routine routine) kind)

(* Checked block read/write through KASAN, attributing faults to
   [routine]. *)
let read_block (k : Kstate.t) ~pc ~routine ~(addr : int64) ~(size : int) :
  Bytes.t option =
  let buf = Bytes.make size '\000' in
  let rec go off =
    if off >= size then Some buf
    else begin
      let chunk = min 8 (size - off) in
      match
        Kmem.checked_load k.Kstate.mem
          ~addr:(Int64.add addr (Int64.of_int off))
          ~size:chunk
      with
      | Ok v ->
        Word.set_le buf off chunk v;
        go (off + chunk)
      | Error f ->
        routine_report k ~pc ~routine (Report.Mem_fault f);
        None
    end
  in
  go 0

let write_block (k : Kstate.t) ~pc ~routine ~(addr : int64)
    (data : Bytes.t) : bool =
  let size = Bytes.length data in
  let rec go off =
    if off >= size then true
    else begin
      let chunk = min 8 (size - off) in
      match
        Kmem.checked_store k.Kstate.mem
          ~addr:(Int64.add addr (Int64.of_int off))
          ~size:chunk
          (Word.get_le data off chunk)
      with
      | Ok () -> go (off + chunk)
      | Error f ->
        routine_report k ~pc ~routine (Report.Mem_fault f);
        false
    end
  in
  go 0

(* Lock class for a bpf_spin_lock at [addr]: one class per map. *)
let spin_lock_class (k : Kstate.t) (addr : int64) : string =
  match Kmem.region_of k.Kstate.mem addr with
  | Some r -> begin
      match r.Kmem.rkind with
      | Kmem.Map_array id | Kmem.Map_elem id ->
        Printf.sprintf "map_value_lock#%d" id
      | Kmem.Stack _ | Kmem.Ctx | Kmem.Ringbuf_chunk _ | Kmem.Btf_object _
      | Kmem.Packet | Kmem.Kernel_internal _ -> "map_value_lock"
    end
  | None -> "map_value_lock"

(* irq_work misuse (Bug#10): queuing irq_work from the ringbuf wakeup
   path in hard-irq/NMI context takes a lock that must not be taken
   there. *)
let maybe_bug10 (k : Kstate.t) ~pc ~routine : unit =
  if Kstate.has_bug k Kconfig.Bug10_irq_work_lock then
    match k.Kstate.lock_ctx with
    | Lockdep.Hardirq | Lockdep.Nmi ->
      routine_report k ~pc ~routine
        (Report.Lock_violation (Lockdep.Lock_in_nmi "irq_work"))
    | Lockdep.Normal | Lockdep.Softirq -> ()

let find_map (k : Kstate.t) (addr : int64) : Map.t option =
  Kstate.map_of_addr k addr

(* Execute helper [h] with argument registers [args] = [| r1..r5 |].
   Returns the value for R0; anomalies are reported via [Kstate]. *)
let call (k : Kstate.t) (env : env) ~(pc : int) (h : Helper.t)
    (args : int64 array) : int64 =
  let a i = args.(i - 1) in
  let name = h.Helper.name in
  match name with
  | "map_lookup_elem" -> begin
      match find_map k (a 1) with
      | None -> 0L
      | Some m -> begin
          match
            read_block k ~pc ~routine:"__htab_map_lookup_elem" ~addr:(a 2)
              ~size:m.Map.def.Map.key_size
          with
          | None -> 0L
          | Some key -> (
              match Map.lookup m ~key with Some v -> v | None -> 0L)
        end
    end
  | "map_update_elem" -> begin
      match find_map k (a 1) with
      | None -> einval
      | Some m -> begin
          match
            read_block k ~pc ~routine:"htab_map_update_elem" ~addr:(a 2)
              ~size:m.Map.def.Map.key_size
          with
          | None -> efault
          | Some key -> begin
              match
                read_block k ~pc ~routine:"htab_map_update_elem"
                  ~addr:(a 3) ~size:m.Map.def.Map.value_size
              with
              | None -> efault
              | Some value -> begin
                  match
                    Map.update ~failslab:k.Kstate.failslab k.Kstate.mem m
                      ~key ~value
                  with
                  | Ok () -> 0L
                  | Error Map.E_no_space -> -7L (* E2BIG *)
                  | Error Map.E_no_such_key -> enoent
                  | Error (Map.E_bad_op _) -> einval
                  | Error Map.E_nomem -> enomem
                end
            end
        end
    end
  | "map_delete_elem" -> begin
      match find_map k (a 1) with
      | None -> einval
      | Some m -> begin
          match
            read_block k ~pc ~routine:"htab_map_delete_elem" ~addr:(a 2)
              ~size:m.Map.def.Map.key_size
          with
          | None -> efault
          | Some key ->
            let bug9 = Kstate.has_bug k Kconfig.Bug9_map_bucket_iter in
            let result, fault = Map.delete ~bug9 k.Kstate.mem m ~key in
            (match fault with
             | Some f ->
               routine_report k ~pc ~routine:"htab_map_delete_elem"
                 (Report.Mem_fault f)
             | None -> ());
            (match result with
             | Ok () -> 0L
             | Error Map.E_no_such_key -> enoent
             | Error Map.E_no_space -> -7L
             | Error (Map.E_bad_op _) -> einval
             | Error Map.E_nomem -> enomem)
        end
    end
  | "ktime_get_ns" | "ktime_get_boot_ns" -> Kstate.ktime k
  | "jiffies64" -> Int64.div (Kstate.ktime k) 4_000_000L
  | "get_prandom_u32" -> Kstate.prandom_u32 k
  | "get_smp_processor_id" -> 0L
  | "get_current_pid_tgid" ->
    Int64.logor
      (Int64.shift_left k.Kstate.current_pid 32)
      k.Kstate.current_pid
  | "get_current_uid_gid" -> 0L
  | "get_current_task" -> Kstate.current_task_addr k
  | "get_current_task_btf" -> Kstate.current_task_addr k
  | "task_pt_regs" -> Int64.add (a 1) 128L
  | "get_stackid" -> 0L
  | "loop" -> 0L
  | "trace_printk" -> begin
      let size = Int64.to_int (a 2) in
      match
        read_block k ~pc ~routine:"bpf_trace_printk" ~addr:(a 1) ~size
      with
      | None -> efault
      | Some _fmt ->
        (* the helper serializes on an internal buffer lock; a kprobe
           sits on the helper itself (Bug#4's attach point) *)
        Kstate.kernel_lock_acquire k ~routine:"bpf_trace_printk"
          "trace_printk_buf";
        List.iter
          (fun tp -> k.Kstate.on_event tp.Tracepoint.tp_name)
          (Tracepoint.fired_by_helper "trace_printk");
        Kstate.kernel_lock_release k ~routine:"bpf_trace_printk"
          "trace_printk_buf";
        Int64.of_int size
    end
  | "spin_lock" ->
    Kstate.kernel_lock_acquire k ~routine:"bpf_spin_lock"
      (spin_lock_class k (a 1));
    0L
  | "spin_unlock" ->
    Kstate.kernel_lock_release k ~routine:"bpf_spin_unlock"
      (spin_lock_class k (a 1));
    0L
  | "send_signal" -> begin
      match k.Kstate.lock_ctx with
      | Lockdep.Nmi | Lockdep.Hardirq ->
        if Kstate.has_bug k Kconfig.Bug6_signal_send_nmi then begin
          routine_report k ~pc ~routine:"bpf_send_signal"
            (Report.Panic "send_signal from irq/nmi work context");
          efault
        end
        else eperm (* fixed kernel declines gracefully *)
      | Lockdep.Normal | Lockdep.Softirq -> 0L
    end
  | "probe_read" | "probe_read_kernel" -> begin
      let size = Int64.to_int (a 2) in
      (* faulting source reads are exception-tabled: no report *)
      let rec read_src off acc =
        if off >= size then Some (List.rev acc)
        else
          let chunk = min 8 (size - off) in
          match
            Kmem.raw_load k.Kstate.mem
              ~addr:(Int64.add (a 3) (Int64.of_int off))
              ~size:chunk
          with
          | Ok v -> read_src (off + chunk) ((chunk, v) :: acc)
          | Error _ -> None
      in
      match read_src 0 [] with
      | None -> efault
      | Some chunks ->
        let buf = Bytes.make size '\000' in
        let _ =
          List.fold_left
            (fun off (chunk, v) ->
               Word.set_le buf off chunk v;
               off + chunk)
            0 chunks
        in
        if write_block k ~pc ~routine:"bpf_probe_read_kernel" ~addr:(a 1)
            buf
        then 0L
        else efault
    end
  | "get_current_comm" -> begin
      let size = Int64.to_int (a 2) in
      let comm = Bytes.make size '\000' in
      Bytes.blit_string "kworker/u2:1" 0 comm 0 (min 12 size);
      if write_block k ~pc ~routine:"bpf_get_current_comm" ~addr:(a 1) comm
      then 0L
      else efault
    end
  | "snprintf" -> begin
      let dst_size = Int64.to_int (a 2) in
      let fmt_size = Int64.to_int (a 4) in
      match
        read_block k ~pc ~routine:"bpf_snprintf" ~addr:(a 3) ~size:fmt_size
      with
      | None -> efault
      | Some fmt ->
        let out = Bytes.make dst_size '\000' in
        Bytes.blit fmt 0 out 0 (min fmt_size dst_size);
        if write_block k ~pc ~routine:"bpf_snprintf" ~addr:(a 1) out then
          Int64.of_int (min fmt_size dst_size)
        else efault
    end
  | "skb_load_bytes" -> begin
      let off = Int64.to_int (a 2) in
      let size = Int64.to_int (a 4) in
      match env.pkt with
      | None -> efault
      | Some pkt ->
        if off < 0 || size <= 0 || off + size > pkt.Kmem.size then efault
        else begin
          let data = Bytes.sub pkt.Kmem.data off size in
          if write_block k ~pc ~routine:"bpf_skb_load_bytes" ~addr:(a 3)
              data
          then 0L
          else efault
        end
    end
  | "ringbuf_reserve" -> begin
      match find_map k (a 1) with
      | None -> 0L
      | Some m -> begin
          match
            Map.ringbuf_reserve ~failslab:k.Kstate.failslab k.Kstate.mem m
              ~size:(Int64.to_int (a 2))
          with
          | Some addr -> addr
          | None -> 0L
        end
    end
  | "ringbuf_submit" | "ringbuf_discard" -> begin
      maybe_bug10 k ~pc ~routine:("bpf_" ^ name);
      let chunk_addr = a 1 in
      let released =
        List.exists
          (fun (_, m) -> Map.ringbuf_release k.Kstate.mem m ~addr:chunk_addr)
          k.Kstate.maps
      in
      if not released then
        routine_report k ~pc ~routine:("bpf_" ^ name)
          (Report.Warn "ringbuf release of unknown chunk");
      0L
    end
  | "ringbuf_output" -> begin
      maybe_bug10 k ~pc ~routine:"bpf_ringbuf_output";
      let size = Int64.to_int (a 3) in
      match
        read_block k ~pc ~routine:"bpf_ringbuf_output" ~addr:(a 2) ~size
      with
      | None -> efault
      | Some _ -> 0L
    end
  | _ ->
    routine_report k ~pc ~routine:name
      (Report.Warn (Printf.sprintf "unimplemented helper %s" name));
    0L

(* Kfunc execution. *)
let call_kfunc (k : Kstate.t) ~(pc : int) (kf : Helper.kfunc)
    (args : int64 array) : int64 =
  ignore pc;
  match kf.Helper.kname with
  | "bpf_task_from_pid" ->
    if args.(0) = k.Kstate.current_pid then Kstate.current_task_addr k
    else 0L
  | "bpf_task_release" -> 0L
  | "bpf_obj_id" -> Int64.logand args.(0) 0xFFFFL
  | _ -> 0L
