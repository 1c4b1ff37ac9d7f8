(* Catalogue of helper functions and kfuncs: the declarative prototypes the
   verifier checks call sites against, and the attributes the simulated
   kernel uses to execute them.

   Ids follow the real uapi numbering where a counterpart exists
   (bpf_map_lookup_elem = 1, bpf_spin_lock = 93, ...).  The sanitizing
   functions introduced by the paper's kernel patches
   (bpf_asan_load{8,16,32,64} / bpf_asan_store* / bpf_asan_check_alu) are
   internal: they can be emitted only by the rewrite passes, never by
   programs, mirroring how the patched kernel hides them from userspace. *)

type arg =
  | Anything            (* any initialized value *)
  | Const_map_ptr
  | Map_key             (* pointer to key_size initialized bytes *)
  | Map_value           (* pointer to value_size initialized bytes *)
  | Mem_rd              (* pointer to initialized memory; size is the
                           following [Size] argument *)
  | Mem_wr              (* pointer to writable memory; size follows *)
  | Size of { max : int; allow_zero : bool }
  | Ctx
  | Btf_task            (* trusted pointer to a task_struct *)
  | Spin_lock           (* pointer to a bpf_spin_lock inside a map value *)
  | Scalar_const        (* scalar whose value must be verifier-known *)

type ret =
  | R_integer
  | R_void
  | R_map_value_or_null
  | R_btf_task_or_null
  | R_ringbuf_mem_or_null

(* Behavioural attributes interpreted by the simulated kernel: they decide
   which indicator-#2 capture mechanism a buggy invocation trips. *)
type attr =
  | Acquires_lock of string   (* lock class acquired internally *)
  | Fires_tracepoint of string
  | Sends_signal
  | Queues_irq_work
  | Writes_mem                (* fills a Mem_wr argument *)
  | Allocates                 (* returns fresh memory (ringbuf reserve) *)
  | Releases                  (* consumes a referenced object *)

type t = {
  id : int;
  name : string;
  args : arg list;
  ret : ret;
  prog_types : Prog.prog_type list option; (* None = any *)
  since : Version.t;
  attrs : attr list;
  internal : bool;
}

let mk ?(prog_types = None) ?(since = Version.V5_15) ?(attrs = [])
    ?(internal = false) id name args ret =
  { id; name; args; ret; prog_types; since; attrs; internal }

let tracing_only =
  Some [ Prog.Kprobe; Prog.Tracepoint; Prog.Raw_tracepoint; Prog.Perf_event ]

(* -- Public helpers ------------------------------------------------- *)

let map_lookup_elem = mk 1 "map_lookup_elem"
    [ Const_map_ptr; Map_key ] R_map_value_or_null

let map_update_elem = mk 2 "map_update_elem"
    [ Const_map_ptr; Map_key; Map_value; Anything ] R_integer

let map_delete_elem = mk 3 "map_delete_elem"
    [ Const_map_ptr; Map_key ] R_integer

let probe_read = mk 4 "probe_read"
    ~prog_types:tracing_only
    [ Mem_wr; Size { max = 512; allow_zero = true }; Anything ] R_integer
    ~attrs:[ Writes_mem ]

let ktime_get_ns = mk 5 "ktime_get_ns" [] R_integer

let trace_printk = mk 6 "trace_printk"
    ~prog_types:tracing_only
    [ Mem_rd; Size { max = 64; allow_zero = false }; Anything ] R_integer
    ~attrs:[ Acquires_lock "trace_printk_buf"; Fires_tracepoint "contention_begin" ]

let get_prandom_u32 = mk 7 "get_prandom_u32" [] R_integer

let get_smp_processor_id = mk 8 "get_smp_processor_id" [] R_integer

let get_current_pid_tgid = mk 14 "get_current_pid_tgid"
    ~prog_types:tracing_only [] R_integer

let get_current_uid_gid = mk 15 "get_current_uid_gid"
    ~prog_types:tracing_only [] R_integer

let get_current_comm = mk 16 "get_current_comm"
    ~prog_types:tracing_only
    [ Mem_wr; Size { max = 16; allow_zero = false } ] R_integer
    ~attrs:[ Writes_mem ]

let skb_load_bytes = mk 26 "skb_load_bytes"
    ~prog_types:(Some [ Prog.Socket_filter; Prog.Cgroup_skb ])
    [ Ctx; Anything; Mem_wr; Size { max = 256; allow_zero = false } ]
    R_integer ~attrs:[ Writes_mem ]

let get_current_task = mk 35 "get_current_task"
    ~prog_types:tracing_only [] R_integer

let get_stackid = mk 27 "get_stackid"
    ~prog_types:tracing_only
    [ Ctx; Const_map_ptr; Anything ] R_integer

let spin_lock = mk 93 "spin_lock" [ Spin_lock ] R_void
    ~attrs:[ Acquires_lock "map_value_lock";
             Fires_tracepoint "contention_begin" ]

let spin_unlock = mk 94 "spin_unlock" [ Spin_lock ] R_void

let send_signal = mk 109 "send_signal"
    ~prog_types:tracing_only ~since:Version.V5_15
    [ Anything ] R_integer ~attrs:[ Sends_signal ]

let probe_read_kernel = mk 113 "probe_read_kernel"
    ~prog_types:tracing_only
    [ Mem_wr; Size { max = 512; allow_zero = true }; Anything ] R_integer
    ~attrs:[ Writes_mem ]

let ringbuf_output = mk 130 "ringbuf_output"
    ~since:Version.V5_15
    [ Const_map_ptr; Mem_rd; Size { max = 4096; allow_zero = false };
      Anything ]
    R_integer ~attrs:[ Queues_irq_work ]

let ringbuf_reserve = mk 131 "ringbuf_reserve"
    ~since:Version.V5_15
    [ Const_map_ptr; Scalar_const; Anything ] R_ringbuf_mem_or_null
    ~attrs:[ Allocates ]

let ringbuf_submit = mk 132 "ringbuf_submit"
    ~since:Version.V5_15 [ Anything; Anything ] R_void
    ~attrs:[ Releases; Queues_irq_work ]

let ringbuf_discard = mk 133 "ringbuf_discard"
    ~since:Version.V5_15 [ Anything; Anything ] R_void ~attrs:[ Releases ]

let get_current_task_btf = mk 158 "get_current_task_btf"
    ~prog_types:tracing_only ~since:Version.V6_1 [] R_btf_task_or_null

let task_pt_regs = mk 175 "task_pt_regs"
    ~prog_types:tracing_only ~since:Version.V6_1 [ Btf_task ] R_integer

let snprintf = mk 165 "snprintf"
    ~since:Version.V6_1
    [ Mem_wr; Size { max = 512; allow_zero = false }; Mem_rd;
      Size { max = 64; allow_zero = true }; Anything ]
    R_integer ~attrs:[ Writes_mem ]

let loop = mk 181 "loop"
    ~since:Version.V6_1
    [ Anything; Anything; Anything; Anything ] R_integer

let ktime_get_boot_ns = mk 125 "ktime_get_boot_ns" [] R_integer

let jiffies64 = mk 118 "jiffies64" [] R_integer

(* -- Internal sanitizing functions (the paper's kernel patches) ------ *)

let asan_base = 0x0f00

let asan_load sz =
  mk (asan_base + sz) (Printf.sprintf "bpf_asan_load%d" (sz * 8))
    [ Anything ] R_void ~internal:true

let asan_store sz =
  mk (asan_base + 0x10 + sz) (Printf.sprintf "bpf_asan_store%d" (sz * 8))
    [ Anything ] R_void ~internal:true

let asan_load8 = asan_load 1
let asan_load16 = asan_load 2
let asan_load32 = asan_load 4
let asan_load64 = asan_load 8
let asan_store8 = asan_store 1
let asan_store16 = asan_store 2
let asan_store32 = asan_store 4
let asan_store64 = asan_store 8

(* alu_limit runtime assertion: R1 = runtime offset, R2 = limit. *)
let asan_check_alu =
  mk (asan_base + 0x20) "bpf_asan_check_alu" [ Anything; Anything ] R_void
    ~internal:true

(* Probe-read variants for exception-tabled loads (BTF pointers): like
   asan_load, but faulting on NULL/unmapped addresses is tolerated (the
   kernel's copy_from_kernel_nofault handles those); only redzone and
   use-after-free poisoning is reported. *)
let asan_probe (sz : int) =
  mk (asan_base + 0x30 + sz) (Printf.sprintf "bpf_asan_probe%d" (sz * 8))
    [ Anything ] R_void ~internal:true

let asan_probe8 = asan_probe 1
let asan_probe16 = asan_probe 2
let asan_probe32 = asan_probe 4
let asan_probe64 = asan_probe 8

let internal_helpers =
  [ asan_load8; asan_load16; asan_load32; asan_load64; asan_store8;
    asan_store16; asan_store32; asan_store64; asan_check_alu;
    asan_probe8; asan_probe16; asan_probe32; asan_probe64 ]

let public_helpers =
  [ map_lookup_elem; map_update_elem; map_delete_elem; probe_read;
    ktime_get_ns; trace_printk; get_prandom_u32; get_smp_processor_id;
    get_current_pid_tgid; get_current_uid_gid; get_current_comm;
    skb_load_bytes; get_current_task; get_stackid; spin_lock; spin_unlock;
    send_signal; probe_read_kernel; ringbuf_output; ringbuf_reserve;
    ringbuf_submit; ringbuf_discard; get_current_task_btf; task_pt_regs;
    snprintf; loop; ktime_get_boot_ns; jiffies64 ]

let all = public_helpers @ internal_helpers

(* Ids are small (the internal ones sit just above [asan_base]), so the
   lookup is one index into a table built at module initialization and
   never written after. *)
let by_id : t option array =
  let tbl =
    Array.make (1 + List.fold_left (fun m h -> max m h.id) 0 all) None
  in
  List.iter (fun h -> tbl.(h.id) <- Some h) all;
  tbl

let find (id : int) : t option =
  if id >= 0 && id < Array.length by_id then Array.unsafe_get by_id id
  else None

(* Helpers available to a program of [pt] under kernel [version]. *)
let available ~(version : Version.t) ~(pt : Prog.prog_type) : t list =
  List.filter
    (fun h ->
       Version.at_least version h.since
       && (match h.prog_types with
           | None -> true
           | Some pts -> List.mem pt pts))
    public_helpers

(* -- Kfuncs ---------------------------------------------------------- *)

(* A small kfunc catalogue (kernel functions callable since v6.1 via
   BPF_PSEUDO_KFUNC_CALL).  [bug3_backtrack] marks the call kind whose
   backtracking mishandling reproduces paper Bug#3. *)
type kfunc = {
  kid : int;
  kname : string;
  kargs : arg list;
  kret : ret;
  ksince : Version.t;
  kacquire : bool; (* returns a reference that must be released *)
  krelease : bool;
}

let kfunc_task_from_pid =
  { kid = 1; kname = "bpf_task_from_pid"; kargs = [ Anything ];
    kret = R_btf_task_or_null; ksince = Version.V6_1; kacquire = true;
    krelease = false }

let kfunc_task_release =
  { kid = 2; kname = "bpf_task_release"; kargs = [ Btf_task ];
    kret = R_void; ksince = Version.V6_1; kacquire = false;
    krelease = true }

let kfunc_obj_id =
  { kid = 3; kname = "bpf_obj_id"; kargs = [ Anything ];
    kret = R_integer; ksince = Version.V6_1; kacquire = false;
    krelease = false }

let kfuncs = [ kfunc_task_from_pid; kfunc_task_release; kfunc_obj_id ]

let find_kfunc id = List.find_opt (fun k -> k.kid = id) kfuncs

let kfuncs_available ~version =
  List.filter (fun k -> Version.at_least version k.ksince) kfuncs
