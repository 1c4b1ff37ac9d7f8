(* One simulated kernel instance ("the VM"): memory, maps, BTF objects,
   lockdep, tracepoint attachments and the accumulated bug reports.  A
   fuzzing campaign keeps an instance alive across many program loads,
   like a fuzzer reusing a VM until it crashes. *)

type t = {
  config : Kconfig.t;
  mem : Kmem.t;
  failslab : Failslab.t;  (* fault plan; owned by the campaign, so it
                             survives reboots of this instance *)
  lockdep : Lockdep.t;
  dispatcher : Dispatcher.t;
  mutable maps : (int * Map.t) list;          (* fd -> map *)
  mutable map_addrs : (int64 * Map.t) list;   (* kernel address -> map *)
  mutable next_fd : int;
  mutable next_map_id : int;
  mutable next_prog_id : int;
  mutable btf_regions : (int * Kmem.region) list; (* btf id -> object *)
  mutable reports : Report.t list;
  mutable report_count : int; (* List.length reports, maintained O(1) *)
  mutable time_ns : int64;
  mutable prandom_state : int64;
  mutable current_pid : int64;
  (* execution context, maintained by the runtime around program runs *)
  mutable lock_ctx : Lockdep.context;
  mutable prog_depth : int;  (* nesting of program executions *)
  (* callback installed by the runtime: fire programs attached to an
     attach point.  Decouples the kernel library from the interpreter. *)
  mutable on_event : string -> unit;
  (* per-cpu execution scratch reused across program runs (the kernel
     does not allocate a fresh eBPF stack per invocation either) *)
  mutable exec_pool : Kmem.region list;
}

let create ?failslab (config : Kconfig.t) : t =
  let failslab =
    match failslab with Some f -> f | None -> Failslab.off ()
  in
  let mem = Kmem.create () in
  let btf_regions =
    List.filter_map
      (fun d ->
         if d.Btf.runtime_null then None
         else
           Some
             (d.Btf.btf_id,
              Kmem.alloc mem ~kind:(Kmem.Btf_object d.Btf.btf_name)
                ~size:d.Btf.btf_size))
      Btf.catalogue
  in
  {
    config;
    mem;
    failslab;
    lockdep = Lockdep.create ();
    dispatcher = Dispatcher.create ();
    maps = [];
    map_addrs = [];
    next_fd = 3;
    next_map_id = 1;
    next_prog_id = 1;
    btf_regions;
    reports = [];
    report_count = 0;
    time_ns = 1_000_000L;
    prandom_state = 0x853c49e6748fea9bL;
    current_pid = 4242L;
    lock_ctx = Lockdep.Normal;
    prog_depth = 0;
    on_event = (fun _ -> ());
    exec_pool = [];
  }

(* Borrow a live region of exactly [size]/[kind] from the scratch pool,
   or allocate one.  Contents are zeroed, as the fresh-allocation path
   would produce.  The fault plan is consulted only on the slab path (a
   pool hit reuses live memory, which cannot fail), mirroring how
   failslab hooks kmem_cache_alloc and not object reuse. *)
let try_pool_take (t : t) ~(site : string) ~(kind : Kmem.kind)
    ~(size : int) : Kmem.region option =
  let matches (r : Kmem.region) = r.Kmem.rkind = kind && r.Kmem.size = size in
  match List.find_opt matches t.exec_pool with
  | Some r ->
    t.exec_pool <- List.filter (fun x -> x != r) t.exec_pool;
    Bytes.fill r.Kmem.data 0 size '\000';
    Some r
  | None ->
    if Failslab.should_fail t.failslab ~site then None
    else Some (Kmem.alloc t.mem ~kind ~size)

let pool_return (t : t) (r : Kmem.region) : unit =
  if List.length t.exec_pool < 16 then t.exec_pool <- r :: t.exec_pool
  else Kmem.free t.mem r

let has_bug (t : t) (b : Kconfig.bug) : bool = Kconfig.has t.config b

let report (t : t) (r : Report.t) : unit =
  t.reports <- r :: t.reports;
  t.report_count <- t.report_count + 1

let report_count (t : t) : int = t.report_count

let peek_reports (t : t) : Report.t list = List.rev t.reports

(* The newest [count - n] reports sit at the head of [reports]: take
   them and reverse, never touching the older ones. *)
let reports_since (t : t) (n : int) : Report.t list =
  let rec take k acc = function
    | r :: rest when k > 0 -> take (k - 1) (r :: acc) rest
    | _ -> acc
  in
  take (t.report_count - n) [] t.reports

(* -- Maps ------------------------------------------------------------ *)

(* Create a map; returns its fd.  Each map also gets a small "struct
   bpf_map" kernel object whose address is what LD_IMM64 map-fd loads
   resolve to after fixup. *)
let map_create (t : t) (def : Map.def) : int =
  let id = t.next_map_id in
  t.next_map_id <- id + 1;
  let map = Map.create t.mem ~id def in
  let obj = Kmem.alloc t.mem ~kind:(Kmem.Kernel_internal "struct bpf_map")
      ~size:64 in
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  t.maps <- (fd, map) :: t.maps;
  t.map_addrs <- (obj.Kmem.base, map) :: t.map_addrs;
  fd

(* Fallible map creation: with a fault plan armed, the backing
   allocation can fail and the syscall surfaces -ENOMEM (None). *)
let try_map_create (t : t) (def : Map.def) : int option =
  if Failslab.should_fail t.failslab ~site:"map_create" then None
  else Some (map_create t def)

let rec map_in (fd : int) : (int * Map.t) list -> Map.t option = function
  | [] -> None
  | (fd', m) :: rest -> if fd' = fd then Some m else map_in fd rest

let map_of_fd (t : t) (fd : int) : Map.t option = map_in fd t.maps

let map_addr (t : t) (fd : int) : int64 option =
  match map_of_fd t fd with
  | None -> None
  | Some m ->
    List.find_map
      (fun (addr, m') -> if m' == m then Some addr else None)
      t.map_addrs

let rec map_at (addr : int64) : (int64 * Map.t) list -> Map.t option =
  function
  | [] -> None
  | (a, m) :: rest -> if Int64.equal a addr then Some m else map_at addr rest

let map_of_addr (t : t) (addr : int64) : Map.t option = map_at addr t.map_addrs

(* -- BTF objects ------------------------------------------------------ *)

(* Runtime address of a BTF object: NULL for runtime-null objects. *)
let btf_addr (t : t) (btf_id : int) : int64 =
  match List.assoc_opt btf_id t.btf_regions with
  | Some r -> r.Kmem.base
  | None -> 0L

let current_task_addr (t : t) : int64 = btf_addr t Btf.task_struct.Btf.btf_id

(* -- Misc kernel services --------------------------------------------- *)

let ktime (t : t) : int64 =
  t.time_ns <- Int64.add t.time_ns 1337L;
  t.time_ns

let prandom_u32 (t : t) : int64 =
  (* xorshift64*, truncated *)
  let x = t.prandom_state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.prandom_state <- x;
  Int64.logand x 0xFFFF_FFFFL

(* Fire every lockdep violation gathered so far as reports attributed to
   [routine]. *)
let flush_lockdep (t : t) ~(routine : string) : unit =
  List.iter
    (fun v ->
       report t (Report.make (Report.Kernel_routine routine)
                   (Report.Lock_violation v)))
    (Lockdep.take_violations t.lockdep)

(* A lock acquisition inside the kernel: runs lockdep and fires the
   contention_begin tracepoint (Figure 2's trigger).  Spin locks taken
   from eBPF programs on a busy kernel contend, so the simulation
   treats every such acquisition as contended — this is exactly the
   amplification that makes programs attached to contention_begin
   re-enter themselves. *)
let kernel_lock_acquire (t : t) ~(routine : string) (cls : string) : unit =
  Lockdep.acquire t.lockdep cls;
  flush_lockdep t ~routine;
  List.iter
    (fun tp -> t.on_event tp.Tracepoint.tp_name)
    (Tracepoint.fired_by_lock_acquisition ())

let kernel_lock_release (t : t) ~(routine : string) (cls : string) : unit =
  Lockdep.release t.lockdep cls;
  flush_lockdep t ~routine

(* End of one top-level program execution: RCU grace period, leaked-lock
   check. *)
let end_of_execution (t : t) : unit =
  List.iter (fun (_, m) -> Map.end_of_execution t.mem m) t.maps;
  Lockdep.end_of_execution t.lockdep;
  flush_lockdep t ~routine:"bpf_prog_exit"
