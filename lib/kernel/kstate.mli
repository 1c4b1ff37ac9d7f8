(** One simulated kernel instance ("the VM"): memory, maps, BTF objects,
    lockdep, the dispatcher and the accumulated bug reports.  A fuzzing
    campaign keeps an instance alive across many program loads, like a
    fuzzer reusing a VM until it crashes. *)

type t = {
  config : Kconfig.t;
  mem : Kmem.t;
  failslab : Failslab.t;
      (** fault-injection plan; owned by the campaign so the decision
          stream survives reboots of this instance *)
  lockdep : Lockdep.t;
  dispatcher : Dispatcher.t;
  mutable maps : (int * Map.t) list;          (** fd -> map *)
  mutable map_addrs : (int64 * Map.t) list;   (** kernel address -> map *)
  mutable next_fd : int;
  mutable next_map_id : int;
  mutable next_prog_id : int;
  mutable btf_regions : (int * Kmem.region) list;
  mutable reports : Report.t list;
  mutable report_count : int;
      (** [List.length reports], maintained incrementally so per-step
          "did a new report land?" checks are O(1) *)
  mutable time_ns : int64;
  mutable prandom_state : int64;
  mutable current_pid : int64;
  mutable lock_ctx : Lockdep.context;
      (** execution context, maintained by the runtime *)
  mutable prog_depth : int; (** nesting of program executions *)
  mutable on_event : string -> unit;
      (** callback installed by the runtime: run programs attached to an
          attach point (decouples the kernel from the interpreter) *)
  mutable exec_pool : Kmem.region list;
      (** per-cpu execution scratch reused across runs *)
}

val create : ?failslab:Failslab.t -> Kconfig.t -> t
(** A fresh instance.  [failslab] defaults to a disabled plan. *)

val has_bug : t -> Kconfig.bug -> bool

val report : t -> Report.t -> unit
val peek_reports : t -> Report.t list

val reports_since : t -> int -> Report.t list
(** [reports_since t n]: the reports after the first [n], oldest first,
    in O(new) (= [List.filteri (fun i _ -> i >= n) (peek_reports t)]). *)

val report_count : t -> int
(** Number of pending reports, in O(1) (= [List.length (peek_reports t)]). *)

val try_pool_take :
  t -> site:string -> kind:Kmem.kind -> size:int -> Kmem.region option
(** Borrow a zeroed scratch region from the pool (or allocate one); the
    fault plan is consulted on the slab path (pool hits reuse live memory
    and cannot fail). *)

val pool_return : t -> Kmem.region -> unit

val map_create : t -> Map.def -> int
(** Create a map; returns its fd.  Each map also gets a small
    [struct bpf_map] object whose address LD_IMM64 fixups resolve to. *)

val try_map_create : t -> Map.def -> int option
(** Fallible {!map_create}: [None] when the fault plan fails the
    backing allocation (the syscall's -ENOMEM). *)

val map_of_fd : t -> int -> Map.t option
val map_addr : t -> int -> int64 option
val map_of_addr : t -> int64 -> Map.t option

val btf_addr : t -> int -> int64
(** Runtime address of a BTF object; 0 for runtime-null objects. *)

val current_task_addr : t -> int64

val ktime : t -> int64
val prandom_u32 : t -> int64

val kernel_lock_acquire : t -> routine:string -> string -> unit
(** Lockdep-checked acquisition; fires the contention_begin tracepoint
    (every eBPF spin-lock acquisition contends in the simulation, the
    Figure 2 amplification). *)

val kernel_lock_release : t -> routine:string -> string -> unit

val end_of_execution : t -> unit
(** End of a top-level program run: RCU grace period for deferred map
    frees plus the leaked-lock check. *)
