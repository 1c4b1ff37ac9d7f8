(** Concrete implementations of helper functions and kfuncs.

    Every anomaly observed while a helper runs — KASAN faults on the
    memory the program handed in, lockdep violations, panics — is
    appended to the kernel's report list with origin [Kernel_routine]:
    the paper's indicator-#2 capture path.  The interpreter aborts the
    execution when new reports appear. *)

(** Per-execution environment a few helpers need. *)
type env = { pkt : Kmem.region option }

val call :
  Kstate.t -> env -> pc:int -> Bvf_ebpf.Helper.t -> int64 array -> int64
(** Execute a helper with argument registers [| r1..r5 |]; returns the
    value for R0. *)

val call_kfunc :
  Kstate.t -> pc:int -> Bvf_ebpf.Helper.kfunc -> int64 array -> int64
