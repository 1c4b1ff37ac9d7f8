(** Catalogue of helper functions and kfuncs: the declarative prototypes
    the verifier checks call sites against, and the attributes the
    simulated kernel interprets when executing them.

    Ids follow the real uapi numbering where a counterpart exists.  The
    sanitizing functions introduced by the paper's kernel patches
    ([bpf_asan_load*] / [bpf_asan_store*] / probes / the alu_limit
    check) are {e internal}: only rewrite passes may emit calls to
    them. *)

(** Argument constraints, a compact model of the kernel's ARG_* enum. *)
type arg =
  | Anything            (** any initialized value *)
  | Const_map_ptr
  | Map_key             (** pointer to [key_size] initialized bytes *)
  | Map_value           (** pointer to [value_size] initialized bytes *)
  | Mem_rd              (** initialized memory; size in the next [Size] *)
  | Mem_wr              (** writable memory; size in the next [Size] *)
  | Size of { max : int; allow_zero : bool }
  | Ctx
  | Btf_task            (** trusted pointer to a task_struct *)
  | Spin_lock           (** pointer to a bpf_spin_lock in a map value *)
  | Scalar_const        (** scalar the verifier must know exactly *)

(** Return-value kinds (RET_* analogue). *)
type ret =
  | R_integer
  | R_void
  | R_map_value_or_null
  | R_btf_task_or_null
  | R_ringbuf_mem_or_null

(** Behavioural attributes deciding which indicator-#2 capture mechanism
    a buggy invocation trips. *)
type attr =
  | Acquires_lock of string
  | Fires_tracepoint of string
  | Sends_signal
  | Queues_irq_work
  | Writes_mem
  | Allocates
  | Releases

type t = {
  id : int;
  name : string;
  args : arg list;
  ret : ret;
  prog_types : Prog.prog_type list option; (** [None] = any *)
  since : Version.t;
  attrs : attr list;
  internal : bool;
}

(** {2 Public helpers} *)

val map_lookup_elem : t
val map_update_elem : t
val map_delete_elem : t
val ktime_get_ns : t
val trace_printk : t
val get_prandom_u32 : t
val get_smp_processor_id : t
val spin_lock : t
val spin_unlock : t
val send_signal : t
val ringbuf_output : t
val ringbuf_reserve : t
val ringbuf_submit : t
val ringbuf_discard : t
val get_current_task_btf : t
val jiffies64 : t

(** {2 Internal sanitizing functions (the paper's kernel patches)} *)

val asan_base : int
(** Id space reserved for internal helpers. *)

val asan_load8 : t
val asan_load16 : t
val asan_load32 : t
val asan_load64 : t
val asan_store8 : t
val asan_store16 : t
val asan_store32 : t
val asan_store64 : t

val asan_probe8 : t
val asan_probe16 : t
val asan_probe32 : t
val asan_probe64 : t
(** Tolerant variants for exception-tabled (BTF) loads: poisoned memory
    is reported, plain faults are not. *)

val asan_check_alu : t
(** Reports an alu_limit violation; reached only when the inline
    comparison emitted by the sanitizer failed. *)

val public_helpers : t list

val find : int -> t option

val available : version:Version.t -> pt:Prog.prog_type -> t list
(** Public helpers a program of type [pt] may call under [version]. *)

(** {2 Kfuncs} *)

type kfunc = {
  kid : int;
  kname : string;
  kargs : arg list;
  kret : ret;
  ksince : Version.t;
  kacquire : bool; (** returns a reference that must be released *)
  krelease : bool;
}

val kfunc_obj_id : kfunc
val find_kfunc : int -> kfunc option
val kfuncs_available : version:Version.t -> kfunc list
