(** Attach points for tracing programs: tracepoints, kprobe targets and
    perf events, each with the execution context its handlers run in and
    the internal event that fires it.

    [Fired_by_lock_acquisition] marks contention_begin (paper Figure 2);
    [Fired_by_helper] marks kprobes placed on a helper's implementation
    (the Bug#4 trace_printk path). *)

type trigger =
  | Manual
  | Fired_by_lock_acquisition
  | Fired_by_helper of string

type t = {
  tp_name : string;
  tp_ctx : Lockdep.context;
  tp_prog_types : Bvf_ebpf.Prog.prog_type list;
  tp_trigger : trigger;
  tp_since : Bvf_ebpf.Version.t;
}

val find : string -> t option

val available :
  version:Bvf_ebpf.Version.t -> pt:Bvf_ebpf.Prog.prog_type -> t list
(** Attach points a program of type [pt] may use under [version]. *)

val fired_by_helper : string -> t list
val fired_by_lock_acquisition : unit -> t list
