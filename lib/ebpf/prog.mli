(** eBPF program types and their context-object layouts.

    Each program type runs with R1 pointing at a type-specific context
    structure; the verifier validates every context access against the
    layout, and fields of kind [Fk_pkt_data]/[Fk_pkt_end] load packet
    pointers instead of scalars, feeding the packet-range analysis. *)

type field_kind =
  | Fk_scalar
  | Fk_pkt_data (** loads PTR_TO_PACKET *)
  | Fk_pkt_end  (** loads PTR_TO_PACKET_END *)

type field = {
  fname : string;
  foff : int;
  fsize : int;
  fwritable : bool;
  fkind : field_kind;
}

type ctx_layout = { ctx_size : int; fields : field list }

type prog_type =
  | Socket_filter
  | Kprobe
  | Tracepoint
  | Raw_tracepoint
  | Xdp
  | Perf_event
  | Cgroup_skb

val all_prog_types : prog_type list
val prog_type_to_string : prog_type -> string
val prog_type_of_string : string -> prog_type option

val ctx_layout : prog_type -> ctx_layout

val field_at : ctx_layout -> off:int -> size:int -> field option
(** The field at exactly [off] with exactly [size], as the kernel's
    narrow-access tables require. *)

val return_range : prog_type -> (int64 * int64) option
(** Allowed R0 range at EXIT, or [None] when unconstrained (tracing). *)

val has_packet_access : prog_type -> bool
val is_tracing : prog_type -> bool

val stack_size : int
(** Per-frame eBPF stack size: 512 bytes. *)

val max_insns : int
(** Loader instruction-count limit (scaled-down BPF_MAXINSNS). *)
