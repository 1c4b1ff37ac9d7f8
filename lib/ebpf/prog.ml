(* eBPF program types and their context-object layouts.

   Each program type runs with R1 pointing to a type-specific context
   structure; the verifier validates every context access against the
   layout (offset alignment, width, writability), and fields of kind
   [Fk_pkt_data]/[Fk_pkt_end] load packet pointers rather than scalars,
   feeding the verifier's packet-range analysis. *)

type field_kind =
  | Fk_scalar
  | Fk_pkt_data (* loads PTR_TO_PACKET *)
  | Fk_pkt_end  (* loads PTR_TO_PACKET_END *)

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

let all_prog_types =
  [ Socket_filter; Kprobe; Tracepoint; Raw_tracepoint; Xdp; Perf_event;
    Cgroup_skb ]

let prog_type_to_string = function
  | Socket_filter -> "socket_filter"
  | Kprobe -> "kprobe"
  | Tracepoint -> "tracepoint"
  | Raw_tracepoint -> "raw_tracepoint"
  | Xdp -> "xdp"
  | Perf_event -> "perf_event"
  | Cgroup_skb -> "cgroup_skb"

let prog_type_of_string = function
  | "socket_filter" -> Some Socket_filter
  | "kprobe" -> Some Kprobe
  | "tracepoint" -> Some Tracepoint
  | "raw_tracepoint" -> Some Raw_tracepoint
  | "xdp" -> Some Xdp
  | "perf_event" -> Some Perf_event
  | "cgroup_skb" -> Some Cgroup_skb
  | _ -> None

let scalar ?(writable = false) fname foff fsize =
  { fname; foff; fsize; fwritable = writable; fkind = Fk_scalar }

(* A simplified __sk_buff: the fields the generator and tests exercise. *)
let sk_buff_layout =
  {
    ctx_size = 192;
    fields =
      [
        scalar "len" 0 4;
        scalar "pkt_type" 4 4;
        scalar ~writable:true "mark" 8 4;
        scalar "queue_mapping" 12 4;
        scalar "protocol" 16 4;
        scalar "vlan_present" 20 4;
        scalar ~writable:true "priority" 32 4;
        scalar "ingress_ifindex" 36 4;
        scalar ~writable:true "cb0" 48 4;
        scalar ~writable:true "cb1" 52 4;
        scalar ~writable:true "cb2" 56 4;
        scalar ~writable:true "cb3" 60 4;
        scalar ~writable:true "cb4" 64 4;
        scalar "hash" 68 4;
        { fname = "data"; foff = 76; fsize = 4; fwritable = false;
          fkind = Fk_pkt_data };
        { fname = "data_end"; foff = 80; fsize = 4; fwritable = false;
          fkind = Fk_pkt_end };
      ];
  }

let xdp_layout =
  {
    ctx_size = 24;
    fields =
      [
        { fname = "data"; foff = 0; fsize = 4; fwritable = false;
          fkind = Fk_pkt_data };
        { fname = "data_end"; foff = 4; fsize = 4; fwritable = false;
          fkind = Fk_pkt_end };
        scalar "data_meta" 8 4;
        scalar "ingress_ifindex" 12 4;
        scalar "rx_queue_index" 16 4;
        scalar "egress_ifindex" 20 4;
      ];
  }

(* pt_regs for kprobe: 21 readable 8-byte registers. *)
let kprobe_layout =
  {
    ctx_size = 168;
    fields =
      List.init 21 (fun i -> scalar (Printf.sprintf "reg%d" i) (i * 8) 8);
  }

let tracepoint_layout =
  { ctx_size = 64;
    fields = List.init 8 (fun i -> scalar (Printf.sprintf "arg%d" i) (i * 8) 8)
  }

let raw_tracepoint_layout =
  { ctx_size = 48;
    fields = List.init 6 (fun i -> scalar (Printf.sprintf "arg%d" i) (i * 8) 8)
  }

let perf_event_layout =
  {
    ctx_size = 32;
    fields =
      [ scalar "sample_period" 0 8; scalar "addr" 8 8;
        scalar "regs" 16 8; scalar "pad" 24 8 ];
  }

let ctx_layout = function
  | Socket_filter | Cgroup_skb -> sk_buff_layout
  | Kprobe -> kprobe_layout
  | Tracepoint -> tracepoint_layout
  | Raw_tracepoint -> raw_tracepoint_layout
  | Xdp -> xdp_layout
  | Perf_event -> perf_event_layout

let field_at (layout : ctx_layout) ~(off : int) ~(size : int) :
  field option =
  List.find_opt
    (fun f -> f.foff = off && f.fsize = size)
    layout.fields

(* Return-value constraint checked at EXIT: allowed [min,max] for R0,
   or None when the program type does not constrain the return value. *)
let return_range = function
  | Socket_filter | Cgroup_skb -> Some (0L, 1L)
  | Xdp -> Some (0L, 4L) (* XDP_ABORTED..XDP_REDIRECT *)
  | Kprobe | Tracepoint | Raw_tracepoint | Perf_event -> None

(* Program types whose context supports direct packet access. *)
let has_packet_access = function
  | Socket_filter | Cgroup_skb | Xdp -> true
  | Kprobe | Tracepoint | Raw_tracepoint | Perf_event -> false

(* Tracing-style program types may be attached to arbitrary kernel events
   (tracepoints / kprobes), which is where the paper's indicator#2
   recursion bugs live. *)
let is_tracing = function
  | Kprobe | Tracepoint | Raw_tracepoint | Perf_event -> true
  | Socket_filter | Cgroup_skb | Xdp -> false

(* The fixed per-frame stack size, as in Linux. *)
let stack_size = 512

(* Maximum number of instructions the loader accepts (scaled-down
   BPF_MAXINSNS for the simulation). *)
let max_insns = 4096
