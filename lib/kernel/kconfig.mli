(** Kernel configuration for a simulated instance: version (gating
    features), the registry of injected historical bugs — the ground
    truth for the Table 2 experiment — and the Kconfig-style switch for
    the paper's bpf_asan sanitation patches. *)

(** The injected bug corpus: the paper's Table 2 plus CVE-2022-23222. *)
type bug =
  | Bug1_nullness_propagation
  | Bug2_btf_size_check
  | Bug3_backtrack_precision
  | Bug4_trace_printk_recursion
  | Bug5_contention_begin_attach
  | Bug6_signal_send_nmi
  | Cve_2022_23222
  | Bug7_dispatcher_race
  | Bug8_kmemdup_limit
  | Bug9_map_bucket_iter
  | Bug10_irq_work_lock
  | Bug11_xdp_host_exec
  | Bug12_narrow_load_const
      (** verifier: a narrow [Ldx] of a constant spill keeps the stale
          full-width constant instead of truncating it to the access
          width.  Regression demonstrator for the narrow-load fix —
          deliberately NOT in {!all_bugs} and shipped by no version:
          directed tests enable it explicitly to show the old behavior
          was a real abstract/concrete divergence. *)
  | Bug13_widen_tight_exit
      (** verifier: loop-state widening declares convergence after its
          first round, leaving the loop-exit range too tight.  Like
          {!Bug12_narrow_load_const} it is a directed-test
          demonstrator — NOT in {!all_bugs}, shipped by no version —
          showing a broken widening surfaces as a witness escape. *)

val all_bugs : bug list
(** The campaign corpus.  Excludes {!Bug12_narrow_load_const} and
    {!Bug13_widen_tight_exit}, which exist only for directed
    regression tests. *)

val bug_to_string : bug -> string

val bug_info : bug -> string * string * [ `Correctness | `Memory | `Lock ]
(** Table 2 component, description and class. *)

val bug_in_version : Bvf_ebpf.Version.t -> bug -> bool
(** Historical presence: which versions shipped the bug before its
    fix. *)

type t = {
  version : Bvf_ebpf.Version.t;
  bugs : bug list;
  sanitize : bool;      (** CONFIG_BPF_ASAN: the paper's patches *)
  unprivileged : bool;
  lint : bool;
      (** CONFIG_BPF_DEBUG-style invariant lint over every verifier
          register state; off by default so injected ground-truth bugs
          still flow to the dynamic oracle *)
  witness : bool;
      (** record per-instruction abstract register states so the
          interpreter can check concrete values against them *)
}

val make :
  ?bugs:bug list -> ?sanitize:bool -> ?unprivileged:bool ->
  ?lint:bool -> ?witness:bool ->
  Bvf_ebpf.Version.t -> t

val default : Bvf_ebpf.Version.t -> t
(** The version's historical bug set, sanitation enabled: what the
    paper's campaigns ran against. *)

val fixed : Bvf_ebpf.Version.t -> t
(** A fully fixed kernel: no injected bugs. *)

val has : t -> bug -> bool

val fields : t -> (string * string) list
(** Every field as a [(name, value)] pair: ["kernel"], ["bugs"] (the
    sorted bug names, comma-separated, or ["none"]), ["sanitize"],
    ["unprivileged"], ["witness"], ["lint"].  Two configs are equal up
    to the order and repeats of their bugs exactly when their listings
    are. *)

val with_sanitize : t -> bool -> t
val with_lint : t -> bool -> t
val with_witness : t -> bool -> t
