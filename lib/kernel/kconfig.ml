(* Kernel configuration for a simulated instance: the version (which gates
   features in the verifier, helper set and tracepoints) plus the registry
   of injected historical bugs — the ground truth for the Table 2
   experiment — and the Kconfig-style switch enabling the paper's
   bpf_asan sanitation patches. *)

open Import

type bug =
  | Bug1_nullness_propagation
    (* verifier: JEQ/JNE reg-reg nullness propagation does not filter
       PTR_TO_BTF_ID, marking or_null pointers non-null (Listing 2) *)
  | Bug2_btf_size_check
    (* verifier: task_struct access validation accepts a window larger
       than the object -> OOB read *)
  | Bug3_backtrack_precision
    (* verifier: backtracking over kfunc calls loses precision marks,
       accepting unbounded scalars as offsets *)
  | Bug4_trace_printk_recursion
    (* verifier: program attachable to the tracepoint fired by
       trace_printk's own internal lock -> deadlock *)
  | Bug5_contention_begin_attach
    (* verifier/attach: no validation of programs attached to
       contention_begin that themselves acquire locks (Figure 2) *)
  | Bug6_signal_send_nmi
    (* verifier: send_signal usable from NMI-like attach context ->
       kernel panic *)
  | Cve_2022_23222
    (* verifier: ALU arithmetic permitted on *_or_null pointers
       (Listing 1) *)
  | Bug7_dispatcher_race
    (* dispatcher: update not synchronized with execution ->
       null-ptr-deref *)
  | Bug8_kmemdup_limit
    (* syscall: duplicating rewritten insns with kmemdup fails above the
       kmalloc limit *)
  | Bug9_map_bucket_iter
    (* hash map: bucket iteration continues past the end when the bucket
       lock cannot be taken -> OOB *)
  | Bug10_irq_work_lock
    (* helper: irq_work_queue misuse in ringbuf helpers -> lock bug *)
  | Bug11_xdp_host_exec
    (* XDP: device-offloaded program executed on the host *)
  | Bug12_narrow_load_const
    (* verifier: narrow Ldx of a constant spill keeps the stale
       full-width constant instead of truncating to the access width.
       Not part of the campaign corpus (no version ever shipped it in
       this simulation): it re-creates the pre-fix behavior of this
       repo's own narrow-load bug so directed tests can demonstrate the
       abstract/concrete divergence through the witness oracle. *)
  | Bug13_widen_tight_exit
    (* verifier: loop-state widening declares convergence after its
       first round, so the loop-exit range stays too tight and concrete
       iterations escape the recorded abstract states.  Like Bug12 it
       never shipped: it exists so directed tests can demonstrate that
       a broken widening is caught as a witness escape, not a silent
       unsoundness. *)

(* Bug12 and Bug13 deliberately excluded: regression demonstrators, not
   campaign ground truth. *)
let all_bugs =
  [ Bug1_nullness_propagation; Bug2_btf_size_check;
    Bug3_backtrack_precision; Bug4_trace_printk_recursion;
    Bug5_contention_begin_attach; Bug6_signal_send_nmi; Cve_2022_23222;
    Bug7_dispatcher_race; Bug8_kmemdup_limit; Bug9_map_bucket_iter;
    Bug10_irq_work_lock; Bug11_xdp_host_exec ]

let bug_to_string = function
  | Bug1_nullness_propagation -> "bug1-nullness-propagation"
  | Bug2_btf_size_check -> "bug2-btf-size-check"
  | Bug3_backtrack_precision -> "bug3-backtrack-precision"
  | Bug4_trace_printk_recursion -> "bug4-trace-printk-recursion"
  | Bug5_contention_begin_attach -> "bug5-contention-begin-attach"
  | Bug6_signal_send_nmi -> "bug6-signal-send-nmi"
  | Cve_2022_23222 -> "cve-2022-23222"
  | Bug7_dispatcher_race -> "bug7-dispatcher-race"
  | Bug8_kmemdup_limit -> "bug8-kmemdup-limit"
  | Bug9_map_bucket_iter -> "bug9-map-bucket-iter"
  | Bug10_irq_work_lock -> "bug10-irq-work-lock"
  | Bug11_xdp_host_exec -> "bug11-xdp-host-exec"
  | Bug12_narrow_load_const -> "bug12-narrow-load-const"
  | Bug13_widen_tight_exit -> "bug13-widen-tight-exit"

(* Table 2 component / description / severity, for reporting. *)
let bug_info = function
  | Bug1_nullness_propagation ->
    ("Verifier", "incorrect nullness propagation of pointer comparisons",
     `Correctness)
  | Bug2_btf_size_check ->
    ("Verifier", "incorrect task struct access validation", `Correctness)
  | Bug3_backtrack_precision ->
    ("Verifier", "incorrect check on kfunc call backtracking", `Correctness)
  | Bug4_trace_printk_recursion ->
    ("Verifier", "missing check on programs attached to bpf_trace_printk",
     `Correctness)
  | Bug5_contention_begin_attach ->
    ("Verifier", "missing validation on contention_begin", `Correctness)
  | Bug6_signal_send_nmi ->
    ("Verifier", "missing strict checking on signal sending", `Correctness)
  | Cve_2022_23222 ->
    ("Verifier", "ALU on nullable pointers (CVE-2022-23222)", `Correctness)
  | Bug7_dispatcher_race ->
    ("Dispatcher", "missing sync between dispatcher update and execution",
     `Memory)
  | Bug8_kmemdup_limit ->
    ("Syscall", "incorrect use of kmemdup for rewritten insns", `Memory)
  | Bug9_map_bucket_iter ->
    ("Map", "incorrect bucket iterating on lock failure", `Memory)
  | Bug10_irq_work_lock ->
    ("Helper", "incorrect use of irq_work_queue in helper", `Lock)
  | Bug11_xdp_host_exec ->
    ("XDP", "device program executed on the host", `Memory)
  | Bug12_narrow_load_const ->
    ("Verifier", "narrow load of a constant spill not truncated",
     `Correctness)
  | Bug13_widen_tight_exit ->
    ("Verifier", "loop widening converges on a too-tight exit range",
     `Correctness)

(* Historical presence: which versions ship each bug (before its fix). *)
let bug_in_version (v : Version.t) (b : bug) : bool =
  match b with
  | Bug1_nullness_propagation ->
    (* nullness propagation introduced after v5.15 *)
    Version.at_least v Version.V6_1
  | Bug3_backtrack_precision ->
    (* kfunc calls only exist from v6.1 *)
    Version.at_least v Version.V6_1
  | Bug5_contention_begin_attach ->
    (* contention_begin tracepoint added in v5.19 *)
    Version.at_least v Version.V6_1
  | Bug11_xdp_host_exec -> Version.at_least v Version.V6_1
  | Cve_2022_23222 ->
    (* fixed in v5.16; of the evaluated versions only v5.15 carries it *)
    v = Version.V5_15
  | Bug12_narrow_load_const | Bug13_widen_tight_exit ->
    (* never shipped: exist only for directed regression tests *)
    false
  | Bug2_btf_size_check | Bug4_trace_printk_recursion | Bug6_signal_send_nmi
  | Bug7_dispatcher_race | Bug8_kmemdup_limit | Bug9_map_bucket_iter
  | Bug10_irq_work_lock -> true

type t = {
  version : Version.t;
  bugs : bug list;
  sanitize : bool;      (* CONFIG_BPF_ASAN: the paper's patches *)
  unprivileged : bool;  (* stricter checks for unprivileged loads *)
  lint : bool;          (* CONFIG_BPF_DEBUG: reg_bounds_sanity_check-style
                           invariant lint at every verifier transition *)
  witness : bool;       (* record per-insn abstract states for the runtime
                           concrete-vs-abstract witness oracle *)
}

let make ?(bugs = []) ?(sanitize = true) ?(unprivileged = false)
    ?(lint = false) ?(witness = false) version =
  { version; bugs; sanitize; unprivileged; lint; witness }

(* The configuration the paper's campaigns run against: the version's
   historical bug set, sanitation enabled. *)
let default (version : Version.t) : t =
  make version ~bugs:(List.filter (bug_in_version version) all_bugs)

(* A fully fixed kernel: no injected bugs. *)
let fixed (version : Version.t) : t = make version ~bugs:[]

(* Every [bug] is a constant constructor, so physical equality is
   equality. *)
let has (t : t) (b : bug) : bool = List.memq b t.bugs

(* Every field as [(name, value)] text, the bug set sorted: two configs
   are one kernel exactly when their listings are equal, and the first
   pair that differs names what differs. *)
let fields (t : t) : (string * string) list =
  let flag name v = (name, string_of_bool v) in
  [ ("kernel", Version.to_string t.version);
    ("bugs",
     match List.sort_uniq compare t.bugs with
     | [] -> "none"
     | bugs -> String.concat "," (List.map bug_to_string bugs));
    flag "sanitize" t.sanitize; flag "unprivileged" t.unprivileged;
    flag "witness" t.witness; flag "lint" t.lint ]

let with_sanitize (t : t) (sanitize : bool) : t = { t with sanitize }
let with_lint (t : t) (lint : bool) : t = { t with lint }
let with_witness (t : t) (witness : bool) : t = { t with witness }
