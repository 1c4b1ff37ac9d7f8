open Vimport

(* The verification environment: program, per-instruction auxiliary data
   (the kernel's insn_aux_data), the current abstract state, the branch
   worklist, explored states for pruning, the verifier log and the
   coverage instrumentation. *)

type errno = EACCES | EINVAL | E2BIG | EPERM | EFAULT | ENOMEM | EBADF

let errno_to_string = function
  | EACCES -> "EACCES"
  | EINVAL -> "EINVAL"
  | E2BIG -> "E2BIG"
  | EPERM -> "EPERM"
  | EFAULT -> "EFAULT"
  | ENOMEM -> "ENOMEM"
  | EBADF -> "EBADF"

(* An injected environmental failure, not a verifier verdict: campaigns
   may retry these, and the oracle never counts them as findings. *)
let errno_is_transient = function
  | ENOMEM -> true
  | EACCES | EINVAL | E2BIG | EPERM | EFAULT | EBADF -> false

type verr = {
  errno : errno;
  vmsg : string;
  vpc : int;
  vreason : Reject_reason.t; (* structured rejection taxonomy *)
}

exception Reject of verr

let verr_make (errno : errno) (vreason : Reject_reason.t) ~(pc : int)
    (vmsg : string) : verr =
  { errno; vmsg; vpc = pc; vreason }

type explored_entry = {
  mutable e_state : Vstate.t;
  mutable e_branches : int; (* unfinished paths below this state *)
  mutable e_widens : int; (* widening rounds applied at this loop head *)
}

type aux = {
  mutable ptr_kind : Regstate.ptr_kind option;
      (* pointer kind of the address register of a mem-access insn *)
  mutable alu_limit : (int64 * bool) option; (* limit, is_subtraction *)
  mutable rewritten : bool;        (* insn emitted by a rewrite pass *)
  mutable skip_sanitize : bool;    (* known-safe constant stack access *)
  mutable exception_handled : bool;(* BTF-pointer load: faults handled *)
  mutable call_helper : Helper.t option; (* resolved helper at this call *)
  mutable witness : Witness.dom array option;
      (* abstract R0..R10 joined over every non-pruned visit; None for
         insns the analysis never reached or that a rewrite emitted *)
}

let fresh_aux () =
  { ptr_kind = None; alu_limit = None; rewritten = false;
    skip_sanitize = false; exception_handled = false; call_helper = None;
    witness = None }

(* Aux is copy-on-write: every slot of a load's aux array starts as
   this one shared record, and [aux_mut] swaps in a private record at
   the slot's first write.  Most instructions are never annotated, so
   a load allocates aux only for the ones that are, and an array seeded
   with an old value never forces a minor collection (DESIGN.md
   section 8).  Readers (Patch, Fixup, Sanitize, Exec) see the seed's
   defaults for an untouched slot.

   Invariant: nothing ever writes through [aux_seed].  It is shared by
   every load in every domain; one write would annotate every
   unannotated instruction of every later program. *)
let aux_seed = fresh_aux ()

type t = {
  kst : Kstate.t;
  config : Kconfig.t;
  prog_type : Prog.prog_type;
  attach : Tracepoint.t option;
  insns : Insn.t array;
  aux : aux array;
  mutable st : Vstate.t;
  (* worklist of (pc, from, state, ancestors): the pc of the jump the
     pending branch came from (certified loop heads use it to tell a
     back-edge arrival from a forward re-entry) and the stored states
     the path runs under *)
  mutable branch_stack : (int * int * Vstate.t * explored_entry list) list;
  (* stored states per pc.  An entry with [e_branches > 0] still has
     unfinished paths below it (the kernel's branches counter): pruning
     against it is unsound; matching one of the CURRENT path's own
     ancestors means the path looped without progress (the kernel's
     "infinite loop detected"). *)
  explored : explored_entry list array; (* indexed by pc *)
  mutable ancestors : explored_entry list; (* of the current path *)
  mutable insn_processed : int;
  vst : Vstats.t; (* veristat-style performance counters *)
  mutable next_id : int;
  vlog : Vlog.t;
  cov : Coverage.t;
  (* notes this analysis's hits when the caller memoises it *)
  recorder : Coverage.recorder option;
  (* invariant-lint violations (newest first, capped), Kconfig.lint *)
  mutable lint : Invariants.violation list;
  mutable lint_count : int;
  (* widening thresholds, built at the load's first widening *)
  mutable thresholds : Regstate.thresholds option;
}

(* Complexity budget: the scaled-down analogue of BPF_COMPLEXITY_LIMIT. *)
let insn_processed_limit = 100_000
let max_explored_per_insn = 24
let max_call_depth = 4

(* Widening rounds granted per loop-head entry before the last round
   forces diverging scalars to ⊤.  With branch-constant thresholds a
   counted loop converges in 2-3 rounds; the force round is the
   backstop that bounds every chain. *)
let max_widen_rounds = 4

(* Hard analysis budgets (total stored states, pending-branch depth).
   Pathological branch explosion hits these long before wall-clock
   matters and surfaces as a structured [Budget_exhausted] rejection
   instead of an analyzer hang the supervisor would have to kill.  Both
   sit far above anything legitimate: the kernel-selftest corpus peaks
   at 60 stored states and a branch high-water mark of 8. *)
let total_states_limit = 8192
let branch_depth_limit = 512

let create ~(kst : Kstate.t) ~(prog_type : Prog.prog_type)
    ~(attach : Tracepoint.t option) ~(cov : Coverage.t) ?recorder
    ?(log_level = 0) (insns : Insn.t array) : t =
  Option.iter Coverage.begin_analysis recorder;
  {
    kst;
    config = kst.Kstate.config;
    prog_type;
    attach;
    insns;
    aux = Array.make (Array.length insns) aux_seed;
    st = Vstate.initial ~ctx:Regstate.ctx_pointer;
    branch_stack = [];
    explored = Array.make (Array.length insns) [];
    ancestors = [];
    insn_processed = 0;
    vst = Vstats.zero ();
    next_id = 1;
    vlog = Vlog.create log_level;
    cov;
    recorder;
    lint = [];
    lint_count = 0;
    thresholds = None;
  }

(* The aux record of [pc], made private to this load first if it is
   still the shared seed: the one way to write aux. *)
let aux_mut (t : t) (pc : int) : aux =
  let a = t.aux.(pc) in
  if a != aux_seed then a
  else begin
    let a = fresh_aux () in
    t.aux.(pc) <- a;
    a
  end

(* Keep at most this many lint violations per load (a broken invariant
   at a hot pc would otherwise record once per visit). *)
let max_lint_records = 64

let record_lint (t : t) (vs : Invariants.violation list) : unit =
  List.iter
    (fun v ->
       t.lint_count <- t.lint_count + 1;
       if List.length t.lint < max_lint_records then t.lint <- v :: t.lint)
    vs

let has_bug (t : t) (b : Kconfig.bug) : bool = Kconfig.has t.config b

(* Unprivileged loads face the stricter checks the paper's section 2
   mentions: no pointer leaks, no pointer comparisons or arithmetic
   beyond the allowlist, no BTF/kfunc access. *)
let unprivileged (t : t) : bool = t.config.Kconfig.unprivileged

let version (t : t) : Version.t = t.config.Kconfig.version

let fresh_id (t : t) : int =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let logf (t : t) fmt = Vlog.logf t.vlog ~level:1 fmt

(* Hot-path instruction trace: [Insn.to_string] is only worth building
   when level-1 logging is actually on (OCaml evaluates arguments
   eagerly, so the guard must live before the call, not inside logf). *)
let log_insn (t : t) ~(pc : int) (i : Insn.t) : unit =
  if Vlog.enabled t.vlog 1 then logf t "%d: %s\n" pc (Insn.to_string i)

(* Level-2 state dump: the abstract register file of the current frame
   before the instruction, one kernel-style "Rn=..." line. *)
let log_state (t : t) : unit =
  if Vlog.enabled t.vlog 2 then begin
    let f = Vstate.cur_frame t.st in
    let parts = ref [] in
    for i = 10 downto 0 do
      let r = f.Vstate.regs.(i) in
      if Regstate.is_init r then
        parts :=
          Printf.sprintf "R%d%s=%s" i
            (if f.Vstate.frameno > 0 then
               Printf.sprintf "_w%d" f.Vstate.frameno
             else "")
            (Regstate.to_string r)
          :: !parts
    done;
    Vlog.logf t.vlog ~level:2 "  %s\n" (String.concat " " !parts)
  end

(* Coverage instrumentation point: [site] is a static name for the
   verifier branch, [v] an optional small discriminator. *)
let cov ?(v = 0) (t : t) (site : string) : unit =
  match t.recorder with
  | None -> Coverage.hit t.cov site v
  | Some r -> Coverage.hit_recorded t.cov r site v

let reject (t : t) ~(pc : int) (errno : errno) (reason : Reject_reason.t) fmt =
  Format.kasprintf
    (fun vmsg ->
       logf t "%d: %s\n" pc vmsg;
       raise (Reject (verr_make errno reason ~pc vmsg)))
    fmt

let reg (t : t) (r : Insn.reg) : Regstate.t = Vstate.reg t.st r
let set_reg (t : t) (r : Insn.reg) (v : Regstate.t) : unit =
  Vstate.set_reg t.st r v

(* Read-check: using an uninitialized register is an immediate reject. *)
let check_reg_read (t : t) ~(pc : int) (r : Insn.reg) : Regstate.t =
  let v = reg t r in
  if not (Regstate.is_init v) then
    reject t ~pc EACCES Uninit_access "R%d !read_ok" (Insn.reg_to_int r)
  else v

let check_reg_write (t : t) ~(pc : int) (r : Insn.reg) : unit =
  if r = Insn.R10 then
    reject t ~pc EACCES Bad_insn "frame pointer is read only"
