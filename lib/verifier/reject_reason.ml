(* Structured rejection taxonomy.

   One bucket per way a user would *fix* a rejected program, not per C
   call site: "invalid stack access" and "invalid access to map value"
   are both Oob_access (tighten the offset), while "R2 !read_ok" is
   Uninit_access (initialize the register) even though both arrive as
   EACCES.

   Each reject site names its reason where it rejects; the message is
   for people and no code reads a reason back out of it. *)

type t =
  | Uninit_access
  | Oob_access
  | Bad_ctx_access
  | Null_deref
  | Ptr_leak
  | Bad_ptr_arith
  | Type_mismatch
  | Bad_helper_arg
  | Helper_unavailable
  | Lock_violation
  | Ref_leak
  | Bad_return_value
  | Unbounded_loop
  | Loop_unbounded
  | Insn_limit
  | Budget_exhausted
  | Bad_cfg
  | Bad_insn
  | Bad_map_op
  | Priv
  | Bad_attach
  | Prog_size
  | Env_failure
  | Unknown

let all =
  [ Uninit_access; Oob_access; Bad_ctx_access; Null_deref; Ptr_leak;
    Bad_ptr_arith; Type_mismatch; Bad_helper_arg; Helper_unavailable;
    Lock_violation; Ref_leak; Bad_return_value; Unbounded_loop;
    Loop_unbounded;
    Insn_limit; Budget_exhausted; Bad_cfg; Bad_insn; Bad_map_op; Priv;
    Bad_attach;
    Prog_size; Env_failure; Unknown ]

let to_string = function
  | Uninit_access -> "uninit_access"
  | Oob_access -> "oob_access"
  | Bad_ctx_access -> "bad_ctx_access"
  | Null_deref -> "null_deref"
  | Ptr_leak -> "ptr_leak"
  | Bad_ptr_arith -> "bad_ptr_arith"
  | Type_mismatch -> "type_mismatch"
  | Bad_helper_arg -> "bad_helper_arg"
  | Helper_unavailable -> "helper_unavailable"
  | Lock_violation -> "lock_violation"
  | Ref_leak -> "ref_leak"
  | Bad_return_value -> "bad_return_value"
  | Unbounded_loop -> "unbounded_loop"
  | Loop_unbounded -> "loop_unbounded"
  | Insn_limit -> "insn_limit"
  | Budget_exhausted -> "budget_exhausted"
  | Bad_cfg -> "bad_cfg"
  | Bad_insn -> "bad_insn"
  | Bad_map_op -> "bad_map_op"
  | Priv -> "priv"
  | Bad_attach -> "bad_attach"
  | Prog_size -> "prog_size"
  | Env_failure -> "env_failure"
  | Unknown -> "unknown"

let of_string (s : string) : t option =
  List.find_opt (fun r -> to_string r = s) all

let describe = function
  | Uninit_access -> "read of a never-written register or stack slot"
  | Oob_access -> "memory access outside the object's verified bounds"
  | Bad_ctx_access -> "invalid context field offset, size or write"
  | Null_deref -> "access or arithmetic on a pointer that may be NULL"
  | Ptr_leak -> "kernel pointer would be exposed to user space"
  | Bad_ptr_arith -> "prohibited pointer arithmetic"
  | Type_mismatch -> "register type incompatible with the operation"
  | Bad_helper_arg -> "helper argument fails its declared prototype"
  | Helper_unavailable -> "helper/kfunc unknown or gated for this load"
  | Lock_violation -> "bpf_spin_lock discipline broken"
  | Ref_leak -> "acquired reference not released on every path"
  | Bad_return_value -> "R0 outside the program type's return range"
  | Unbounded_loop -> "loop makes no provable progress"
  | Loop_unbounded ->
    "loop state fails to converge under bounded widening"
  | Insn_limit -> "verification complexity budget exhausted"
  | Budget_exhausted -> "analysis state or branch budget exhausted"
  | Bad_cfg -> "control flow leaves the program or is unreachable"
  | Bad_insn -> "malformed instruction or reserved register/helper"
  | Bad_map_op -> "map fd unresolvable or operation unsupported"
  | Priv -> "operation requires CAP_BPF"
  | Bad_attach -> "attach point unknown or incompatible"
  | Prog_size -> "program empty or above the instruction cap"
  | Env_failure -> "injected environment failure, not a verdict"
  | Unknown -> "reason string this build does not know"
