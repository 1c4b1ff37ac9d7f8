(** Structured rejection taxonomy.

    Every rejected program carries one of these reasons in its
    {!Venv.verr}: each reject site names its reason along with its errno
    and message, and nothing reads a reason back out of a message.  The
    taxonomy is the diagnostic signal the paper's section 6.3 acceptance
    comparison needs: errno alone ([EACCES]/[EINVAL]) cannot distinguish "used an
    uninitialized register" from "walked off the end of a map value",
    but tuning a generator requires exactly that distinction.

    The buckets mirror how kernel developers talk about verifier
    failures, not the C call sites: one reason groups every message a
    user would fix the same way. *)

type t =
  | Uninit_access      (** read of a never-written register or stack slot *)
  | Oob_access         (** access outside stack/map/packet/BTF/mem bounds *)
  | Bad_ctx_access     (** invalid [__sk_buff]/ctx offset, size or write *)
  | Null_deref         (** access or arithmetic on a [_or_null] pointer *)
  | Ptr_leak           (** pointer exposed to user space / at exit *)
  | Bad_ptr_arith      (** prohibited pointer ALU (operator, type, bounds) *)
  | Type_mismatch      (** scalar where a pointer was needed, or vice versa *)
  | Bad_helper_arg     (** helper/kfunc argument fails its prototype *)
  | Helper_unavailable (** unknown id, or gated by version/type/attach *)
  | Lock_violation     (** bpf_spin_lock discipline broken *)
  | Ref_leak           (** acquired reference not released at exit *)
  | Bad_return_value   (** R0 outside the program type's return range *)
  | Unbounded_loop     (** back-edge with no loop variable progress *)
  | Loop_unbounded     (** loop state fails to converge under bounded
                           widening (progress exists but the abstract
                           state keeps changing structurally) *)
  | Insn_limit         (** complexity budget exhausted (1M-insn analogue) *)
  | Budget_exhausted   (** analyzer state/branch budget hit: a structured
                           rejection where an unbounded walk would hang *)
  | Bad_cfg            (** jump out of range, unreachable or fall-off code *)
  | Bad_insn           (** malformed instruction operand or reserved use *)
  | Bad_map_op         (** unresolvable map fd / unsupported map operation *)
  | Priv               (** requires CAP_BPF the load does not have *)
  | Bad_attach         (** attach point unknown or incompatible *)
  | Prog_size          (** empty program or above the instruction cap *)
  | Env_failure        (** injected environment error (-ENOMEM), no verdict *)
  | Unknown            (** a trace's reason string this build does not
                           know; no reject site names it, and the CI
                           telemetry gate counts it *)

val all : t list
(** Every reason, in declaration order. *)

val to_string : t -> string
(** Stable snake_case identifier, e.g. ["oob_access"] — the JSONL and
    docs/REJECTIONS.md vocabulary. *)

val of_string : string -> t option

val describe : t -> string
(** One-line human description for tables and [bvf explain]. *)
