(* Structured rejection taxonomy.

   One bucket per way a user would *fix* a rejected program, not per C
   call site: "invalid stack access" and "invalid access to map value"
   are both Oob_access (tighten the offset), while "R2 !read_ok" is
   Uninit_access (initialize the register) even though both arrive as
   EACCES.

   [classify] recovers the reason from the canonical rejection message.
   The message formats are part of this repository's contract (tests
   grep for fragments of them), so substring classification is exact,
   not heuristic — but any new reject site whose message matches no
   pattern surfaces as [Unknown], which test_telemetry and the CI
   telemetry gate both flag. *)

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
  | Unknown -> "unclassified rejection (taxonomy gap)"

(* In-place comparison: [matches_at msg frag i j] compares [frag] from
   byte [j] on with [msg] from byte [i + j] on; the caller checks that
   [frag] fits in [msg] from [i].  Top-level and tail-recursive, so it
   allocates nothing. *)
let rec matches_at (msg : string) (frag : string) (i : int) (j : int) :
  bool =
  j = String.length frag
  || (String.unsafe_get msg (i + j) = String.unsafe_get frag j
      && matches_at msg frag i (j + 1))

(* Ordered pattern table: first match wins, so the more specific
   fragments ("uninitialized stack passed to helper") come before the
   generic ones ("stack").  Each line names the reject site family it
   covers. *)
let patterns : (string * t) list =
  [
    (* environment, never a verdict *)
    ("kvcalloc of insn_aux_data failed", Env_failure);
    ("bpf_prog_realloc", Env_failure);
    (* sizes and structure *)
    ("empty program", Prog_size);
    ("program too large", Prog_size);
    ("uses reserved register or helper", Bad_insn);
    ("frame pointer is read only", Bad_insn);
    ("invalid atomic operand size", Bad_insn);
    (* CFG (check_cfg + walk) *)
    ("out of range (to ", Bad_cfg);
    ("fall-through off program end", Bad_cfg);
    ("unreachable insn", Bad_cfg);
    ("invalid program counter", Bad_cfg);
    (* complexity *)
    ("BPF program is too large. Processed", Insn_limit);
    ("call stack of", Insn_limit);
    ("state budget exhausted", Budget_exhausted);
    ("branch budget exhausted", Budget_exhausted);
    ("fails to converge", Loop_unbounded);
    ("infinite loop detected", Unbounded_loop);
    (* privilege: "requires CAP_BPF", "kfunc calls require CAP_BPF" *)
    ("CAP_BPF", Priv);
    (* attach validation (incl. the Bug#4/5/6 fixed-kernel checks) *)
    ("unknown attach point", Bad_attach);
    ("cannot attach to", Bad_attach);
    ("does not exist in", Bad_attach);
    ("not allowed on", Bad_attach);       (* lock-acquiring helper *)
    ("not allowed in irq/nmi attach context", Bad_attach);
    (* helper availability *)
    ("invalid func id", Helper_unavailable);
    ("invalid kfunc id", Helper_unavailable);
    ("not available in", Helper_unavailable);
    ("not allowed for prog type", Helper_unavailable);
    ("kfunc calls not supported", Helper_unavailable);
    (* lock discipline *)
    ("spin_lock is missing unlock", Lock_violation);
    ("spin_unlock without matching spin_lock", Lock_violation);
    ("not allowed inside bpf_spin_lock section", Lock_violation);
    ("bpf_spin_lock area prohibited", Lock_violation);
    (* references *)
    ("Unreleased reference", Ref_leak);
    ("expects a referenced object", Bad_helper_arg);
    ("must be a reserved ringbuf record", Bad_helper_arg);
    (* return value *)
    ("At program exit R0 has range", Bad_return_value);
    (* uninitialized data *)
    ("!read_ok", Uninit_access);
    ("invalid read from stack", Uninit_access);
    ("uninitialized stack passed to helper", Bad_helper_arg);
    (* helper argument prototype *)
    ("expected const map pointer", Bad_helper_arg);
    ("expected ctx pointer", Bad_helper_arg);
    ("expected trusted task pointer", Bad_helper_arg);
    ("expected pointer to bpf_spin_lock", Bad_helper_arg);
    ("expected pointer, got scalar", Bad_helper_arg);
    ("expected size scalar", Bad_helper_arg);
    ("expected verifier-known constant", Bad_helper_arg);
    ("unbounded memory size", Bad_helper_arg);
    ("possible zero size for helper memory", Bad_helper_arg);
    ("without preceding map argument", Bad_helper_arg);
    ("invalid stack region", Bad_helper_arg);
    ("invalid ringbuf mem region", Bad_helper_arg);
    ("invalid packet region for helper", Bad_helper_arg);
    ("not allowed as mem argument", Bad_helper_arg);
    ("variable stack pointer to helper", Bad_helper_arg);
    (* nullness — before the pointer-ALU family, so arithmetic on an
       _or_null pointer reads as the null-check bug it is *)
    ("_or_null", Null_deref);
    ("nullable pointer passed to helper", Null_deref);
    (* pointer leaks (unprivileged) *)
    ("leaks addr into map", Ptr_leak);
    ("leaks pointer at program exit", Ptr_leak);
    ("pointer comparison prohibited", Ptr_leak);
    (* pointer arithmetic *)
    ("pointer arithmetic", Bad_ptr_arith);
    ("pointer negation prohibited", Bad_ptr_arith);
    ("byte swap of pointer prohibited", Bad_ptr_arith);
    ("pointer operand for", Bad_ptr_arith);
    ("pointer offset", Bad_ptr_arith);    (* "... out of range" *)
    ("unbounded bounds", Bad_ptr_arith);  (* "math between ... pointer" *)
    ("variable stack access prohibited", Bad_ptr_arith);
    ("variable btf access prohibited", Bad_ptr_arith);
    ("variable ctx access prohibited", Bad_ctx_access);
    (* map plumbing — before the generic "pointer" catch-all *)
    ("is not a map", Bad_map_op);
    ("is not pointing to a map", Bad_map_op);
    ("direct value access only on array maps", Bad_map_op);
    ("does not support direct value access", Bad_map_op);
    ("direct access to struct bpf_map prohibited", Bad_map_op);
    ("direct value offset", Oob_access);  (* "... outside value" *)
    (* type confusion.  The bare "pointer" catch-all mops up the spill
       and mixed-pointer messages; sites meaning something more precise
       (check_alu's pointer+pointer) pass an explicit [?reason]. *)
    ("invalid mem access 'scalar'", Type_mismatch);
    ("access to pkt_end prohibited", Type_mismatch);
    ("write into packet prohibited", Type_mismatch);
    ("write to BTF pointer", Type_mismatch);
    ("same insn cannot be used with different", Type_mismatch);
    ("pointer", Type_mismatch);
    ("atomic operand", Type_mismatch);    (* "... must be scalar" *)
    ("unknown BTF object", Bad_insn);
    (* context layout *)
    ("invalid bpf_context access", Bad_ctx_access);
    ("write to read-only ctx field", Bad_ctx_access);
    (* bounds *)
    ("invalid stack access", Oob_access);
    ("stack offset out of range", Oob_access);
    ("invalid access to map value", Oob_access);
    ("map_value access with min offset", Oob_access);
    ("invalid access to packet", Oob_access);
    ("negative packet access", Oob_access);
    ("invalid access to allocated mem", Oob_access);
    ("invalid access to", Oob_access);    (* BTF objects, by name *)
  ]

(* The table indexed by first byte: [frags] and [reasons] in table
   order, and [by_byte] the fragment indices grouped by first byte,
   table order within a group; the group of byte [c] is
   [by_byte.(starts.(c)) .. by_byte.(starts.(c + 1) - 1)].  Read-only
   after module initialization. *)
let frags : string array = Array.of_list (List.map fst patterns)
let reasons : t array = Array.of_list (List.map snd patterns)

let () =
  assert (Array.for_all (fun f -> String.length f > 0) frags)

let starts : int array =
  let counts = Array.make 257 0 in
  Array.iter
    (fun f ->
       let c = Char.code f.[0] + 1 in
       counts.(c) <- counts.(c) + 1)
    frags;
  for c = 1 to 256 do
    counts.(c) <- counts.(c) + counts.(c - 1)
  done;
  counts

let by_byte : int array =
  let next = Array.sub starts 0 256 in
  let a = Array.make (Array.length frags) 0 in
  Array.iteri
    (fun k f ->
       let c = Char.code f.[0] in
       a.(next.(c)) <- k;
       next.(c) <- next.(c) + 1)
    frags;
  a

(* The first fragment in table order that occurs in [msg]: at each
   position, try only the fragments starting with that byte and ranked
   before the best match so far. *)
let classify ~(msg : string) : t =
  let n = String.length msg in
  let best = ref (Array.length frags) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get msg i) in
    let k = ref (Array.unsafe_get starts c) in
    let stop = Array.unsafe_get starts (c + 1) in
    while !k < stop && Array.unsafe_get by_byte !k < !best do
      let f = Array.unsafe_get by_byte !k in
      let frag = Array.unsafe_get frags f in
      if String.length frag <= n - i && matches_at msg frag i 1 then
        best := f
      else incr k
    done
  done;
  if !best = Array.length frags then Unknown else reasons.(!best)
