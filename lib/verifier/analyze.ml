open Vimport

(* The main analysis loop (kernel do_check): simulate every instruction
   along every path, maintaining the abstract state, pushing the other
   arm of each conditional onto the branch stack, and pruning paths
   whose state is subsumed by an already-verified one. *)

(* -- Static CFG validation (kernel check_cfg) -------------------------- *)

(* Per-pc flags, one byte per instruction: the pc is the target of a
   jump or a local call.  Runs after [check_cfg], so every target is
   inside the program. *)
let jump_targets (insns : Insn.t array) : Bytes.t =
  let targets = Bytes.make (Array.length insns) '\000' in
  for pc = 0 to Array.length insns - 1 do
    match insns.(pc) with
    | Insn.Jmp { off; _ } | Insn.Ja off | Insn.Call (Insn.Local off) ->
      Bytes.set targets (pc + 1 + off) '\001'
    | _ -> ()
  done;
  targets

let is_target (targets : Bytes.t) (pc : int) : bool =
  Bytes.get targets pc <> '\000'

(* Maximum trip count a certified loop may have, so that one certified
   loop stays inside the interpreter's fuel.  Acceptance does not imply
   that the program runs to completion.  A loop above this bound is
   walked trip by trip against [Venv.insn_processed_limit] (100 000),
   which exceeds [Exec.fuel_limit] (65 536): [r6 = 0; r7 = 0; head:
   r7 += 2; r6 += 1; if r6 < K goto head; exit] with K = 22 000 is
   accepted at insn_processed 66 004, then killed at the fuel limit.
   And a certified loop multiplies its body's cost by its trips, which
   insn_processed does not count.  ROADMAP.md item 1 tracks the fix. *)
let max_certified_trips = 4096l

(* Syntactic termination certificate for the loop headed at [head] —
   the precondition for state widening.  Widening makes the ABSTRACT
   walk converge, but convergence alone proves nothing about concrete
   termination (a counter tested with [!=] converges abstractly at ⊤
   yet runs for 2^64 iterations).  The accepted-implies-runs-clean
   oracle needs a trip bound, so widening is reserved for loops whose
   shape proves one:

     - a single conditional back edge [b] ({!loop_heads} passes the
       head's only one as [back]): 64-bit [Jlt]/[Jle] of an
       induction register against a positive immediate K <=
       {!max_certified_trips};
     - the instruction before it is the only write to the induction
       register in the body: a 64-bit [Add] of a positive immediate;
     - no jump anywhere targets [b], so every back-edge traversal has
       just executed the increment.

   Then each traversal leaves ind < K (or <= K) having strictly grown
   it, so the loop runs at most K+1 times no matter what the abstract
   states say.  Loops without the certificate keep the pre-widening
   discipline: bounded unrolling, the zero-progress "infinite loop
   detected" rejection, and the complexity budgets.

   The analyzer also needs [b] itself at prune time: an arrival at
   [head] VIA [b] has provably just run the increment (genuine loop
   progress), while an arrival over any other edge is a forward
   re-entry from an enclosing cycle.  The zero-progress infinite-loop
   check must never fire on the former and convergence pruning must
   never fire on the latter. *)
let certified_head (insns : Insn.t array) ~(targets : Bytes.t)
    ~(head : int) ~(back : int) : bool =
  match insns.(back) with
  | Insn.Jmp
      { op32 = false; cond = Insn.Jlt | Insn.Jle; dst = ind;
        src = Insn.Imm k; off = _ }
    when Int32.compare k 0l > 0
         && Int32.compare k max_certified_trips <= 0 ->
    head <= back - 1
    && (match insns.(back - 1) with
       | Insn.Alu
           { op64 = true; op = Insn.Add; dst; src = Insn.Imm c }
         -> dst = ind && Int32.compare c 0l > 0
       | _ -> false)
    && (let only_write = ref true in
        for pc = head to back - 2 do
          if Insn.writes_reg insns.(pc) ind then only_write := false
        done;
        !only_write)
    (* [targets] holds exactly the Jmp/Ja/local-call targets *)
    && not (is_target targets back)
  | _ -> false

(* [loop_heads] entries: a pc that heads no back edge, or one whose
   loop is not widening-eligible.  Any other entry is the certified
   back-edge pc. *)
let no_head = -2
let uncertified_head = -1

(* Loop heads: targets of back edges (a jump whose target does not
   advance the pc), mapped to the certified back-edge pc when the loop
   is widening-eligible (see {!certified_head}), together with the
   number of heads.  A head with one back edge holds that edge's pc
   until the certificate is checked; a second back edge makes it
   uncertified.  Forward joins keep the plain store-and-prune
   discipline. *)
let loop_heads (insns : Insn.t array) ~(targets : Bytes.t) : int array * int
  =
  let n = Array.length insns in
  let heads = Array.make n no_head in
  let count = ref 0 in
  for pc = 0 to n - 1 do
    match insns.(pc) with
    | (Insn.Jmp { off; _ } | Insn.Ja off) when pc + 1 + off <= pc ->
      let head = pc + 1 + off in
      if heads.(head) = no_head then begin
        incr count;
        heads.(head) <- pc
      end
      else heads.(head) <- uncertified_head
    | _ -> ()
  done;
  for head = 0 to n - 1 do
    let back = heads.(head) in
    if back >= 0 && not (certified_head insns ~targets ~head ~back) then
      heads.(head) <- uncertified_head
  done;
  (heads, !count)

(* Widening thresholds for this program: the fixed set (0, ±1,
   type-width extrema) plus every branch-comparison constant, in both
   its sign-extended and zero-extended reading.  A counted loop's exit
   test is a branch against its bound, so the escaping counter jumps
   exactly to that bound instead of creeping or overshooting to ⊤.
   Only certified-head widening reads them, so they are built at a
   load's first widening ([thresholds]), not for every load. *)
let harvest_thresholds (insns : Insn.t array) : Regstate.thresholds =
  let n_imm = ref 0 in
  Array.iter
    (function Insn.Jmp { src = Insn.Imm _; _ } -> incr n_imm | _ -> ())
    insns;
  let consts = Array.make (2 * !n_imm) 0L in
  let k = ref 0 in
  Array.iter
    (function
      | Insn.Jmp { src = Insn.Imm i; _ } ->
        consts.(!k) <- Int64.of_int32 i;
        consts.(!k + 1) <- Int64.logand (Int64.of_int32 i) 0xFFFF_FFFFL;
        k := !k + 2
      | _ -> ())
    insns;
  Regstate.thresholds_of_consts consts

let thresholds (env : Venv.t) : Regstate.thresholds =
  match env.Venv.thresholds with
  | Some th -> th
  | None ->
    let th = harvest_thresholds env.Venv.insns in
    env.Venv.thresholds <- Some th;
    th

let check_cfg (env : Venv.t) : unit =
  let insns = env.Venv.insns in
  let n = Array.length insns in
  if n = 0 then Venv.reject env ~pc:0 Venv.EINVAL Prog_size "empty program";
  let in_range pc target what =
    if target < 0 || target >= n then
      Venv.reject env ~pc Venv.EINVAL Bad_cfg
        "%s out of range (to %d)" what target
  in
  (* edge validity + reachability DFS *)
  let visited = Array.make n false in
  let rec dfs pc =
    if pc < 0 || pc >= n then ()
    else if visited.(pc) then ()
    else begin
      visited.(pc) <- true;
      match insns.(pc) with
      | Insn.Exit -> ()
      | Insn.Ja off ->
        in_range pc (pc + 1 + off) "jump";
        dfs (pc + 1 + off)
      | Insn.Jmp { off; _ } ->
        in_range pc (pc + 1 + off) "jump";
        if pc + 1 >= n then
          Venv.reject env ~pc Venv.EINVAL Bad_cfg
            "fall-through off program end";
        dfs (pc + 1 + off);
        dfs (pc + 1)
      | Insn.Call (Insn.Local off) ->
        in_range pc (pc + 1 + off) "call";
        if pc + 1 >= n then
          Venv.reject env ~pc Venv.EINVAL Bad_cfg
            "fall-through off program end";
        dfs (pc + 1 + off);
        dfs (pc + 1)
      | Insn.Alu _ | Insn.Endian _ | Insn.Ld_imm64 _ | Insn.Ldx _
      | Insn.St _ | Insn.Stx _ | Insn.Atomic _
      | Insn.Call (Insn.Helper _) | Insn.Call (Insn.Kfunc _) ->
        if pc + 1 >= n then
          Venv.reject env ~pc Venv.EINVAL Bad_cfg
            "fall-through off program end";
        dfs (pc + 1)
    end
  in
  dfs 0;
  Array.iteri
    (fun pc seen ->
       if not seen then
         Venv.reject env ~pc Venv.EINVAL Bad_cfg "unreachable insn %d" pc)
    visited;
  Venv.cov env "cfg:ok"

(* -- Instruction dispatch ----------------------------------------------- *)

let check_ld_imm64 (env : Venv.t) ~(pc : int) (dst : Insn.reg)
    (kind : Insn.ld64_kind) : unit =
  Venv.check_reg_write env ~pc dst;
  let v =
    match kind with
    | Insn.Const c -> Regstate.const_scalar c
    | Insn.Map_fd fd -> begin
        Venv.cov env "ld:map_fd";
        match Kstate.map_of_fd env.Venv.kst fd with
        | Some m ->
          Regstate.pointer
            (Regstate.P_map_ptr
               (Regstate.map_info_of_def ~fd m.Map.def))
        | None ->
          Venv.reject env ~pc Venv.EINVAL Bad_map_op
            "fd %d is not pointing to a map" fd
      end
    | Insn.Map_value (fd, off) -> begin
        Venv.cov env "ld:map_value";
        match Kstate.map_of_fd env.Venv.kst fd with
        | Some m ->
          let mi = Regstate.map_info_of_def ~fd m.Map.def in
          if m.Map.def.Map.mtype <> Map.Array_map then
            Venv.reject env ~pc Venv.EINVAL Bad_map_op
              "direct value access only on array maps";
          if off < 0 || off >= mi.Regstate.mi_value_size then
            Venv.reject env ~pc Venv.EINVAL Oob_access
              "direct value offset %d outside value" off;
          Regstate.pointer (Regstate.P_map_value mi) ~off
        | None ->
          Venv.reject env ~pc Venv.EINVAL Bad_map_op
            "fd %d is not pointing to a map" fd
      end
    | Insn.Btf_obj id -> begin
        Venv.cov env "ld:btf_obj";
        if Venv.unprivileged env then
          Venv.reject env ~pc Venv.EPERM Priv
            "BTF object access requires CAP_BPF";
        match Btf.find id with
        | Some d ->
          (* PTR_TO_BTF_ID: trusted, never marked maybe_null - even for
             objects that are in fact NULL at runtime (paper Listing 2) *)
          Regstate.pointer (Regstate.P_btf d)
        | None ->
          Venv.reject env ~pc Venv.EINVAL Bad_insn "unknown BTF object %d" id
      end
  in
  Venv.set_reg env dst v

(* Push a new call frame for a bpf-to-bpf call. *)
let push_frame (env : Venv.t) ~(pc : int) ~(target : int) : int =
  let st = env.Venv.st in
  if Vstate.frame_count st >= Venv.max_call_depth then
    Venv.reject env ~pc Venv.EINVAL Insn_limit
      "the call stack of %d frames is too deep" (Vstate.frame_count st + 1);
  Venv.cov env "call:local" ~v:(Vstate.frame_count st);
  let caller = Vstate.cur_frame st in
  let callee =
    Vstate.new_frame ~frameno:(Vstate.frame_count st) ~callsite:(pc + 1)
  in
  (* R1-R5 are passed; everything else starts uninitialized *)
  for i = 1 to 5 do
    callee.Vstate.regs.(i) <- caller.Vstate.regs.(i)
  done;
  Vstate.push_top_frame st callee;
  target

(* Pop the current frame at EXIT; returns the resume pc. *)
let pop_frame (env : Venv.t) ~(pc : int) : int =
  let st = env.Venv.st in
  let callee = Vstate.cur_frame st in
  let r0 = callee.Vstate.regs.(0) in
  if not (Regstate.is_init r0) then
    Venv.reject env ~pc Venv.EACCES Uninit_access
      "R0 !read_ok at subprogram exit";
  let popped = Vstate.pop_top_frame st in
  (* the top frame IS the callee — popping anything else would mean the
     frame stack and the current frame disagree *)
  assert (popped == callee);
  let caller = Vstate.cur_frame st in
  caller.Vstate.regs.(0) <- r0;
  for i = 1 to 5 do
    caller.Vstate.regs.(i) <- Regstate.not_init
  done;
  popped.Vstate.callsite

(* Main-program EXIT: return-range, reference and lock discipline. *)
let check_main_exit (env : Venv.t) ~(pc : int) : unit =
  let st = env.Venv.st in
  let r0 = Vstate.reg st Insn.R0 in
  if not (Regstate.is_init r0) then
    Venv.reject env ~pc Venv.EACCES Uninit_access "R0 !read_ok at program exit";
  Venv.cov env "exit:check";
  (match r0.Regstate.kind with
   | Regstate.Ptr _ ->
     Venv.reject env ~pc Venv.EACCES Ptr_leak "R0 leaks pointer at program exit"
   | Regstate.Scalar -> begin
       match Prog.return_range env.Venv.prog_type with
       | None -> ()
       | Some (lo, hi) ->
         if r0.Regstate.smin < lo || r0.Regstate.smax > hi then
           Venv.reject env ~pc Venv.EACCES Bad_return_value
             "At program exit R0 has range [%Ld,%Ld] should be in [%Ld,%Ld]"
             r0.Regstate.smin r0.Regstate.smax lo hi
     end
   | Regstate.Not_init -> assert false);
  if st.Vstate.refs <> [] then
    Venv.reject env ~pc Venv.EINVAL Ref_leak
      "Unreleased reference id=%d" (List.hd st.Vstate.refs);
  if st.Vstate.active_lock <> None then
    Venv.reject env ~pc Venv.EINVAL Lock_violation
      "bpf_spin_lock is missing unlock"

(* -- Pruning ------------------------------------------------------------ *)

(* Store the current state at [pc] as a new explored entry — the
   unrolling fallback when widening does not apply.  A looping path
   that exhausts the per-insn entry budget can make no further
   convergence progress: that is the [Loop_unbounded] rejection,
   distinct from the zero-progress "infinite loop detected" one. *)
let store_or_unroll (env : Venv.t) ~(pc : int)
    ~(stored : Venv.explored_entry list) ~(looping : bool) : bool =
  Vstats.prune_miss env.Venv.vst;
  if List.length stored < Venv.max_explored_per_insn then begin
    let e =
      { Venv.e_state = Vstate.copy env.Venv.st; e_branches = 1;
        e_widens = 0 }
    in
    env.Venv.explored.(pc) <- e :: stored;
    env.Venv.ancestors <- e :: env.Venv.ancestors;
    Vstats.state_stored env.Venv.vst ~at_insn:(List.length stored + 1);
    if env.Venv.vst.Vstats.vs_total_states > Venv.total_states_limit
    then begin
      Venv.cov env "budget:states";
      Venv.reject env ~pc Venv.E2BIG Budget_exhausted
        "state budget exhausted: %d states stored"
        env.Venv.vst.Vstats.vs_total_states
    end;
    false
  end
  else if looping then begin
    Venv.cov env "loop:unbounded";
    Venv.reject env ~pc Venv.EINVAL Loop_unbounded
      "loop state fails to converge at insn %d" pc
  end
  else false

(* The newest stored entry at a pc that is also an ancestor of the
   current path (see [maybe_prune]). *)
let rec newest_ancestor (ancestors : Venv.explored_entry list)
    (stored : Venv.explored_entry list) : Venv.explored_entry option =
  match stored with
  | [] -> None
  | e :: rest ->
    if List.memq e ancestors then Some e else newest_ancestor ancestors rest

(* The first stored entry that subsumes the current state, skipping
   ancestors older than [recent_anc].  Top-level and recursive, so a
   probe that misses allocates nothing. *)
let rec find_subsuming (env : Venv.t)
    ~(recent_anc : Venv.explored_entry option) ~(bug3 : bool)
    (stored : Venv.explored_entry list) : Venv.explored_entry option =
  match stored with
  | [] -> None
  | e :: rest ->
    let stale_ancestor =
      match recent_anc with
      | Some r -> not (e == r) && List.memq e env.Venv.ancestors
      | None -> false
    in
    if stale_ancestor then find_subsuming env ~recent_anc ~bug3 rest
    else if Vstate.states_equal ~old:e.Venv.e_state ~cur:env.Venv.st ~bug3
    then Some e
    else find_subsuming env ~recent_anc ~bug3 rest

let maybe_prune (env : Venv.t) ~(pc : int) ~(from : int) (targets : Bytes.t)
    (heads : int array) : bool =
  if not (is_target targets pc) then false
  else begin
    let bug3 = Venv.has_bug env Kconfig.Bug3_backtrack_precision in
    (* the certified back edge of the loop headed here, or < 0 *)
    let cert_b = heads.(pc) in
    (* arrival over the certified back edge: the increment at [b-1]
       has provably just run, so the loop made genuine progress *)
    let via_back_edge = cert_b >= 0 && from = cert_b in
    let stored = env.Venv.explored.(pc) in
    (* newest in-progress entry of the current path at this pc: the
       only ancestor entry a certified loop head may widen or
       converge against.  An OLDER ancestor entry (a previous
       traversal, re-entered through an enclosing cycle) may well
       subsume the incoming state — its widened invariant covers the
       restarted counter — but pruning there would end the path
       before the outer cycle is re-walked, hiding it from the
       zero-progress check.  Each re-traversal must converge on its
       own entry. *)
    let recent_anc =
      if cert_b >= 0 then newest_ancestor env.Venv.ancestors stored
      else None
    in
    match find_subsuming env ~recent_anc ~bug3 stored with
    | Some e when e.Venv.e_branches > 0 ->
      if List.memq e env.Venv.ancestors then begin
        if via_back_edge then begin
          (* the stored loop invariant absorbed a genuine back-edge
             arrival: the loop converged.  Pruning against the
             (in-progress) ancestor is the coinductive fixpoint
             argument — every behavior below pc is covered by the
             continuation being explored from the stored state
             itself; concrete termination is the head's syntactic
             certificate (the arrival came over the certified back
             edge, so the bounded increment just ran). *)
          Venv.logf env
            "loop at insn %d converged after %d widening round(s)\n" pc
            e.Venv.e_widens;
          Venv.cov env "prune:converged";
          Vstats.prune_hit env.Venv.vst;
          true
        end
        else if cert_b < 0 then begin
          (* the current path came back to one of its own states: no
             loop variable made progress (kernel "infinite loop
             detected") *)
          Venv.cov env "prune:loop";
          Vstats.loop_detected env.Venv.vst;
          Venv.reject env ~pc Venv.EINVAL Unbounded_loop
            "infinite loop detected at insn %d" pc
        end
        else
          (* a certified head re-entered over a forward edge: an
             enclosing cycle restarted the loop.  Start a fresh
             unrolling entry so the outer cycle either leaves the
             loop region, repeats at its own (uncertified) head, or
             exhausts the per-insn entry budget. *)
          store_or_unroll env ~pc ~stored ~looping:true
      end
      else
        (* equal to a sibling's in-progress state: pruning would be
           unsound (its subtree is not verified yet); keep exploring *)
        false
    | Some _ ->
      Venv.cov env "prune:hit";
      Vstats.prune_hit env.Venv.vst;
      true
    | None ->
      (* a certified loop head reached again by its own path with a
         state the stored ancestor does not subsume: the induction
         variable progressed.  Widen the stored state against the
         incoming one (bounded rounds, the last forcing diverging
         scalars to ⊤) and continue the walk from the widened state,
         so the loop body is verified once under the candidate
         invariant instead of once per unrolled iteration.  Heads
         without a termination certificate never widen: convergence
         would prove nothing about their concrete trip count. *)
      let anc_here = recent_anc in
      match anc_here with
      | Some anc
        when Venv.has_bug env Kconfig.Bug13_widen_tight_exit
             && anc.Venv.e_widens > 0 ->
        (* Bug13: the broken widening declares convergence after its
           first round even though the incoming state escaped the
           widened range — the loop exit keeps a too-tight bound that
           the witness oracle exposes at run time. *)
        Venv.cov env "prune:hit";
        Vstats.prune_hit env.Venv.vst;
        true
      | Some anc when anc.Venv.e_widens < Venv.max_widen_rounds -> begin
          let force =
            anc.Venv.e_widens = Venv.max_widen_rounds - 1
          in
          let th = thresholds env in
          match
            Vstate.widen_state ~th ~force
              ~old:anc.Venv.e_state ~cur:env.Venv.st
          with
          | Some w ->
            if env.Venv.config.Kconfig.lint then
              Venv.record_lint env
                (Invariants.check_widen_state ~pc ~th
                   ~old:anc.Venv.e_state ~cur:env.Venv.st ~widened:w);
            anc.Venv.e_widens <- anc.Venv.e_widens + 1;
            Venv.logf env "widening loop head at insn %d (round %d%s)\n"
              pc anc.Venv.e_widens
            (if force then ", forced" else "");
            Vstats.widen_round env.Venv.vst;
            anc.Venv.e_state <- w;
            (* the walk continues from the widened state: the incoming
               (narrower) state is covered by it *)
            env.Venv.st <- Vstate.copy w;
            Venv.cov env "prune:widen";
            false
          | None ->
            (* structural divergence (pointer kind, frame shape): no
               sound widening exists; fall back to unrolling *)
            store_or_unroll env ~pc ~stored ~looping:true
        end
      | Some _ ->
        (* widening rounds exhausted without convergence *)
        store_or_unroll env ~pc ~stored ~looping:true
      | None -> store_or_unroll env ~pc ~stored ~looping:false
  end

(* -- Main loop ----------------------------------------------------------- *)

let run (env : Venv.t) : unit =
  check_cfg env;
  let insns = env.Venv.insns in
  let targets = jump_targets insns in
  let heads, n_heads = loop_heads insns ~targets in
  Vstats.loop_heads_seen env.Venv.vst n_heads;
  env.Venv.branch_stack <- [ (0, -1, env.Venv.st, []) ];
  Vstats.branch_pushed env.Venv.vst;
  (* the current path is done: every state it ran under has one fewer
     unfinished descendant.  An entry dropping to zero unfinished paths
     is no longer live: its whole subtree is verified (peak_states
     tracks the live count). *)
  let end_path () =
    List.iter
      (fun (e : Venv.explored_entry) ->
         e.Venv.e_branches <- e.Venv.e_branches - 1;
         if e.Venv.e_branches = 0 then Vstats.state_done env.Venv.vst)
      env.Venv.ancestors;
    env.Venv.ancestors <- []
  in
  let rec next_path () =
    end_path ();
    match env.Venv.branch_stack with
    | [] -> ()
    | (pc, from, st, ancestors) :: rest ->
      Vstats.branch_popped env.Venv.vst;
      env.Venv.branch_stack <- rest;
      env.Venv.st <- st;
      env.Venv.ancestors <- ancestors;
      walk ~from pc
  and walk ~from pc =
    env.Venv.insn_processed <- Vstats.count_insn env.Venv.vst;
    if env.Venv.insn_processed > Venv.insn_processed_limit then
      Venv.reject env ~pc Venv.E2BIG Insn_limit
        "BPF program is too large. Processed %d insn"
        env.Venv.insn_processed;
    if pc < 0 || pc >= Array.length insns then
      Venv.reject env ~pc Venv.EINVAL Bad_cfg "invalid program counter %d" pc;
    if maybe_prune env ~pc ~from targets heads then next_path ()
    else begin
      (* soundness sanitizer hooks: record the abstract register file
         this (non-pruned) visit runs under, and lint the whole state.
         A pruned visit needs no record: its state is subsumed by a
         stored one whose continuation was recorded — unless the pruning
         itself is unsound, which is exactly what the runtime witness
         check then exposes. *)
      if env.Venv.config.Kconfig.witness then begin
        let here = Witness.of_state env.Venv.st in
        let aux = Venv.aux_mut env pc in
        aux.Venv.witness <-
          (match aux.Venv.witness with
           | None -> Some here
           | Some prev -> Some (Witness.join_states prev here))
      end;
      if env.Venv.config.Kconfig.lint then
        Venv.record_lint env (Invariants.check_state ~pc env.Venv.st);
      Venv.log_state env;
      Venv.log_insn env ~pc insns.(pc);
      match insns.(pc) with
      | Insn.Alu { op64; op; dst; src } ->
        Check_alu.check env ~pc ~op64 op dst src;
        walk ~from:pc (pc + 1)
      | Insn.Endian { swap; bits; dst } ->
        Check_alu.check_endian env ~pc ~swap ~bits dst;
        walk ~from:pc (pc + 1)
      | Insn.Ld_imm64 (dst, kind) ->
        check_ld_imm64 env ~pc dst kind;
        walk ~from:pc (pc + 1)
      | Insn.Ldx { sz; dst; src; off } ->
        Venv.check_reg_write env ~pc dst;
        let size = Insn.size_bytes sz in
        let v =
          Check_mem.check env ~pc ~access:Check_mem.Aread ~addr_reg:src
            ~off ~size ()
        in
        (* narrow loads zero-extend: the result fits the access width.
           A known constant truncates exactly ([c land mask]); skipping
           it — the pre-fix behavior Bug12 re-creates — would keep a
           stale full-width constant the concrete execution escapes. *)
        let v =
          if size < 8 && Regstate.is_scalar v then begin
            let mask = Int64.sub (Int64.shift_left 1L (size * 8)) 1L in
            match Regstate.const_value v with
            | Some c ->
              if Venv.has_bug env Kconfig.Bug12_narrow_load_const then v
              else Regstate.const_scalar (Int64.logand c mask)
            | None -> Regstate.scalar_range ~umin:0L ~umax:mask
          end
          else v
        in
        Venv.set_reg env dst v;
        walk ~from:pc (pc + 1)
      | Insn.St { sz; dst; off; imm } ->
        let _ =
          Check_mem.check env ~pc ~access:Check_mem.Awrite ~addr_reg:dst
            ~off ~size:(Insn.size_bytes sz)
            ~stored:(Regstate.const_scalar (Int64.of_int32 imm)) ()
        in
        walk ~from:pc (pc + 1)
      | Insn.Stx { sz; dst; src; off } ->
        let stored = Venv.check_reg_read env ~pc src in
        let _ =
          Check_mem.check env ~pc ~access:Check_mem.Awrite ~addr_reg:dst
            ~off ~size:(Insn.size_bytes sz) ~stored ()
        in
        walk ~from:pc (pc + 1)
      | Insn.Atomic _ as a ->
        Check_mem.check_atomic env ~pc a;
        walk ~from:pc (pc + 1)
      | Insn.Ja off -> walk ~from:pc (pc + 1 + off)
      | Insn.Jmp { op32; cond; dst; src; off } -> begin
          match Check_jmp.check env ~pc ~op32 cond dst src with
          | Check_jmp.Both (taken, fall) ->
            (* the pushed sibling also runs under the current ancestors *)
            List.iter
              (fun (e : Venv.explored_entry) ->
                 e.Venv.e_branches <- e.Venv.e_branches + 1)
              env.Venv.ancestors;
            env.Venv.branch_stack <-
              (pc + 1 + off, pc, taken, env.Venv.ancestors)
              :: env.Venv.branch_stack;
            Vstats.branch_pushed env.Venv.vst;
            if env.Venv.vst.Vstats.vs_branch_depth
               > Venv.branch_depth_limit
            then begin
              Venv.cov env "budget:branches";
              Venv.reject env ~pc Venv.E2BIG Budget_exhausted
                "branch budget exhausted: %d pending branches"
                env.Venv.vst.Vstats.vs_branch_depth
            end;
            env.Venv.st <- fall;
            walk ~from:pc (pc + 1)
          | Check_jmp.Taken_only st ->
            env.Venv.st <- st;
            walk ~from:pc (pc + 1 + off)
          | Check_jmp.Fall_only st ->
            env.Venv.st <- st;
            walk ~from:pc (pc + 1)
        end
      | Insn.Call (Insn.Helper id) ->
        Check_call.check_helper env ~pc id;
        walk ~from:pc (pc + 1)
      | Insn.Call (Insn.Kfunc id) ->
        Check_call.check_kfunc env ~pc id;
        walk ~from:pc (pc + 1)
      | Insn.Call (Insn.Local off) ->
        let target = push_frame env ~pc ~target:(pc + 1 + off) in
        walk ~from:pc target
      | Insn.Exit ->
        if Vstate.frame_count env.Venv.st > 1 then begin
          let resume = pop_frame env ~pc in
          walk ~from:pc resume
        end
        else begin
          check_main_exit env ~pc;
          Venv.cov env "exit:ok";
          next_path ()
        end
    end
  in
  next_path ()
