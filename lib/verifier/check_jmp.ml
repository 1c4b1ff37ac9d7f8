open Vimport

(* Conditional jump analysis (kernel check_cond_jmp_op):

   - dead-branch detection from tracked bounds (is_branch_taken),
   - per-branch bounds refinement (reg_set_min_max),
   - null-check recognition on maybe_null pointers,
   - nullness propagation across register-to-register equality
     comparisons — the site of injected Bug#1: the fixed kernel filters
     PTR_TO_BTF_ID out of the propagation, the buggy one does not
     (Listing 2/3 of the paper),
   - packet-range discovery from data/data_end comparisons. *)

open Regstate

type verdict = Always | Never | Unknown

(* Evaluate [d cond s] over the tracked ranges. *)
let rec branch_verdict (cond : Insn.cond) (d : t) (s : t) : verdict =
  let u_lt () = if Word.ult d.umax s.umin then Always
    else if Word.uge d.umin s.umax then Never else Unknown in
  let u_le () = if Word.ule d.umax s.umin then Always
    else if Word.ugt d.umin s.umax then Never else Unknown in
  let u_gt () = if Word.ugt d.umin s.umax then Always
    else if Word.ule d.umax s.umin then Never else Unknown in
  let u_ge () = if Word.uge d.umin s.umax then Always
    else if Word.ult d.umax s.umin then Never else Unknown in
  let s_lt () = if d.smax < s.smin then Always
    else if d.smin >= s.smax then Never else Unknown in
  let s_le () = if d.smax <= s.smin then Always
    else if d.smin > s.smax then Never else Unknown in
  let s_gt () = if d.smin > s.smax then Always
    else if d.smax <= s.smin then Never else Unknown in
  let s_ge () = if d.smin >= s.smax then Always
    else if d.smax < s.smin then Never else Unknown in
  match cond with
  | Insn.Jeq ->
    if Regstate.is_const d && Regstate.is_const s
       && d.var_off.Tnum.value = s.var_off.Tnum.value
    then Always
    else if Word.ugt d.umin s.umax || Word.ult d.umax s.umin
            || d.smin > s.smax || d.smax < s.smin
    then Never
    else Unknown
  | Insn.Jne -> begin
      match branch_verdict Insn.Jeq d s with
      | Always -> Never
      | Never -> Always
      | Unknown -> Unknown
    end
  | Insn.Jgt -> u_gt ()
  | Insn.Jge -> u_ge ()
  | Insn.Jlt -> u_lt ()
  | Insn.Jle -> u_le ()
  | Insn.Jsgt -> s_gt ()
  | Insn.Jsge -> s_ge ()
  | Insn.Jslt -> s_lt ()
  | Insn.Jsle -> s_le ()
  | Insn.Jset ->
    if Regstate.is_const s then begin
      let bits = s.var_off.Tnum.value in
      if Int64.logand d.var_off.Tnum.value bits <> 0L then Always
      else if
        Int64.logand
          (Int64.logor d.var_off.Tnum.value d.var_off.Tnum.mask)
          bits
        = 0L
      then Never
      else Unknown
    end
    else Unknown

(* 32-bit signed view of a zero-extended 32-bit scalar: the executor's
   w-signed compares sign-extend the low word, so a value with bit 31
   set reads as negative even though its zero-extended bounds are
   positive.  Reinterpret the signed bounds accordingly; sext32 is
   monotone on each half of the u32 range, so when the range does not
   cross 2^31 the endpoints map directly. *)
let sext32_view (r : t) : t =
  if Word.ule r.umax 0x7FFF_FFFFL then r
  else if Word.uge r.umin 0x8000_0000L then
    { r with smin = Word.sext32 r.umin; smax = Word.sext32 r.umax }
  else
    { r with smin = Int64.of_int32 Int32.min_int;
      smax = Int64.of_int32 Int32.max_int }

(* Branch verdict at either width.  At 32 bits the operands are viewed
   through their low words (zero-extended for the unsigned and equality
   conditions, sign-extended for the signed ones), matching the
   executor's eval_cond. *)
let branch_verdict_width ~(op32 : bool) (cond : Insn.cond) (d : t) (s : t)
  : verdict =
  if not op32 then branch_verdict cond d s
  else begin
    let d = Regstate.truncate32 d and s = Regstate.truncate32 s in
    match cond with
    | Insn.Jsgt | Insn.Jsge | Insn.Jslt | Insn.Jsle ->
      branch_verdict cond (sext32_view d) (sext32_view s)
    | _ -> branch_verdict cond d s
  end

(* Refine [d] and [s] under the assumption that [d cond s] holds.
   Returns None when the assumption is contradictory (dead branch). *)
let refine (cond : Insn.cond) (d : t) (s : t) : (t * t) option =
  let clamp r = Regstate.sync r in
  let dead r = Regstate.is_bottom r in
  let result d s =
    let d = clamp d and s = clamp s in
    if dead d || dead s then None else Some (d, s)
  in
  match cond with
  | Insn.Jeq ->
    let var_off = Tnum.intersect d.var_off s.var_off in
    let umin = Word.umax d.umin s.umin
    and umax = Word.umin d.umax s.umax
    and smin = Word.smax d.smin s.smin
    and smax = Word.smin d.smax s.smax in
    result
      { d with var_off; umin; umax; smin; smax }
      { s with var_off; umin; umax; smin; smax }
  | Insn.Jne ->
    (* only useful when one side is a constant at a range boundary *)
    let bump r (c : int64) =
      if Regstate.is_const r then r
      else if r.umin = c then { r with umin = Int64.add c 1L }
      else if r.umax = c then { r with umax = Int64.sub c 1L }
      else r
    in
    (match Regstate.const_value s, Regstate.const_value d with
     | Some c, _ -> result (bump d c) s
     | None, Some c -> result d (bump s c)
     | None, None -> result d s)
  | Insn.Jgt ->
    result
      { d with umin = Word.umax d.umin (Int64.add s.umin 1L) }
      { s with umax = Word.umin s.umax (Int64.sub d.umax 1L) }
  | Insn.Jge ->
    result
      { d with umin = Word.umax d.umin s.umin }
      { s with umax = Word.umin s.umax d.umax }
  | Insn.Jlt ->
    result
      { d with umax = Word.umin d.umax (Int64.sub s.umax 1L) }
      { s with umin = Word.umax s.umin (Int64.add d.umin 1L) }
  | Insn.Jle ->
    result
      { d with umax = Word.umin d.umax s.umax }
      { s with umin = Word.umax s.umin d.umin }
  | Insn.Jsgt ->
    result
      { d with smin = Word.smax d.smin (Int64.add s.smin 1L) }
      { s with smax = Word.smin s.smax (Int64.sub d.smax 1L) }
  | Insn.Jsge ->
    result
      { d with smin = Word.smax d.smin s.smin }
      { s with smax = Word.smin s.smax d.smax }
  | Insn.Jslt ->
    result
      { d with smax = Word.smin d.smax (Int64.sub s.smax 1L) }
      { s with smin = Word.smax s.smin (Int64.add d.smin 1L) }
  | Insn.Jsle ->
    result
      { d with smax = Word.smin d.smax s.smax }
      { s with smin = Word.smax s.smin d.smin }
  | Insn.Jset ->
    if Regstate.is_const s && s.var_off.Tnum.value <> 0L then
      result { d with umin = Word.umax d.umin 1L } s
    else result d s

(* Refine under the assumption the condition is FALSE. *)
let refine_false (cond : Insn.cond) (d : t) (s : t) : (t * t) option =
  match cond with
  | Insn.Jset ->
    (* no common bits with a constant mask: those bits are known zero *)
    if Regstate.is_const s then begin
      let bits = s.var_off.Tnum.value in
      let var_off =
        { Tnum.value = Int64.logand d.var_off.Tnum.value (Int64.lognot bits);
          Tnum.mask = Int64.logand d.var_off.Tnum.mask (Int64.lognot bits) }
      in
      let d = Regstate.sync { d with var_off } in
      if Regstate.is_bottom d then None else Some (d, s)
    end
    else Some (d, s)
  | Insn.Jeq -> refine Insn.Jne d s
  | Insn.Jne -> refine Insn.Jeq d s
  | Insn.Jgt -> refine Insn.Jle d s
  | Insn.Jge -> refine Insn.Jlt d s
  | Insn.Jlt -> refine Insn.Jge d s
  | Insn.Jle -> refine Insn.Jgt d s
  | Insn.Jsgt -> refine Insn.Jsle d s
  | Insn.Jsge -> refine Insn.Jslt d s
  | Insn.Jslt -> refine Insn.Jsge d s
  | Insn.Jsle -> refine Insn.Jsgt d s

(* Branch refinement at either width.  The 64-bit refinement rules are
   only sound at 32 bits when every tracked value reads the same under
   the 32-bit interpretation: unsigned and equality conditions need the
   values to fit 32 bits (umax <= U32_MAX, so zero-extension is the
   identity); signed conditions additionally need bit 31 clear
   (umax <= S32_MAX), else sign-extension flips the order.  Outside
   that window the registers are left unrefined. *)
let refine_width ~(op32 : bool) ~(neg : bool) (cond : Insn.cond) (d : t)
    (s : t) : (t * t) option =
  let f = if neg then refine_false else refine in
  if not op32 then f cond d s
  else begin
    let limit =
      match cond with
      | Insn.Jsgt | Insn.Jsge | Insn.Jslt | Insn.Jsle -> 0x7FFF_FFFFL
      | _ -> 0xFFFF_FFFFL
    in
    if Word.ule d.umax limit && Word.ule s.umax limit then f cond d s
    else Some (d, s)
  end

(* -- Pointer-related branch semantics ---------------------------------- *)

(* Null-check on a maybe_null pointer against immediate 0: in the null
   branch every copy becomes the known scalar 0 and any reference the
   value carried is dropped (the acquire helper returned NULL, so there
   is nothing to release); in the non-null branch the maybe_null flag
   is dropped. *)
let mark_ptr_or_null (st : Vstate.t) ~(id : int) ~(null : bool) : unit =
  if null then begin
    let dropped = ref [] in
    Vstate.map_regs_with_id st ~id (fun r ->
        (match r.kind with
         | Ptr { ref_id; _ } when ref_id <> 0 ->
           dropped := ref_id :: !dropped
         | _ -> ());
        Regstate.const_scalar 0L);
    st.Vstate.refs <-
      List.filter (fun rid -> not (List.mem rid !dropped)) st.Vstate.refs
  end
  else
    Vstate.map_regs_with_id st ~id (fun r ->
        match r.kind with
        | Ptr p -> { r with kind = Ptr { p with maybe_null = false; id = 0 } }
        | _ -> r)

(* Nullness propagation for reg-to-reg equality (the Bug#1 site): in the
   branch where [a = b] holds and [b] is a non-null pointer, a nullable
   [a] must be non-null too.  The FIXED verifier skips the propagation
   when the non-null side is a BTF pointer (which may be NULL at runtime
   despite its type); the BUGGY one does not. *)
let propagate_nullness (env : Venv.t) (st : Vstate.t) (a : t) (b : t) : unit
  =
  let feature_on = Version.at_least (Venv.version env) Version.V6_1 in
  if feature_on then
    match a.kind, b.kind with
    | Ptr pa, Ptr pb when pa.maybe_null && not pb.maybe_null ->
      Venv.cov env "jmp:nullness_prop";
      let is_btf = match pb.pk with P_btf _ -> true | _ -> false in
      let propagate =
        (not is_btf) || Venv.has_bug env Kconfig.Bug1_nullness_propagation
      in
      if propagate then mark_ptr_or_null st ~id:pa.id ~null:false
    | _ -> ()

(* Packet-range discovery: after comparing a packet pointer (with
   constant offset k) against pkt_end, the branch where ptr+k <= end
   proves k bytes.  [lte_in_true] says whether the TRUE branch carries
   that fact. *)
let update_pkt_range (env : Venv.t) (st : Vstate.t) (pkt : t) : unit =
  match pkt.kind with
  | Ptr { pk = P_packet; id; _ } when Tnum.is_const pkt.var_off ->
    Venv.cov env "jmp:pkt_range";
    let proven = pkt.off in
    if proven > 0 then
      Vstate.map_packet_regs st ~id (fun r ->
          { r with range = max r.range proven })
  | _ -> ()

(* Is this a (packet, pkt_end) comparison, and in which branch does
   pkt <= end hold?  Returns (packet_reg, holds_in_true_branch). *)
let pkt_end_cmp (cond : Insn.cond) (d : t) (s : t) : (t * bool) option =
  let is_pkt r = match r.kind with
    | Ptr { pk = P_packet; _ } -> true | _ -> false in
  let is_end r = match r.kind with
    | Ptr { pk = P_packet_end; _ } -> true | _ -> false in
  if is_pkt d && is_end s then
    match cond with
    | Insn.Jle | Insn.Jlt -> Some (d, true)   (* pkt < end in true *)
    | Insn.Jgt | Insn.Jge -> Some (d, false)  (* pkt <= end in false *)
    | _ -> None
  else if is_end d && is_pkt s then
    match cond with
    | Insn.Jge | Insn.Jgt -> Some (s, true)   (* end > pkt in true *)
    | Insn.Jle | Insn.Jlt -> Some (s, false)
    | _ -> None
  else None

(* -- Main entry --------------------------------------------------------- *)

type outcome =
  | Both of Vstate.t * Vstate.t (* taken, fallthrough *)
  | Taken_only of Vstate.t
  | Fall_only of Vstate.t

let check (env : Venv.t) ~(pc : int) ~(op32 : bool) (cond : Insn.cond)
    (dst : Insn.reg) (src : Insn.src) : outcome =
  let d = Venv.check_reg_read env ~pc dst in
  let s_state, src_reg =
    match src with
    | Insn.Imm i -> (Regstate.const_scalar (Int64.of_int32 i), None)
    | Insn.Reg r -> (Venv.check_reg_read env ~pc r, Some r)
  in
  Venv.cov env "jmp:cond"
    ~v:((if op32 then 16 else 0)
        lor (match cond with
            | Insn.Jeq -> 0 | Insn.Jne -> 1 | Insn.Jgt -> 2 | Insn.Jge -> 3
            | Insn.Jlt -> 4 | Insn.Jle -> 5 | Insn.Jsgt -> 6
            | Insn.Jsge -> 7 | Insn.Jslt -> 8 | Insn.Jsle -> 9
            | Insn.Jset -> 10));
  let cur = env.Venv.st in
  (* null-check pattern: maybe_null ptr vs imm 0 with JEQ/JNE *)
  match d.kind, src with
  | Ptr p, Insn.Imm 0l
    when p.maybe_null && (cond = Insn.Jeq || cond = Insn.Jne)
         && not op32 ->
    Venv.cov env "jmp:null_check";
    (* one copy: [cur] itself becomes the null branch *)
    let nn_branch = Vstate.copy cur in
    mark_ptr_or_null cur ~id:p.id ~null:true;
    mark_ptr_or_null nn_branch ~id:p.id ~null:false;
    if cond = Insn.Jeq then Both (cur, nn_branch)
    else Both (nn_branch, cur)
  | _ ->
    (* pointer-vs-pointer and pointer-vs-scalar semantics *)
    let d_is_ptr = Regstate.is_pointer d in
    let s_is_ptr = Regstate.is_pointer s_state in
    if (d_is_ptr || s_is_ptr) && Venv.unprivileged env then
      (* only the null-check pattern above is allowed without
         CAP_PERFMON: comparisons would leak pointer values through
         timing/branches *)
      Venv.reject env ~pc Venv.EACCES Ptr_leak
        "R%d pointer comparison prohibited (unprivileged)"
        (Insn.reg_to_int dst)
    else if d_is_ptr || s_is_ptr then begin
      (* non-null pointer vs 0: statically decidable *)
      match d.kind, src with
      | Ptr p, Insn.Imm 0l when not p.maybe_null -> begin
          Venv.cov env "jmp:ptr_vs_zero";
          match cond with
          | Insn.Jeq -> Fall_only cur
          | Insn.Jne -> Taken_only cur
          | _ -> Both (Vstate.copy cur, cur)
        end
      | _ -> begin
          match pkt_end_cmp cond d s_state with
          | Some (pkt, lte_in_true) ->
            let taken = Vstate.copy cur in
            update_pkt_range env (if lte_in_true then taken else cur) pkt;
            Both (taken, cur)
          | None ->
            if (cond = Insn.Jeq || cond = Insn.Jne) && d_is_ptr && s_is_ptr
            then begin
              (* reg-to-reg equality: nullness propagation (Bug#1) *)
              let taken = Vstate.copy cur in
              let equal_branch = if cond = Insn.Jeq then taken else cur in
              propagate_nullness env equal_branch d s_state;
              propagate_nullness env equal_branch s_state d;
              Both (taken, cur)
            end
            else Both (Vstate.copy cur, cur)
        end
    end
    else begin
      (* scalar comparison: dead-branch detection + refinement *)
      match branch_verdict_width ~op32 cond d s_state with
      | Always ->
        Venv.cov env "jmp:static" ~v:1;
        Taken_only cur
      | Never ->
        Venv.cov env "jmp:static" ~v:0;
        Fall_only cur
      | Unknown ->
        let apply st refined_d refined_s =
          Vstate.set_reg st dst refined_d;
          (match src_reg with
           | Some r when r <> dst -> Vstate.set_reg st r refined_s
           | _ -> ());
          st
        in
        (* the refined 32-bit bounds logic landed after v5.15 *)
        if op32 && Version.at_least (Venv.version env) Version.V6_1 then
          Venv.cov env "jmp:cond32_refine"
            ~v:(match cond with
                | Insn.Jeq -> 0 | Insn.Jne -> 1 | Insn.Jgt -> 2
                | Insn.Jge -> 3 | Insn.Jlt -> 4 | Insn.Jle -> 5
                | Insn.Jsgt -> 6 | Insn.Jsge -> 7 | Insn.Jslt -> 8
                | Insn.Jsle -> 9 | Insn.Jset -> 10);
        (* only copy when BOTH branches survive the refinement *)
        (match refine_width ~op32 ~neg:false cond d s_state,
               refine_width ~op32 ~neg:true cond d s_state with
         | Some (td, ts), Some (fd, fs) ->
           let taken_st = Vstate.copy cur in
           Both (apply taken_st td ts, apply cur fd fs)
         | Some (td, ts), None -> Taken_only (apply cur td ts)
         | None, Some (fd, fs) -> Fall_only (apply cur fd fs)
         | None, None ->
           (* both contradictory: bounds were already inconsistent *)
           Fall_only cur)
    end
