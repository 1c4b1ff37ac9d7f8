open Vimport

(* Invariant lint over abstract register states: the analogue of the
   kernel's reg_bounds_sanity_check() under CONFIG_BPF_DEBUG.

   Every check is an internal-consistency property of a single
   [Regstate.t] that the clean verifier is expected to maintain at every
   transition.  A violation is NOT a finding — it says the verifier's
   own bookkeeping is inconsistent, regardless of whether any program
   was mis-judged — so it is recorded as a distinct class and never
   flows through the oracle. *)

type check =
  | C_unsigned_order   (* umin <=u umax *)
  | C_signed_order     (* smin <=s smax *)
  | C_tnum_wellformed  (* tnum value and mask bits are disjoint *)
  | C_tnum_range       (* tnum hull intersects [umin, umax] *)
  | C_bounds32         (* upper 32 bits known zero => umax fits 32 bits *)
  | C_sign_bit         (* known sign bit agrees with the signed range *)
  | C_sync_stable      (* sync is a no-op: bounds already propagated *)
  | C_scalar_shape     (* scalars carry no pointer-only fields *)
  | C_ptr_shape        (* packet range only on packet pointers *)
  | C_nullable_id      (* maybe_null pointers carry a non-zero id *)
  | C_widen_extensive  (* widen old cur subsumes both old and cur *)
  | C_widen_idempotent (* re-widening the widened state is a no-op *)

let check_to_string = function
  | C_unsigned_order -> "unsigned-order"
  | C_signed_order -> "signed-order"
  | C_tnum_wellformed -> "tnum-wellformed"
  | C_tnum_range -> "tnum-range"
  | C_bounds32 -> "bounds32"
  | C_sign_bit -> "sign-bit"
  | C_sync_stable -> "sync-stable"
  | C_scalar_shape -> "scalar-shape"
  | C_ptr_shape -> "ptr-shape"
  | C_nullable_id -> "nullable-id"
  | C_widen_extensive -> "widen-extensive"
  | C_widen_idempotent -> "widen-idempotent"

type violation = {
  v_check : check;
  v_pc : int;
  v_loc : string; (* "r3", "fp0[-8]" *)
  v_reg : string; (* Regstate.to_string at the time of the check *)
  v_detail : string;
}

let to_string (v : violation) : string =
  Printf.sprintf "pc %d %s: %s: %s (%s)" v.v_pc v.v_loc
    (check_to_string v.v_check) v.v_detail v.v_reg

(* All violated checks of one register state (empty = well formed). *)
let check_reg (r : Regstate.t) : (check * string) list =
  let t = r.Regstate.var_off in
  let bad = ref [] in
  let fail c fmt = Format.kasprintf (fun d -> bad := (c, d) :: !bad) fmt in
  let tnum_checks () =
    if Int64.logand t.Tnum.value t.Tnum.mask <> 0L then
      fail C_tnum_wellformed "value %Lx overlaps mask %Lx" t.Tnum.value
        t.Tnum.mask
  in
  (match r.Regstate.kind with
   | Regstate.Not_init -> ()
   | Regstate.Scalar ->
     tnum_checks ();
     if not (Word.ule r.Regstate.umin r.Regstate.umax) then
       fail C_unsigned_order "umin %Lu > umax %Lu" r.Regstate.umin
         r.Regstate.umax;
     if r.Regstate.smin > r.Regstate.smax then
       fail C_signed_order "smin %Ld > smax %Ld" r.Regstate.smin
         r.Regstate.smax;
     (* the tnum's hull and the unsigned range must intersect; the hull
        need not CONTAIN the range (bound_offset can know more about low
        bits than about magnitude) but an empty intersection means the
        abstract value has no members at all *)
     if not
          (Word.ule (Tnum.umin t) r.Regstate.umax
           && Word.ule r.Regstate.umin (Tnum.umax t)) then
       fail C_tnum_range "tnum hull [%Lu,%Lu] misses range [%Lu,%Lu]"
         (Tnum.umin t) (Tnum.umax t) r.Regstate.umin r.Regstate.umax;
     if Int64.shift_right_logical (Int64.logor t.Tnum.value t.Tnum.mask) 32
        = 0L
        && not (Word.ule r.Regstate.umax 0xFFFF_FFFFL) then
       fail C_bounds32 "upper 32 bits known zero but umax %Lu > U32_MAX"
         r.Regstate.umax;
     if Int64.logand t.Tnum.mask Int64.min_int = 0L then begin
       if Int64.logand t.Tnum.value Int64.min_int = 0L then begin
         if r.Regstate.smin < 0L then
           fail C_sign_bit "sign bit known zero but smin %Ld < 0"
             r.Regstate.smin
       end
       else if r.Regstate.smax >= 0L then
         fail C_sign_bit "sign bit known one but smax %Ld >= 0"
           r.Regstate.smax
     end;
     if not (Regstate.equal_bounds (Regstate.sync r) r) then
       fail C_sync_stable "sync tightens to %s"
         (Regstate.to_string (Regstate.sync r));
     if r.Regstate.off <> 0 || r.Regstate.range <> 0 then
       fail C_scalar_shape "off=%d range=%d on a scalar" r.Regstate.off
         r.Regstate.range
   | Regstate.Ptr p ->
     tnum_checks ();
     if r.Regstate.range < 0
        || (r.Regstate.range > 0 && p.Regstate.pk <> Regstate.P_packet)
     then
       fail C_ptr_shape "range %d on %s" r.Regstate.range
         (Regstate.ptr_kind_name p.Regstate.pk);
     if p.Regstate.maybe_null && p.Regstate.id = 0 then
       fail C_nullable_id "maybe_null without an id");
  List.rev !bad

(* Lint a whole verifier state: every register and spill of every
   frame. *)
let check_state ~(pc : int) (st : Vstate.t) : violation list =
  let out = ref [] in
  let emit loc r (c, detail) =
    out :=
      { v_check = c; v_pc = pc; v_loc = loc;
        v_reg = Regstate.to_string r; v_detail = detail }
      :: !out
  in
  Vstate.iter_frames st
    (fun (f : Vstate.frame) ->
       Array.iteri
         (fun i r ->
            let loc = Printf.sprintf "f%d:r%d" f.Vstate.frameno i in
            List.iter (emit loc r) (check_reg r))
         f.Vstate.regs;
       Vstate.iter_spills f (fun slot r ->
           let loc =
             Printf.sprintf "f%d:fp[%d]" f.Vstate.frameno
               (slot * 8 - Vstate.stack_bytes)
           in
           List.iter (emit loc r) (check_reg r)));
  List.rev !out

(* Lint one widening step at a loop head: the widened state must be
   extensive — it subsumes (under the pruning order) both the stored
   state it replaces and the incoming state that triggered the round —
   and a second widening against the same incoming state must be a
   no-op (the fixpoint the convergence bound relies on).  A violation
   here means a widening operator can "forget" behaviors, which is
   exactly the silent-unsoundness class the sanitizer exists to catch
   before it ever reaches the witness oracle. *)
let check_widen_state ~(pc : int) ~(th : Regstate.thresholds)
    ~(old : Vstate.t) ~(cur : Vstate.t) ~(widened : Vstate.t) :
  violation list =
  let out = ref [] in
  let fail c fmt =
    Format.kasprintf
      (fun d ->
         out :=
           { v_check = c; v_pc = pc; v_loc = "loop-head";
             v_reg = ""; v_detail = d }
           :: !out)
      fmt
  in
  if not (Vstate.states_equal ~old:widened ~cur:old ~bug3:false) then
    fail C_widen_extensive "widened state drops the stored state";
  if not (Vstate.states_equal ~old:widened ~cur ~bug3:false) then
    fail C_widen_extensive "widened state drops the incoming state";
  (match
     Vstate.widen_state ~th ~force:false ~old:widened
       ~cur
   with
   | None ->
     fail C_widen_idempotent "re-widening fails structurally"
   | Some again ->
     if
       not
         (Vstate.states_equal ~old:again ~cur:widened ~bug3:false
          && Vstate.states_equal ~old:widened ~cur:again ~bug3:false)
     then fail C_widen_idempotent "re-widening is not a fixpoint");
  List.rev !out
