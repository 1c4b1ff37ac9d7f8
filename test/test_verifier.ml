(* Verifier tests: the tnum abstract domain (soundness properties), the
   register-state bounds machinery, branch refinement, and an extensive
   accept/reject program suite in the style of the kernel's
   tools/testing/selftests/bpf/verifier tests. *)

module Word = Bvf_ebpf.Word
module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Helper = Bvf_ebpf.Helper
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Map = Bvf_kernel.Map
module Kstate = Bvf_kernel.Kstate
module Tnum = Bvf_verifier.Tnum
module Regstate = Bvf_verifier.Regstate
module Vstate = Bvf_verifier.Vstate
module Venv = Bvf_verifier.Venv
module Reject_reason = Bvf_verifier.Reject_reason
module Check_jmp = Bvf_verifier.Check_jmp
module Coverage = Bvf_verifier.Coverage
module Verifier = Bvf_verifier.Verifier
module Patch = Bvf_verifier.Patch
module Sanitize = Bvf_verifier.Sanitize

(* -- Tnum soundness -------------------------------------------------------- *)

let gen_tnum_and_member : (Tnum.t * int64) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* value = map Int64.of_int (int_range (-1000000) 1000000) in
  let* mask = map Int64.of_int (int_range 0 0xFFFFF) in
  let mask = Int64.logand mask (Int64.lognot value) in
  let t = { Tnum.value = Int64.logand value (Int64.lognot mask); mask } in
  (* pick a member: value with a random subset of mask bits *)
  let* noise = map Int64.of_int (int_range 0 0xFFFFF) in
  let member = Int64.logor t.Tnum.value (Int64.logand noise mask) in
  return (t, member)

let tnum_sound name op concrete =
  QCheck2.Test.make ~count:500 ~name
    QCheck2.Gen.(pair gen_tnum_and_member gen_tnum_and_member)
    (fun ((ta, a), (tb, b)) -> Tnum.contains (op ta tb) (concrete a b))

let tnum_add_sound = tnum_sound "tnum add sound" Tnum.add Int64.add
let tnum_sub_sound = tnum_sound "tnum sub sound" Tnum.sub Int64.sub
let tnum_and_sound = tnum_sound "tnum and sound" Tnum.and_ Int64.logand
let tnum_or_sound = tnum_sound "tnum or sound" Tnum.or_ Int64.logor
let tnum_xor_sound = tnum_sound "tnum xor sound" Tnum.xor Int64.logxor
let tnum_mul_sound = tnum_sound "tnum mul sound" Tnum.mul Int64.mul

let tnum_shift_sound =
  QCheck2.Test.make ~count:500 ~name:"tnum shifts sound"
    QCheck2.Gen.(pair gen_tnum_and_member (int_range 0 63))
    (fun ((t, x), sh) ->
       Tnum.contains (Tnum.lshift t sh) (Int64.shift_left x sh)
       && Tnum.contains (Tnum.rshift t sh)
         (Int64.shift_right_logical x sh)
       && Tnum.contains (Tnum.arshift t sh ~bits:64)
         (Int64.shift_right x sh))

let tnum_range_sound =
  QCheck2.Test.make ~count:500 ~name:"tnum range contains interval"
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 0 100000)
                   (int_range 0 100000))
    (fun (a, b, probe) ->
       let lo = min a b and hi = max a b in
       let t = Tnum.range ~min:(Int64.of_int lo) ~max:(Int64.of_int hi) in
       let p = lo + (probe mod (hi - lo + 1)) in
       Tnum.contains t (Int64.of_int p))

let tnum_intersect_sound =
  QCheck2.Test.make ~count:500 ~name:"tnum intersect keeps members"
    gen_tnum_and_member
    (fun (t, x) ->
       let t2 = Tnum.range ~min:0L ~max:(Int64.logor x 0xFFL) in
       if Tnum.contains t2 x then Tnum.contains (Tnum.intersect t t2) x
       else true)

let test_tnum_basics () =
  Alcotest.(check bool) "const is const" true (Tnum.is_const (Tnum.const 5L));
  Alcotest.(check bool) "unknown" true (Tnum.is_unknown Tnum.unknown);
  Alcotest.(check int64) "umin" 4L (Tnum.umin { Tnum.value = 4L; mask = 3L });
  Alcotest.(check int64) "umax" 7L (Tnum.umax { Tnum.value = 4L; mask = 3L });
  Alcotest.(check bool) "subset" true
    (Tnum.subset ~of_:Tnum.unknown (Tnum.const 9L));
  Alcotest.(check bool) "not subset" false
    (Tnum.subset ~of_:(Tnum.const 9L) Tnum.unknown);
  Alcotest.(check bool) "cast" true
    (Tnum.equal (Tnum.cast (Tnum.const 0x1FFL) ~size:1) (Tnum.const 0xFFL));
  Alcotest.(check bool) "aligned" true
    (Tnum.is_aligned (Tnum.const 8L) 8L);
  Alcotest.(check bool) "unaligned" false
    (Tnum.is_aligned (Tnum.const 9L) 8L)

(* -- Regstate -------------------------------------------------------------- *)

let test_regstate_const () =
  let r = Regstate.const_scalar 42L in
  Alcotest.(check bool) "const" true (Regstate.const_value r = Some 42L);
  Alcotest.(check int64) "umin" 42L r.Regstate.umin;
  Alcotest.(check int64) "smax" 42L r.Regstate.smax

let test_regstate_sync_deduce () =
  (* unsigned knowledge must flow into signed bounds *)
  let r = Regstate.scalar_range ~umin:0L ~umax:100L in
  Alcotest.(check bool) "smin >= 0" true (r.Regstate.smin >= 0L);
  Alcotest.(check bool) "smax <= 100" true (r.Regstate.smax <= 100L)

let test_regstate_bottom () =
  let r =
    Regstate.sync
      { (Regstate.const_scalar 5L) with Regstate.umin = 10L; umax = 3L }
  in
  Alcotest.(check bool) "inconsistent is bottom" true (Regstate.is_bottom r)

let test_regstate_within () =
  let wide = Regstate.scalar_range ~umin:0L ~umax:100L in
  let narrow = Regstate.scalar_range ~umin:10L ~umax:20L in
  Alcotest.(check bool) "narrow within wide" true
    (Regstate.reg_within ~old:wide ~cur:narrow ~bug3:false);
  Alcotest.(check bool) "wide not within narrow" false
    (Regstate.reg_within ~old:narrow ~cur:wide ~bug3:false);
  (* the Bug#3 hook: kfunc scalars compare equal under the buggy prune *)
  let kfunc_wide = { narrow with Regstate.from_kfunc = true } in
  Alcotest.(check bool) "bug3 skips ranges" true
    (Regstate.reg_within ~old:kfunc_wide ~cur:wide ~bug3:true);
  Alcotest.(check bool) "fixed does not" false
    (Regstate.reg_within ~old:kfunc_wide ~cur:wide ~bug3:false)

let test_regstate_truncate32 () =
  let r = Regstate.truncate32 (Regstate.const_scalar 0x1_0000_0005L) in
  Alcotest.(check bool) "truncated" true
    (Regstate.const_value r = Some 5L)

(* -- Vstate stack ----------------------------------------------------------- *)

let test_stack_spill_fill () =
  let f = Vstate.new_frame ~frameno:0 ~callsite:(-1) in
  let ptr = Regstate.pointer (Regstate.P_mem 64) in
  Vstate.stack_write f ~off:(-8) ~size:8 ptr;
  (match Vstate.stack_read f ~off:(-8) ~size:8 with
   | Ok r -> Alcotest.(check bool) "spill preserved" true
       (Regstate.is_pointer r)
   | Error (_, e) -> Alcotest.fail e);
  (* partial overwrite kills the spill *)
  Vstate.stack_write f ~off:(-6) ~size:2 (Regstate.const_scalar 0L);
  match Vstate.stack_read f ~off:(-8) ~size:8 with
  | Ok r -> Alcotest.(check bool) "degraded to scalar" true
      (Regstate.is_scalar r)
  | Error _ -> Alcotest.fail "slot should still be initialized"

let test_stack_zero_tracking () =
  let f = Vstate.new_frame ~frameno:0 ~callsite:(-1) in
  Vstate.stack_write f ~off:(-16) ~size:4 (Regstate.const_scalar 0L);
  (match Vstate.stack_read f ~off:(-16) ~size:4 with
   | Ok r -> Alcotest.(check bool) "zero" true
       (Regstate.const_value r = Some 0L)
   | Error (_, e) -> Alcotest.fail e);
  match Vstate.stack_read f ~off:(-20) ~size:8 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "uninit read must fail"

let test_stack_initialized_region () =
  let f = Vstate.new_frame ~frameno:0 ~callsite:(-1) in
  Vstate.stack_mark_written f ~off:(-32) ~size:16;
  Alcotest.(check bool) "initialized" true
    (Vstate.stack_initialized f ~off:(-32) ~size:16);
  Alcotest.(check bool) "beyond not" false
    (Vstate.stack_initialized f ~off:(-32) ~size:17)

(* -- Branch verdict/refinement soundness ----------------------------------- *)

let eval_cond (cond : Insn.cond) (a : int64) (b : int64) : bool =
  match cond with
  | Insn.Jeq -> a = b
  | Insn.Jne -> a <> b
  | Insn.Jgt -> Word.ugt a b
  | Insn.Jge -> Word.uge a b
  | Insn.Jlt -> Word.ult a b
  | Insn.Jle -> Word.ule a b
  | Insn.Jsgt -> a > b
  | Insn.Jsge -> a >= b
  | Insn.Jslt -> a < b
  | Insn.Jsle -> a <= b
  | Insn.Jset -> Int64.logand a b <> 0L

let all_conds =
  [ Insn.Jeq; Insn.Jne; Insn.Jgt; Insn.Jge; Insn.Jlt; Insn.Jle; Insn.Jsgt;
    Insn.Jsge; Insn.Jslt; Insn.Jsle; Insn.Jset ]

let gen_bounded_scalar : (Regstate.t * int64) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* a = map Int64.of_int (int_range (-1000) 1000) in
  let* b = map Int64.of_int (int_range (-1000) 1000) in
  let lo = if a < b then a else b and hi = if a < b then b else a in
  let* x = map Int64.of_int (int_range 0 2000) in
  let x = Int64.add lo (Int64.rem x (Int64.add (Int64.sub hi lo) 1L)) in
  let r =
    Regstate.sync
      { Regstate.unknown_scalar with Regstate.smin = lo; smax = hi }
  in
  return (r, x)

(* if the verdict says Always/Never, every concrete member pair agrees *)
let verdict_sound =
  QCheck2.Test.make ~count:1000 ~name:"branch verdict sound"
    QCheck2.Gen.(triple (int_range 0 10) gen_bounded_scalar
                   gen_bounded_scalar)
    (fun (ci, (ra, a), (rb, b)) ->
       let cond = List.nth all_conds ci in
       match Check_jmp.branch_verdict cond ra rb with
       | Check_jmp.Always -> eval_cond cond a b
       | Check_jmp.Never -> not (eval_cond cond a b)
       | Check_jmp.Unknown -> true)

(* refinement keeps every concrete pair satisfying the condition *)
let refine_sound =
  QCheck2.Test.make ~count:1000 ~name:"branch refinement sound"
    QCheck2.Gen.(triple (int_range 0 10) gen_bounded_scalar
                   gen_bounded_scalar)
    (fun (ci, (ra, a), (rb, b)) ->
       let cond = List.nth all_conds ci in
       let member (r : Regstate.t) x =
         r.Regstate.smin <= x && x <= r.Regstate.smax
         && Word.ule r.Regstate.umin x
         && Word.ule x r.Regstate.umax
         && Tnum.contains r.Regstate.var_off x
       in
       if eval_cond cond a b then
         match Check_jmp.refine cond ra rb with
         | Some (ra', rb') -> member ra' a && member rb' b
         | None -> false (* contradiction despite a witness: unsound *)
       else
         match Check_jmp.refine_false cond ra rb with
         | Some (ra', rb') -> member ra' a && member rb' b
         | None -> false)

(* -- Accept/reject program suite -------------------------------------------- *)

type expectation = Accept | Reject of string

let fresh_kst ?(config = Kconfig.fixed Version.Bpf_next) () =
  let kst = Kstate.create config in
  let hash_fd = Kstate.map_create kst (Map.hash_def ()) in
  let array_fd = Kstate.map_create kst (Map.array_def ()) in
  let spin_fd =
    Kstate.map_create kst
      (Map.hash_def ~value_size:64 ~has_spin_lock:true ())
  in
  let ring_fd = Kstate.map_create kst (Map.ringbuf_def ()) in
  (kst, hash_fd, array_fd, spin_fd, ring_fd)

let check_program ?config ?(prog_type = Prog.Socket_filter) ?attach
    (name : string) (expect : expectation)
    (build : int -> int -> int -> int -> Insn.t list list) () =
  let kst, hash_fd, array_fd, spin_fd, ring_fd = fresh_kst ?config () in
  let insns = Asm.prog (build hash_fd array_fd spin_fd ring_fd) in
  let req = Verifier.request ~attach prog_type insns in
  let result = Verifier.verify kst ~cov:(Coverage.create ()) req in
  match expect, result with
  | Accept, Ok () -> ()
  | Accept, Error e ->
    Alcotest.fail
      (Printf.sprintf "%s: expected accept, got %s (pc=%d)" name
         e.Venv.vmsg e.Venv.vpc)
  | Reject _, Ok () ->
    Alcotest.fail (Printf.sprintf "%s: expected reject, got accept" name)
  | Reject fragment, Error e ->
    let contains needle haystack =
      let nl = String.length needle and hl = String.length haystack in
      let rec go i =
        i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
      in
      go 0
    in
    if fragment <> "" && not (contains fragment e.Venv.vmsg) then
      Alcotest.fail
        (Printf.sprintf "%s: expected %S in %S" name fragment e.Venv.vmsg)

let r0 = Insn.R0
let r1 = Insn.R1
let r2 = Insn.R2
let r3 = Insn.R3
let r6 = Insn.R6
let r7 = Insn.R7
let r10 = Insn.R10

let suite_cases =
  [
    ( "minimal return",
      Accept,
      fun _ _ _ _ -> [ Asm.ret 0l ] );
    ( "uninitialized register read",
      Reject "!read_ok",
      fun _ _ _ _ -> [ [ Asm.alu64_reg Insn.Add r0 r3 ]; Asm.ret 0l ] );
    ( "R0 not set at exit",
      Reject "R0 !read_ok",
      fun _ _ _ _ -> [ [ Asm.exit_ ] ] );
    ( "return range violation",
      Reject "At program exit",
      fun _ _ _ _ -> [ Asm.ret 7l ] );
    ( "write to frame pointer",
      Reject "frame pointer",
      fun _ _ _ _ -> [ [ Asm.mov64_imm r10 0l ]; Asm.ret 0l ] );
    ( "stack write/read ok",
      Accept,
      fun _ _ _ _ ->
        [ [ Asm.st_dw r10 (-8) 7l; Asm.ldx_dw r1 r10 (-8) ]; Asm.ret 0l ] );
    ( "stack out of bounds",
      Reject "invalid stack access",
      fun _ _ _ _ -> [ [ Asm.st_dw r10 (-520) 0l ]; Asm.ret 0l ] );
    ( "stack positive offset",
      Reject "invalid stack access",
      fun _ _ _ _ -> [ [ Asm.st_dw r10 0 0l ]; Asm.ret 0l ] );
    ( "uninitialized stack read",
      Reject "invalid read from stack",
      fun _ _ _ _ -> [ [ Asm.ldx_dw r1 r10 (-16) ]; Asm.ret 0l ] );
    ( "scalar dereference",
      Reject "'scalar'",
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r1 42l; Asm.ldx_dw r2 r1 0 ]; Asm.ret 0l ] );
    ( "ctx read ok",
      Accept,
      fun _ _ _ _ -> [ [ Asm.ldx_w r2 r1 0 ]; Asm.ret 0l ] );
    ( "ctx bad offset",
      Reject "invalid bpf_context access",
      fun _ _ _ _ -> [ [ Asm.ldx_w r2 r1 2 ]; Asm.ret 0l ] );
    ( "ctx write readonly field",
      Reject "read-only ctx field",
      fun _ _ _ _ -> [ [ Asm.st_w r1 0 0l ]; Asm.ret 0l ] );
    ( "ctx write writable field",
      Accept,
      fun _ _ _ _ -> [ [ Asm.st_w r1 8 0l ]; Asm.ret 0l ] );
    ( "map lookup flow (Table 1)",
      Accept,
      fun hash _ _ _ ->
        [ [ Asm.st_dw r10 (-8) 0l;
            Asm.ld_map_fd r1 hash;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.st_dw r0 0 1l ];
          Asm.ret 0l ] );
    ( "map value deref without null check",
      Reject "map_value_or_null",
      fun hash _ _ _ ->
        [ [ Asm.st_dw r10 (-8) 0l;
            Asm.ld_map_fd r1 hash;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1;
            Asm.ldx_dw r1 r0 0 ];
          Asm.ret 0l ] );
    ( "map value out of bounds",
      Reject "invalid access to map value",
      fun hash _ _ _ ->
        [ [ Asm.st_dw r10 (-8) 0l;
            Asm.ld_map_fd r1 hash;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.st_dw r0 48 1l ];
          Asm.ret 0l ] );
    ( "uninitialized key to helper",
      Reject "uninitialized stack",
      fun hash _ _ _ ->
        [ [ Asm.ld_map_fd r1 hash;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1 ];
          Asm.ret 0l ] );
    ( "direct map value access",
      Accept,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.st_w r6 0 7l;
            Asm.ldx_w r2 r6 0 ];
          Asm.ret 0l ] );
    ( "unknown map fd",
      (* EBADF from fd resolution, before verification — like the
         kernel's resolve_pseudo_ldimm64 *)
      Reject "is not a map",
      fun _ _ _ _ -> [ [ Asm.ld_map_fd r1 999 ]; Asm.ret 0l ] );
    ( "bounded loop accepted",
      Accept,
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r6 0l;
            (* LOOP: *)
            Asm.alu64_imm Insn.Add r6 1l;
            Asm.jmp_imm Insn.Jlt r6 8l (-2) ];
          Asm.ret 0l ] );
    ( "unbounded loop rejected",
      Reject "",
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r6 0l;
            Asm.alu64_imm Insn.Add r6 1l;
            Asm.jmp_imm Insn.Jne r6 0l (-2) ];
          Asm.ret 0l ] );
    ( "jump out of range",
      Reject "out of range",
      fun _ _ _ _ -> [ [ Asm.ja 100 ]; Asm.ret 0l ] );
    ( "unreachable code",
      Reject "unreachable",
      fun _ _ _ _ ->
        [ [ Asm.ja 1; Asm.mov64_imm r6 0l ]; Asm.ret 0l ] );
    ( "fallthrough off end",
      Reject "",
      fun _ _ _ _ -> [ [ Asm.mov64_imm r0 0l ] ] );
    ( "bounds refinement allows masked access",
      Accept,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.ldx_w r7 r1 0;
            Asm.alu64_imm Insn.And r7 15l;
            Asm.alu64_reg Insn.Add r6 r7;
            Asm.ldx_b r2 r6 0 ];
          Asm.ret 0l ] );
    ( "unbounded offset to map value",
      Reject "",
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.ldx_w r7 r1 0;
            Asm.alu64_imm Insn.Lsh r7 32l; (* genuinely unbounded *)
            Asm.alu64_reg Insn.Add r6 r7;
            Asm.ldx_b r2 r6 0 ];
          Asm.ret 0l ] );
    ( "branch-refined bound allows access",
      Accept,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.ldx_w r7 r1 0;
            Asm.jmp_imm Insn.Jgt r7 40l 2;
            Asm.alu64_reg Insn.Add r6 r7;
            Asm.ldx_b r2 r6 0 ];
          Asm.ret 0l ] );
    ( "pointer leak at exit",
      Reject "leaks pointer",
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r0 array 0; Asm.exit_ ] ] );
    ( "pointer arithmetic on ctx",
      Reject "prohibited",
      fun _ _ _ _ ->
        [ [ Asm.mov64_reg r6 r1;
            Asm.mov64_imm r7 4l;
            Asm.alu64_reg Insn.Add r6 r7;
            Asm.ldx_w r2 r6 0 ];
          Asm.ret 0l ] );
    ( "pointer multiply",
      Reject "prohibited",
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.alu64_imm Insn.Mul r6 2l ];
          Asm.ret 0l ] );
    ( "32-bit pointer arithmetic",
      Reject "32-bit pointer arithmetic",
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.mov64_imm r7 1l;
            Asm.alu32_reg Insn.Add r6 r7 ];
          Asm.ret 0l ] );
    ( "helper for wrong prog type",
      Reject "not allowed for prog type",
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r1 9l;
            Asm.call Helper.send_signal.Helper.id ];
          Asm.ret 0l ] );
    ( "spin lock balanced",
      Accept,
      fun _ _ spin _ ->
        [ [ Asm.st_dw r10 (-8) 0l;
            Asm.ld_map_fd r1 spin;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.mov64_reg r6 r0;
            Asm.mov64_reg r1 r6;
            Asm.call Helper.spin_lock.Helper.id;
            Asm.mov64_reg r1 r6;
            Asm.call Helper.spin_unlock.Helper.id ];
          Asm.ret 0l ] );
    ( "spin lock leaked",
      Reject "missing unlock",
      fun _ _ spin _ ->
        [ [ Asm.st_dw r10 (-8) 0l;
            Asm.ld_map_fd r1 spin;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.mov64_reg r1 r0;
            Asm.call Helper.spin_lock.Helper.id ];
          Asm.ret 0l ] );
    ( "helper call inside lock section",
      Reject "inside bpf_spin_lock",
      fun _ _ spin _ ->
        [ [ Asm.st_dw r10 (-8) 0l;
            Asm.ld_map_fd r1 spin;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.mov64_reg r6 r0;
            Asm.mov64_reg r1 r6;
            Asm.call Helper.spin_lock.Helper.id;
            Asm.call Helper.ktime_get_ns.Helper.id;
            Asm.mov64_reg r1 r6;
            Asm.call Helper.spin_unlock.Helper.id ];
          Asm.ret 0l ] );
    ( "direct spin lock field access",
      Reject "bpf_spin_lock area",
      fun _ _ spin _ ->
        [ [ Asm.st_dw r10 (-8) 0l;
            Asm.ld_map_fd r1 spin;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.ldx_w r2 r0 0 ];
          Asm.ret 0l ] );
    ( "ringbuf reserve/submit",
      Accept,
      fun _ _ _ ring ->
        [ [ Asm.ld_map_fd r1 ring;
            Asm.mov64_imm r2 16l;
            Asm.mov64_imm r3 0l;
            Asm.call Helper.ringbuf_reserve.Helper.id;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.mov64_reg r6 r0;
            Asm.st_dw r6 0 5l;
            Asm.mov64_reg r1 r6;
            Asm.mov64_imm r2 0l;
            Asm.call Helper.ringbuf_submit.Helper.id ];
          Asm.ret 0l ] );
    ( "ringbuf reference leak",
      Reject "Unreleased reference",
      fun _ _ _ ring ->
        [ [ Asm.ld_map_fd r1 ring;
            Asm.mov64_imm r2 16l;
            Asm.mov64_imm r3 0l;
            Asm.call Helper.ringbuf_reserve.Helper.id;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_ ];
          Asm.ret 0l ] );
    ( "ringbuf chunk out of bounds",
      Reject "",
      fun _ _ _ ring ->
        [ [ Asm.ld_map_fd r1 ring;
            Asm.mov64_imm r2 16l;
            Asm.mov64_imm r3 0l;
            Asm.call Helper.ringbuf_reserve.Helper.id;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.mov64_reg r6 r0;
            Asm.st_dw r6 16 5l;
            Asm.mov64_reg r1 r6;
            Asm.mov64_imm r2 0l;
            Asm.call Helper.ringbuf_submit.Helper.id ];
          Asm.ret 0l ] );
    ( "bpf-to-bpf call",
      Accept,
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r1 5l;
            Asm.call_local 2;
            Asm.mov64_reg r0 r0;
            Asm.exit_;
            (* subprog: *)
            Asm.mov64_reg r0 r1;
            Asm.alu64_imm Insn.And r0 1l;
            Asm.exit_ ] ] );
    ( "too deep call chain",
      Reject "too deep",
      fun _ _ _ _ ->
        [ [ Asm.call_local 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.call_local (-1); (* self-recursion *)
            Asm.exit_ ] ] );
    ( "reserved register use",
      Reject "reserved",
      fun _ _ _ _ ->
        [ [ Asm.mov64_reg Insn.R11 r1 ]; Asm.ret 0l ] );
  ]

(* -- Extended cases: packet access, jmp32, atomics, endian, loops ------- *)

let r4 = Insn.R4
let r5 = Insn.R5

let extended_cases =
  [
    ( "packet access after bounds check",
      Accept,
      Prog.Xdp,
      fun _ _ _ _ ->
        [ [ Asm.ldx_w r2 r1 0;        (* data *)
            Asm.ldx_w r3 r1 4;        (* data_end *)
            Asm.mov64_reg r4 r2;
            Asm.alu64_imm Insn.Add r4 16l;
            Asm.jmp_reg Insn.Jgt r4 r3 2;
            Asm.ldx_dw r5 r2 0;
            Asm.ldx_dw r5 r2 8 ];
          Asm.ret 2l ] );
    ( "packet access without bounds check",
      Reject "invalid access to packet",
      Prog.Xdp,
      fun _ _ _ _ ->
        [ [ Asm.ldx_w r2 r1 0; Asm.ldx_dw r5 r2 0 ]; Asm.ret 2l ] );
    ( "packet access beyond proven range",
      Reject "invalid access to packet",
      Prog.Xdp,
      fun _ _ _ _ ->
        [ [ Asm.ldx_w r2 r1 0;
            Asm.ldx_w r3 r1 4;
            Asm.mov64_reg r4 r2;
            Asm.alu64_imm Insn.Add r4 8l;
            Asm.jmp_reg Insn.Jgt r4 r3 1;
            Asm.ldx_dw r5 r2 8 ];
          Asm.ret 2l ] );
    ( "packet write allowed on xdp",
      Accept,
      Prog.Xdp,
      fun _ _ _ _ ->
        [ [ Asm.ldx_w r2 r1 0;
            Asm.ldx_w r3 r1 4;
            Asm.mov64_reg r4 r2;
            Asm.alu64_imm Insn.Add r4 8l;
            Asm.jmp_reg Insn.Jgt r4 r3 1;
            Asm.st_w r2 0 7l ];
          Asm.ret 2l ] );
    ( "packet write rejected on socket filter",
      Reject "write into packet",
      Prog.Socket_filter,
      fun _ _ _ _ ->
        [ [ Asm.ldx_w r2 r1 76;       (* skb data *)
            Asm.ldx_w r3 r1 80;       (* skb data_end *)
            Asm.mov64_reg r4 r2;
            Asm.alu64_imm Insn.Add r4 8l;
            Asm.jmp_reg Insn.Jgt r4 r3 1;
            Asm.st_w r2 0 7l ];
          Asm.ret 0l ] );
    ( "jmp32 refinement bounds a masked access",
      Accept,
      Prog.Socket_filter,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.ldx_w r7 r1 0;
            Asm.jmp32_imm Insn.Jgt r7 40l 2;
            Asm.alu64_reg Insn.Add r6 r7;
            Asm.ldx_b r2 r6 0 ];
          Asm.ret 0l ] );
    ( "atomic on the stack",
      Accept,
      Prog.Socket_filter,
      fun _ _ _ _ ->
        [ [ Asm.st_dw r10 (-8) 1l;
            Asm.mov64_imm r2 2l;
            Asm.atomic Insn.DW Insn.A_add r10 r2 (-8) ];
          Asm.ret 0l ] );
    ( "atomic fetch writes back the old value",
      Accept,
      Prog.Socket_filter,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.mov64_imm r2 2l;
            Asm.atomic ~fetch:true Insn.DW Insn.A_xor r6 r2 0;
            Asm.alu64_imm Insn.And r2 1l ];
          Asm.ret 0l ] );
    ( "atomic on a scalar rejected",
      Reject "'scalar'",
      Prog.Socket_filter,
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r2 2l; Asm.mov64_imm r3 0l;
            Asm.atomic Insn.DW Insn.A_add r3 r2 0 ];
          Asm.ret 0l ] );
    ( "atomic with byte size rejected",
      Reject "atomic",
      Prog.Socket_filter,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.mov64_imm r2 2l;
            Insn.Atomic { sz = Insn.B; op = Insn.A_add; fetch = false;
                          dst = r6; src = r2; off = 0 } ];
          Asm.ret 0l ] );
    ( "endian of a pointer rejected",
      Reject "byte swap",
      Prog.Socket_filter,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Insn.Endian { swap = true; bits = 64; dst = r6 } ];
          Asm.ret 0l ] );
    ( "nested bounded loops",
      Accept,
      Prog.Socket_filter,
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r6 0l;
            (* outer: *)
            Asm.mov64_imm r7 0l;
            (* inner: *)
            Asm.alu64_imm Insn.Add r7 1l;
            Asm.jmp_imm Insn.Jlt r7 3l (-2);
            Asm.alu64_imm Insn.Add r6 1l;
            Asm.jmp_imm Insn.Jlt r6 3l (-5) ];
          Asm.ret 0l ] );
    ( "loop without progress rejected",
      Reject "infinite loop",
      Prog.Socket_filter,
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r6 0l;
            (* LOOP: the mask resets the counter every iteration *)
            Asm.alu64_imm Insn.Add r6 1l;
            Asm.alu64_imm Insn.And r6 0l;
            Asm.jmp_imm Insn.Jlt r6 2l (-3) ];
          Asm.ret 0l ] );
    ( "32-bit mov of pointer yields scalar",
      Reject "'scalar'",
      Prog.Socket_filter,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.mov32_reg r7 r6;
            Asm.ldx_b r2 r7 0 ];
          Asm.ret 0l ] );
    ( "div by zero is verifier-legal",
      Accept,
      Prog.Socket_filter,
      fun _ _ _ _ ->
        [ [ Asm.mov64_imm r2 7l; Asm.mov64_imm r3 0l;
            Asm.alu64_reg Insn.Div r2 r3;
            Asm.alu64_reg Insn.Mod r2 r3 ];
          Asm.ret 0l ] );
  ]

let extended_suite_tests =
  List.map
    (fun (name, expect, prog_type, build) ->
       Alcotest.test_case name `Quick
         (check_program ~prog_type name expect build))
    extended_cases

(* -- Unprivileged mode (paper section 2) -------------------------------- *)

let unpriv_config =
  Kconfig.make ~unprivileged:true Version.Bpf_next

let unpriv_cases =
  [
    ( "unpriv: socket filter ok",
      Accept,
      fun _ _ _ _ -> [ Asm.ret 0l ] );
    ( "unpriv: tracing prog type refused",
      Reject "requires CAP_BPF",
      fun _ _ _ _ -> [ Asm.ret 0l ] );
    ( "unpriv: BTF object load refused",
      Reject "CAP_BPF",
      fun _ _ _ _ -> [ [ Asm.ld_btf_obj r6 1 ]; Asm.ret 0l ] );
    ( "unpriv: pointer leak into map refused",
      Reject "leaks addr",
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.stx_dw r6 r6 8 ];
          Asm.ret 0l ] );
    ( "unpriv: pointer comparison refused",
      Reject "pointer comparison",
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.ld_map_value r7 array 8;
            Asm.jmp_reg Insn.Jgt r6 r7 0 ];
          Asm.ret 0l ] );
    ( "unpriv: null check still allowed",
      Accept,
      fun hash _ _ _ ->
        [ [ Asm.st_dw r10 (-8) 0l;
            Asm.ld_map_fd r1 hash;
            Asm.mov64_reg r2 r10;
            Asm.alu64_imm Insn.Add r2 (-8l);
            Asm.call 1;
            Asm.jmp_imm Insn.Jne r0 0l 2;
            Asm.mov64_imm r0 0l;
            Asm.exit_;
            Asm.st_dw r0 0 1l ];
          Asm.ret 0l ] );
    ( "unpriv: pointer spill to stack allowed",
      Accept,
      fun _ array _ _ ->
        [ [ Asm.ld_map_value r6 array 0;
            Asm.stx_dw r10 r6 (-8);
            Asm.ldx_dw r7 r10 (-8);
            Asm.st_w r7 0 1l ];
          Asm.ret 0l ] );
  ]

let unpriv_suite_tests =
  List.map
    (fun (name, expect, build) ->
       let prog_type =
         if name = "unpriv: tracing prog type refused" then Prog.Kprobe
         else Prog.Socket_filter
       in
       Alcotest.test_case name `Quick
         (check_program ~config:unpriv_config ~prog_type name expect build))
    unpriv_cases

let program_suite_tests =
  List.map
    (fun (name, expect, build) ->
       Alcotest.test_case name `Quick (check_program name expect build))
    suite_cases

(* -- Patch / sanitize ------------------------------------------------------- *)

let test_patch_retarget () =
  let insns =
    [| Asm.jmp_imm Insn.Jeq r1 0l 1;
       Asm.mov64_imm r6 1l;
       Asm.mov64_imm r0 0l;
       Asm.exit_ |]
  in
  let aux = Array.init 4 (fun _ -> Venv.fresh_aux ()) in
  (* triple the mov at index 1 *)
  let out, _ =
    Patch.expand ~insns ~aux ~f:(fun i insn _ ->
        if i = 1 then
          Some [ Asm.mov64_imm r7 0l; Asm.mov64_imm r7 1l; insn ]
        else None)
  in
  Alcotest.(check int) "expanded" 6 (Array.length out);
  match out.(0) with
  | Insn.Jmp { off; _ } ->
    (* original target was index 2 (mov r0), now index 4 *)
    Alcotest.(check int) "retargeted" 3 off
  | _ -> Alcotest.fail "first insn changed kind"

let test_sanitizer_skips () =
  (* R10-direct accesses are skipped, others instrumented *)
  let kst, _, array_fd, _, _ = fresh_kst () in
  let insns =
    Asm.prog
      [ [ Asm.st_dw r10 (-8) 1l;
          Asm.ld_map_value r6 array_fd 0;
          Asm.st_dw r6 0 1l ];
        Asm.ret 0l ]
  in
  match
    Verifier.load kst ~cov:(Coverage.create ())
      (Verifier.request Prog.Socket_filter insns)
  with
  | Error e -> Alcotest.fail e.Venv.vmsg
  | Ok loaded ->
    let asan_calls =
      Array.fold_left
        (fun acc i ->
           match i with
           | Insn.Call (Insn.Helper id) when id >= Helper.asan_base ->
             acc + 1
           | _ -> acc)
        0 loaded.Verifier.l_insns
    in
    Alcotest.(check int) "exactly one guarded access" 1 asan_calls

(* The reserved-instruction and map-fd checks share one pass over the
   program but refuse in the kernel's order: a reserved register
   anywhere beats a bad fd before it, the lowest bad fd wins, and each
   pc's fd decides EBADF (no map) or EINVAL (no direct value access). *)
let test_precheck_order () =
  let kst, hash_fd, array_fd, _, _ = fresh_kst () in
  let exit0 = Asm.mov64_imm Insn.R0 0l and exit_ = Asm.exit_ in
  let refused name insns errno pc msg =
    match
      Verifier.verify kst ~cov:(Coverage.create ())
        (Verifier.request Prog.Socket_filter (Array.of_list insns))
    with
    | Ok () -> Alcotest.failf "%s: accepted" name
    | Error e ->
      Alcotest.(check bool) (name ^ ": errno") true (e.Venv.errno = errno);
      Alcotest.(check int) (name ^ ": pc") pc e.Venv.vpc;
      Alcotest.(check string) (name ^ ": message") msg e.Venv.vmsg
  in
  refused "reserved after a bad fd"
    [ Asm.ld_map_fd Insn.R1 999; Asm.mov64_reg Insn.R11 Insn.R1; exit0;
      exit_ ]
    Venv.EINVAL 0 "program uses reserved register or helper";
  refused "two bad fds"
    [ exit0; Asm.ld_map_fd Insn.R1 998; Asm.ld_map_fd Insn.R2 999; exit_ ]
    Venv.EBADF 1 "fd 998 is not a map";
  refused "value access before a bad fd"
    [ Asm.ld_map_value Insn.R1 hash_fd 0; Asm.ld_map_fd Insn.R2 999; exit0;
      exit_ ]
    Venv.EINVAL 0
    (Printf.sprintf "map fd %d does not support direct value access" hash_fd);
  refused "bad fd before a value access"
    [ Asm.ld_map_value Insn.R1 999 0; Asm.ld_map_value Insn.R2 hash_fd 0;
      exit0; exit_ ]
    Venv.EBADF 0 "fd 999 is not a map";
  refused "array value access, then a bad fd"
    [ Asm.ld_map_value Insn.R1 array_fd 0; Asm.ld_map_fd Insn.R2 997; exit0;
      exit_ ]
    Venv.EBADF 1 "fd 997 is not a map"

(* -- Entry paths ------------------------------------------------------------- *)

(* load, verify and lint refuse a program before analysis through one
   path: the same errno and message from all three *)
let test_entry_paths_agree () =
  let exit0 = Asm.mov64_imm Insn.R0 0l and exit_ = Asm.exit_ in
  let cases =
    [ ("empty", [||], Venv.EINVAL, "empty program");
      ( "oversized",
        Array.make (Prog.max_insns + 1) exit0,
        Venv.E2BIG,
        Printf.sprintf "program too large (%d insns)" (Prog.max_insns + 1) );
      ( "reserved register",
        [| Asm.mov64_reg Insn.R11 Insn.R1; exit0; exit_ |],
        Venv.EINVAL,
        "program uses reserved register or helper" ) ]
  in
  List.iter
    (fun (name, insns, errno, msg) ->
       let req = Verifier.request Prog.Socket_filter insns in
       let check path = function
         | Ok () -> Alcotest.failf "%s: %s accepted" name path
         | Error e ->
           Alcotest.(check bool)
             (Printf.sprintf "%s: %s errno" name path)
             true (e.Venv.errno = errno);
           Alcotest.(check string)
             (Printf.sprintf "%s: %s message" name path)
             msg e.Venv.vmsg
       in
       let kst, _, _, _, _ = fresh_kst () in
       let cov = Coverage.create () in
       check "load" (Result.map ignore (Verifier.load kst ~cov req));
       check "verify" (Verifier.verify kst ~cov req);
       let verdict, _, _ = Verifier.lint kst ~cov req in
       check "lint" verdict)
    cases

(* -- Reasons that depend on a value ------------------------------------------ *)

(* Two reject sites name a reason computed from a value: a variable
   offset names the kind of object it points into, and a failed stack
   read names the way it failed.  One program per reachable branch. *)

let check_reason (want : Reject_reason.t) (want_msg : string)
    (build : Insn.t list list) () =
  let kst, _, _, _, _ = fresh_kst () in
  let req = Verifier.request Prog.Socket_filter (Asm.prog build) in
  match Verifier.verify kst ~cov:(Coverage.create ()) req with
  | Ok () -> Alcotest.failf "%s: accepted" want_msg
  | Error e ->
    Alcotest.(check string) "message" want_msg e.Venv.vmsg;
    Alcotest.(check string) "reason" (Reject_reason.to_string want)
      (Reject_reason.to_string e.Venv.vreason)

(* R3 = skb->len & 7: a bounded scalar the verifier does not know *)
let unknown_r3 = [ Asm.ldx_w r3 r1 0; Asm.alu64_imm Insn.And r3 7l ]

let variable_stack =
  check_reason Reject_reason.Bad_ptr_arith "variable stack access prohibited"
    [ unknown_r3;
      [ Asm.mov64_reg r2 r10;
        Asm.alu64_imm Insn.Add r2 (-16l);
        Asm.alu64_reg Insn.Add r2 r3;
        Asm.ldx_b r0 r2 0 ];
      Asm.ret 0l ]

let variable_btf =
  check_reason Reject_reason.Bad_ptr_arith "variable btf access prohibited"
    [ unknown_r3;
      [ Asm.ld_btf_obj r6 1;
        Asm.alu64_reg Insn.Add r6 r3;
        Asm.ldx_b r0 r6 0 ];
      Asm.ret 0l ]

let uninit_stack_read =
  check_reason Reject_reason.Uninit_access "invalid read from stack at fp-8"
    [ [ Asm.ldx_dw r0 r10 (-8) ]; Asm.ret 0l ]

(* [Check_mem.check_stack] rejects an offset off the stack before it
   reads, so no program reaches this branch; a variable ctx offset is
   unreachable too, since pointer arithmetic on ctx is rejected first. *)
let stack_read_out_of_range () =
  let f = Vstate.new_frame ~frameno:0 ~callsite:(-1) in
  match Vstate.stack_read f ~off:8 ~size:8 with
  | Ok _ -> Alcotest.fail "read above the frame succeeded"
  | Error (reason, msg) ->
    Alcotest.(check string) "message" "stack offset out of range" msg;
    Alcotest.(check string) "reason"
      (Reject_reason.to_string Reject_reason.Oob_access)
      (Reject_reason.to_string reason)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_verifier"
    [
      ( "tnum",
        [ Alcotest.test_case "basics" `Quick test_tnum_basics;
          qt tnum_add_sound; qt tnum_sub_sound; qt tnum_and_sound;
          qt tnum_or_sound; qt tnum_xor_sound; qt tnum_mul_sound;
          qt tnum_shift_sound; qt tnum_range_sound;
          qt tnum_intersect_sound ] );
      ( "regstate",
        [ Alcotest.test_case "const" `Quick test_regstate_const;
          Alcotest.test_case "sync deduce" `Quick
            test_regstate_sync_deduce;
          Alcotest.test_case "bottom" `Quick test_regstate_bottom;
          Alcotest.test_case "within" `Quick test_regstate_within;
          Alcotest.test_case "truncate32" `Quick
            test_regstate_truncate32 ] );
      ( "vstate",
        [ Alcotest.test_case "spill/fill" `Quick test_stack_spill_fill;
          Alcotest.test_case "zero tracking" `Quick
            test_stack_zero_tracking;
          Alcotest.test_case "init region" `Quick
            test_stack_initialized_region ] );
      ( "branches", [ qt verdict_sound; qt refine_sound ] );
      ("programs", program_suite_tests);
      ("extended", extended_suite_tests);
      ("unprivileged", unpriv_suite_tests);
      ( "rewrites",
        [ Alcotest.test_case "patch retarget" `Quick test_patch_retarget;
          Alcotest.test_case "sanitize skip list" `Quick
            test_sanitizer_skips ] );
      ( "entry",
        [ Alcotest.test_case "load, verify, lint agree" `Quick
            test_entry_paths_agree;
          Alcotest.test_case "precheck refusal order" `Quick
            test_precheck_order ] );
      ( "site reasons",
        [ Alcotest.test_case "variable stack offset" `Quick variable_stack;
          Alcotest.test_case "variable btf offset" `Quick variable_btf;
          Alcotest.test_case "uninitialized stack read" `Quick
            uninit_stack_read;
          Alcotest.test_case "stack read off the frame" `Quick
            stack_read_out_of_range ] );
    ]
