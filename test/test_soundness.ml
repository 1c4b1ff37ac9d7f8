(* Abstract-interpretation soundness properties.

   These are the load-bearing invariants of the whole reproduction:

   1. ALU transfer functions: for any abstract scalar states and any
      concrete members, the concrete result of an operation is a member
      of the abstract result (no under-approximation, which would let
      the verifier accept memory-unsafe programs and produce false
      correctness-bug reports).

   2. End-to-end oracle soundness: any structured program the FIXED
      verifier accepts executes without raising a single kernel report.
      This is exactly why a report from an accepted program can be
      blamed on the verifier (the paper's core argument). *)

module Word = Bvf_ebpf.Word
module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Helper = Bvf_ebpf.Helper
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Map = Bvf_kernel.Map
module Report = Bvf_kernel.Report
module Failslab = Bvf_kernel.Failslab
module Tnum = Bvf_verifier.Tnum
module Regstate = Bvf_verifier.Regstate
module Check_alu = Bvf_verifier.Check_alu
module Check_jmp = Bvf_verifier.Check_jmp
module Invariants = Bvf_verifier.Invariants
module Witness = Bvf_verifier.Witness
module Verifier = Bvf_verifier.Verifier
module Loader = Bvf_runtime.Loader
module Exec = Bvf_runtime.Exec
module Rng = Bvf_core.Rng
module Gen = Bvf_core.Gen
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Oracle = Bvf_core.Oracle
module Selftests = Bvf_core.Selftests

(* -- Membership ------------------------------------------------------------ *)

let member (r : Regstate.t) (x : int64) : bool =
  Regstate.is_scalar r
  && r.Regstate.smin <= x
  && x <= r.Regstate.smax
  && Word.ule r.Regstate.umin x
  && Word.ule x r.Regstate.umax
  && Tnum.contains r.Regstate.var_off x

(* Generate an abstract scalar together with one of its members. *)
let gen_abstract : (Regstate.t * int64) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let concrete =
    oneof
      [ map Int64.of_int (int_range (-1000) 1000);
        oneofl Rng.interesting_int64;
        map Int64.of_int int ]
  in
  let* x = concrete in
  let* shape = int_range 0 4 in
  match shape with
  | 0 -> return (Regstate.const_scalar x, x)
  | 1 ->
    (* an unsigned interval around x *)
    let* above = map Int64.of_int (int_range 0 4096) in
    let* below = map Int64.of_int (int_range 0 4096) in
    let lo = if Word.ult x below then 0L else Int64.sub x below in
    let hi =
      if Word.ult (Int64.add x above) x then -1L else Int64.add x above
    in
    return (Regstate.scalar_range ~umin:lo ~umax:hi, x)
  | 2 ->
    (* tnum knowledge: some bits of x known *)
    let* mask = map Int64.of_int (int_range 0 0xFFFFFF) in
    let t = { Tnum.value = Int64.logand x (Int64.lognot mask); mask } in
    return (Regstate.scalar_of_tnum t, x)
  | 3 -> return (Regstate.unknown_scalar, x)
  | _ ->
    (* umax at a left-shift overflow edge, U64_MAX lsr sh and its
       neighbours: shifting by sh keeps umax exactly when umax is at
       most the edge, so a window below it mixes members whose images
       wrap with members whose images do not *)
    let* sh = int_range 1 63 in
    let* d = int_range (-1) 1 in
    let* w = oneofl [ 0L; 1L; 0xFFFL; 0xFFFF_FFFFL ] in
    let umax = Int64.add (Word.shr64 (-1L) (Int64.of_int sh)) (Int64.of_int d) in
    let umin = if Word.ult umax w then 0L else Int64.sub umax w in
    let* x = oneofl [ umin; umax ] in
    return (Regstate.scalar_range ~umin ~umax, x)

let alu_ops =
  [ (Insn.Add, Int64.add);
    (Insn.Sub, fun a b -> Int64.sub a b);
    (Insn.Mul, fun a b -> Int64.mul a b);
    (Insn.Div, Word.udiv);
    (Insn.Mod, Word.umod);
    (Insn.Or, Int64.logor);
    (Insn.And, Int64.logand);
    (Insn.Xor, Int64.logxor);
    (Insn.Lsh, Word.shl64);
    (Insn.Rsh, Word.shr64);
    (Insn.Arsh, Word.ashr64);
    (Insn.Mov, fun _ b -> b) ]

let alu64_abstract_sound =
  QCheck2.Test.make ~count:3000 ~name:"alu64 transfer functions sound"
    QCheck2.Gen.(triple (int_range 0 11) gen_abstract gen_abstract)
    (fun (opi, (ra, a), (rb, b)) ->
       let op, concrete = List.nth alu_ops opi in
       let abstract = Check_alu.scalar_op64 op ra rb in
       let result = concrete a b in
       if member abstract result then true
       else
         QCheck2.Test.fail_reportf
           "%s: %Ld op %Ld = %Ld not in %s (from %s, %s)"
           (Insn.alu_op_to_string op) a b result
           (Regstate.to_string abstract)
           (Regstate.to_string ra) (Regstate.to_string rb))

let alu32_abstract_sound =
  QCheck2.Test.make ~count:3000 ~name:"alu32 transfer functions sound"
    QCheck2.Gen.(triple (int_range 0 11) gen_abstract gen_abstract)
    (fun (opi, (ra, a), (rb, b)) ->
       let op, concrete = List.nth alu_ops opi in
       (* concrete 32-bit semantics: low words, zero-extended *)
       let result =
         match op with
         | Insn.Lsh -> Word.shl32 a b
         | Insn.Rsh -> Word.shr32 (Word.to_u32 a) b
         | Insn.Arsh -> Word.ashr32 a b
         | Insn.Div -> Word.to_u32 (Word.udiv (Word.to_u32 a) (Word.to_u32 b))
         | Insn.Mod -> Word.to_u32 (Word.umod (Word.to_u32 a) (Word.to_u32 b))
         | _ -> Word.to_u32 (concrete (Word.to_u32 a) (Word.to_u32 b))
       in
       let abstract = Check_alu.scalar_op32 op ra rb in
       if member abstract result then true
       else
         QCheck2.Test.fail_reportf
           "w%s: %Ld op %Ld = %Ld not in %s"
           (Insn.alu_op_to_string op) a b result
           (Regstate.to_string abstract))

let neg_abstract_sound =
  QCheck2.Test.make ~count:1000 ~name:"neg transfer function sound"
    gen_abstract
    (fun (r, x) ->
       member (Check_alu.scalar_op64 Insn.Neg r r) (Int64.neg x))

(* -- Word-boundary ALU soundness ------------------------------------------- *)

(* The kernel's scalar_mul guard exists for operands at the 32/64-bit
   word edges: both factors fit in 32 bits, so the unsigned product is
   exact, but it can still exceed S64_MAX and must not be copied into
   the signed bounds.  Anchor abstract operands at those edges. *)
let gen_boundary : (Regstate.t * int64) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let anchors =
    [ 0L; 1L; 2L; 3L; 0x7FFF_FFFFL; 0x8000_0000L; 0x8000_0001L;
      0xFFFF_FFFEL; 0xFFFF_FFFFL; 0x1_0000_0000L; 0x1_0000_0001L;
      0x7FFF_FFFF_FFFF_FFFEL; Int64.max_int; Int64.min_int; -2L; -1L ]
  in
  let* x = oneofl anchors in
  let* shape = int_range 0 2 in
  match shape with
  | 0 -> return (Regstate.const_scalar x, x)
  | 1 ->
    (* a narrow unsigned window starting at the anchor *)
    let* w = oneofl [ 1L; 0xFFL; 0xFFFFL; 0xFFFF_FFFFL ] in
    let hi = Int64.add x w in
    let hi = if Word.ult hi x then -1L (* wrapped: open to U64_MAX *) else hi in
    return (Regstate.scalar_range ~umin:x ~umax:hi, x)
  | _ -> return (Regstate.unknown_scalar, x)

let mul_boundary_sound =
  QCheck2.Test.make ~count:3000 ~name:"mul sound at word boundaries"
    QCheck2.Gen.(pair gen_boundary gen_boundary)
    (fun ((ra, a), (rb, b)) ->
       let r64 = Check_alu.scalar_op64 Insn.Mul ra rb in
       let p64 = Int64.mul a b in
       let r32 = Check_alu.scalar_op32 Insn.Mul ra rb in
       let p32 = Word.to_u32 (Int64.mul (Word.to_u32 a) (Word.to_u32 b)) in
       if member r64 p64 && member r32 p32 then true
       else
         QCheck2.Test.fail_reportf
           "mul: %Ld * %Ld: 64-bit %Ld in %s = %b, 32-bit %Ld in %s = %b"
           a b p64 (Regstate.to_string r64) (member r64 p64)
           p32 (Regstate.to_string r32) (member r32 p32))

let shift_boundary_sound =
  QCheck2.Test.make ~count:3000 ~name:"shifts sound at word boundaries"
    QCheck2.Gen.(triple (int_range 0 2) gen_boundary (int_range 0 63))
    (fun (opi, (ra, a), sh) ->
       let op = List.nth [ Insn.Lsh; Insn.Rsh; Insn.Arsh ] opi in
       let s = Int64.of_int sh in
       let rs = Regstate.const_scalar s in
       let c64 =
         match op with
         | Insn.Lsh -> Word.shl64 a s
         | Insn.Rsh -> Word.shr64 a s
         | _ -> Word.ashr64 a s
       in
       let c32 =
         match op with
         | Insn.Lsh -> Word.shl32 a s
         | Insn.Rsh -> Word.shr32 (Word.to_u32 a) s
         | _ -> Word.ashr32 a s
       in
       let r64 = Check_alu.scalar_op64 op ra rs in
       let r32 = Check_alu.scalar_op32 op ra rs in
       if member r64 c64 && member r32 c32 then true
       else
         QCheck2.Test.fail_reportf
           "%s: %Ld shift %d: 64-bit %Ld in %s = %b, 32-bit %Ld in %s = %b"
           (Insn.alu_op_to_string op) a sh c64 (Regstate.to_string r64)
           (member r64 c64) c32 (Regstate.to_string r32) (member r32 c32))

(* Regression for the scalar_mul S64 overflow bug: with both operands in
   [0, U32_MAX] the unsigned product U32_MAX * U32_MAX is exact but
   >= 2^63, i.e. negative as a signed value — the transfer function must
   fall back to unbounded signed range instead of claiming smin = 0
   (the kernel's adjust_scalar_min_max_vals BPF_MUL guard). *)
let test_mul_overflow_regression () =
  let a = Regstate.scalar_range ~umin:0L ~umax:0xFFFF_FFFFL in
  let r = Check_alu.scalar_op64 Insn.Mul a a in
  let product = Int64.mul 0xFFFF_FFFFL 0xFFFF_FFFFL in
  Alcotest.(check bool)
    (Printf.sprintf "U32_MAX^2 = %Ld is a member of %s" product
       (Regstate.to_string r))
    true (member r product);
  Alcotest.(check bool) "no smin = 0 claim" true (r.Regstate.smin < 0L);
  Alcotest.(check int64) "unsigned product still exact" product
    r.Regstate.umax

(* Regression for the scalar_shift per-bound overflow: a 64-bit left
   shift checked each bound on its own, so when [umax] overflowed (and
   went to U64_MAX) but [umin] did not, [umin]'s image survived as a
   lower bound and [sync] narrowed the result to one constant, which a
   wrapped member falls outside of.  The kernel's scalar_min_max_lsh
   drops both bounds.  The first case is the one
   [QCHECK_SEED=491947352] drew (the shift operand masks to 33), the
   second a random-seed failure of the alu64 property (-265 masks to
   55). *)
let test_lsh_overflow_regression () =
  List.iter
    (fun (umin, umax, sh) ->
       let d = Regstate.scalar_range ~umin ~umax in
       let r = Check_alu.scalar_op64 Insn.Lsh d (Regstate.const_scalar sh) in
       List.iter
         (fun x ->
            let c = Word.shl64 x sh in
            Alcotest.(check bool)
              (Printf.sprintf "[%Lu, %Lu] << %Ld: %Ld is a member of %s"
                 umin umax (Int64.logand sh 63L) c (Regstate.to_string r))
              true (member r c))
         [ umin; umax ];
       (* only the tnum is left to bound the result *)
       Alcotest.(check int64) "umin dropped" 0L r.Regstate.umin)
    [ (2147483647L, 2147483648L, 2514669341423940257L);
      (511L, 4096L, -265L) ]

(* A shift that overflows no member keeps both shifted bounds. *)
let test_lsh_safe_bounds () =
  let d = Regstate.scalar_range ~umin:2L ~umax:10L in
  let r = Check_alu.scalar_op64 Insn.Lsh d (Regstate.const_scalar 3L) in
  Alcotest.(check int64) "umin" 16L r.Regstate.umin;
  Alcotest.(check int64) "umax" 80L r.Regstate.umax;
  let edge = Word.shr64 (-1L) 33L in
  let d = Regstate.scalar_range ~umin:(Int64.sub edge 1L) ~umax:edge in
  let r = Check_alu.scalar_op64 Insn.Lsh d (Regstate.const_scalar 33L) in
  Alcotest.(check int64) "umax at the edge still shifts"
    (Int64.shift_left edge 33) r.Regstate.umax

(* Per-bound overflow sweep.  A transfer function that decides overflow
   for each bound separately is unsound where one bound's image wraps
   and the other's does not.  Both operands are windows at the edges
   U64_MAX lsr k (k = 0 is U64_MAX, 1 is S64_MAX, 32 is U32_MAX, 63 is
   1) and their neighbours; a shift's amount is drawn with its edge
   half of the time. *)
let gen_edge_operand (k : int) : (Regstate.t * int64) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* d = int_range (-1) 1 in
  let e = Int64.add (Word.shr64 (-1L) (Int64.of_int k)) (Int64.of_int d) in
  let* below = oneofl [ 0L; 1L; 0xFFFL; 0xFFFF_FFFFL ] in
  let* above = oneofl [ 0L; 1L; 0xFFFL ] in
  let lo = if Word.ult e below then 0L else Int64.sub e below in
  let hi = if Word.ult (Int64.add e above) e then -1L else Int64.add e above in
  let* x = oneofl [ lo; e; hi ] in
  return (Regstate.scalar_range ~umin:lo ~umax:hi, x)

let per_bound_overflow_sound =
  QCheck2.Test.make ~count:4000
    ~name:"add/sub/mul/lsh sound at per-bound overflow edges"
    QCheck2.Gen.(
      let* opi = int_range 0 3 in
      let* sh = int_range 0 63 in
      let* ka = oneof [ return sh; int_range 0 63 ] in
      let* a = gen_edge_operand ka in
      let* b =
        if opi = 3 then
          return (Regstate.const_scalar (Int64.of_int sh), Int64.of_int sh)
        else oneof [ int_range 0 63 >>= gen_edge_operand; gen_boundary ]
      in
      return (opi, a, b))
    (fun (opi, (ra, a), (rb, b)) ->
       let op, concrete =
         List.nth
           [ (Insn.Add, Int64.add); (Insn.Sub, Int64.sub);
             (Insn.Mul, Int64.mul); (Insn.Lsh, Word.shl64) ]
           opi
       in
       let abstract = Check_alu.scalar_op64 op ra rb in
       let result = concrete a b in
       if member abstract result then true
       else
         QCheck2.Test.fail_reportf "%s: %Ld op %Ld = %Ld not in %s (from %s, %s)"
           (Insn.alu_op_to_string op) a b result
           (Regstate.to_string abstract)
           (Regstate.to_string ra) (Regstate.to_string rb))

(* And the safe case keeps the kernel's tight bounds: product below
   S64_MAX, so signed bounds mirror the unsigned ones. *)
let test_mul_safe_bounds () =
  let d = Regstate.scalar_range ~umin:2L ~umax:10L in
  let s = Regstate.scalar_range ~umin:3L ~umax:7L in
  let r = Check_alu.scalar_op64 Insn.Mul d s in
  Alcotest.(check int64) "umin" 6L r.Regstate.umin;
  Alcotest.(check int64) "umax" 70L r.Regstate.umax;
  Alcotest.(check int64) "smin = umin" 6L r.Regstate.smin;
  Alcotest.(check int64) "smax = umax" 70L r.Regstate.smax

(* sync never drops members *)
let sync_preserves_members =
  QCheck2.Test.make ~count:2000 ~name:"bounds sync preserves members"
    gen_abstract
    (fun (r, x) -> member (Regstate.sync r) x)

(* truncate32 contains the zero-extended member *)
let truncate_sound =
  QCheck2.Test.make ~count:2000 ~name:"truncate32 sound"
    gen_abstract
    (fun (r, x) -> member (Regstate.truncate32 r) (Word.to_u32 x))

(* -- End-to-end oracle soundness ------------------------------------------- *)

(* Structured programs accepted by the FIXED verifier never raise a
   report at runtime: the foundation of "any report from an accepted
   program is a verifier bug". *)
let oracle_soundness =
  QCheck2.Test.make ~count:400 ~name:"fixed kernel: accepted => clean run"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
       let session = Loader.create (Kconfig.fixed Version.Bpf_next) in
       let maps = Campaign.standard_maps session in
       let cfg = { Gen.c_version = Version.Bpf_next; Gen.c_maps = maps } in
       let rng = Rng.create seed in
       let req = Gen.generate rng cfg in
       match Loader.load_and_run session req with
       | { Loader.verdict = Error _; _ } -> true (* rejected: vacuous *)
       | { Loader.verdict = Ok _; reports = []; _ } -> true
       | { Loader.verdict = Ok _; reports; _ } ->
         QCheck2.Test.fail_reportf
           "accepted program raised: %s\n%s"
           (String.concat "; "
              (List.map Bvf_kernel.Report.to_string reports))
           (Bvf_ebpf.Disasm.prog_to_string req.Verifier.r_insns))

(* The mirror property for mutants: whatever mutation does, the fixed
   kernel never lets a report-raising program through. *)
let oracle_soundness_mutants =
  QCheck2.Test.make ~count:300 ~name:"fixed kernel: mutants too"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
       let session = Loader.create (Kconfig.fixed Version.Bpf_next) in
       let maps = Campaign.standard_maps session in
       let cfg = { Gen.c_version = Version.Bpf_next; Gen.c_maps = maps } in
       let rng = Rng.create seed in
       let req = Gen.generate rng cfg in
       let req = Bvf_core.Mutate.mutate_request rng ~version:Version.Bpf_next req in
       match Loader.load_and_run session req with
       | { Loader.verdict = Error _; _ } -> true
       | { Loader.verdict = Ok _; reports = []; _ } -> true
       | { Loader.verdict = Ok _; reports; _ } ->
         QCheck2.Test.fail_reportf "mutant raised: %s"
           (String.concat "; "
              (List.map Bvf_kernel.Report.to_string reports)))

(* Decode of an encode of an accepted program is accepted with the same
   verdict: the wire format round-trip composes with verification. *)
let encode_verify_consistent =
  QCheck2.Test.make ~count:200 ~name:"encode/decode preserves verdict"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
       let session = Loader.create (Kconfig.fixed Version.Bpf_next) in
       let maps = Campaign.standard_maps session in
       let cfg = { Gen.c_version = Version.Bpf_next; Gen.c_maps = maps } in
       let rng = Rng.create seed in
       let req = Gen.generate rng cfg in
       let cov = Bvf_verifier.Coverage.create () in
       let direct = Verifier.verify session.Loader.kst ~cov req in
       match Bvf_ebpf.Encode.decode (Bvf_ebpf.Encode.encode req.Verifier.r_insns) with
       | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e.Bvf_ebpf.Encode.reason
       | Ok insns ->
         let roundtrip =
           Verifier.verify session.Loader.kst ~cov
             { req with Verifier.r_insns = insns }
         in
         Result.is_ok direct = Result.is_ok roundtrip)

(* -- Tnum properties at Int64 boundaries ------------------------------------ *)

let int64_anchors =
  [ 0L; 1L; 2L; 7L; 0x7FL; 0xFFL; 0xFFFFL; 0x7FFF_FFFFL; 0x8000_0000L;
    0xFFFF_FFFFL; 0x1_0000_0000L; 0x7FFF_FFFF_FFFF_FFFEL; Int64.max_int;
    Int64.min_int; Int64.add Int64.min_int 1L; -1L; -2L; -4096L ]

let gen_int64_boundary : int64 QCheck2.Gen.t =
  QCheck2.Gen.(
    oneof
      [ oneofl int64_anchors;
        map Int64.of_int int;
        (* wiggle around the anchors to probe wraparound *)
        map2
          (fun a d -> Int64.add a (Int64.of_int d))
          (oneofl int64_anchors) (int_range (-2) 2) ])

(* A tnum together with one of its members: fix the bits outside [mask]
   to the member's bits. *)
let gen_tnum_member : (Tnum.t * int64) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* x = gen_int64_boundary in
  let* mask =
    oneof
      [ oneofl
          [ 0L; 1L; 0xFFL; 0xFF00L; 0xFFFF_FFFFL; Int64.min_int; -1L;
            0x8000_0000_0000_000FL ];
        map Int64.of_int int ]
  in
  return ({ Tnum.value = Int64.logand x (Int64.lognot mask); mask }, x)

let tnum_member_bounds =
  QCheck2.Test.make ~count:3000 ~long_factor:10 ~name:"tnum umin/umax bracket members"
    gen_tnum_member
    (fun (t, x) ->
       Tnum.contains t x
       && Word.ule (Tnum.umin t) x
       && Word.ule x (Tnum.umax t))

let tnum_range_sound =
  QCheck2.Test.make ~count:3000 ~long_factor:10 ~name:"tnum_range covers its interval"
    QCheck2.Gen.(triple gen_int64_boundary gen_int64_boundary
                   gen_int64_boundary)
    (fun (a, b, c) ->
       let min, max = if Word.ule a b then (a, b) else (b, a) in
       let t = Tnum.range ~min ~max in
       Tnum.contains t min && Tnum.contains t max
       && Word.ule (Tnum.umin t) min
       && Word.uge (Tnum.umax t) max
       && (if Word.ule min c && Word.ule c max then Tnum.contains t c
           else true))

let tnum_subset_sound =
  QCheck2.Test.make ~count:3000 ~long_factor:10 ~name:"tnum subset agrees with refinement"
    QCheck2.Gen.(pair gen_tnum_member (map Int64.of_int int))
    (fun ((ta, x), r) ->
       (* tb fixes some of ta's unknown bits to x's values: a refinement *)
       let m' = Int64.logand ta.Tnum.mask r in
       let tb = { Tnum.value = Int64.logand x (Int64.lognot m'); mask = m' } in
       Tnum.subset ~of_:ta ta
       && Tnum.subset ~of_:ta tb
       && Tnum.contains ta x && Tnum.contains tb x)

let tnum_meet_join_sound =
  QCheck2.Test.make ~count:3000 ~long_factor:10 ~name:"tnum intersect/union sound"
    QCheck2.Gen.(triple gen_tnum_member gen_tnum_member
                   (map Int64.of_int int))
    (fun ((ta, a), (tb, b), r) ->
       (* two abstractions of the same value: their meet keeps it *)
       let m' = Int64.logand ta.Tnum.mask r in
       let ta' = { Tnum.value = Int64.logand a (Int64.lognot m'); mask = m' } in
       Tnum.contains (Tnum.intersect ta ta') a
       && Tnum.contains (Tnum.union ta tb) a
       && Tnum.contains (Tnum.union ta tb) b)

let tnum_ops =
  [ ("add", Tnum.add, Int64.add);
    ("sub", Tnum.sub, Int64.sub);
    ("and", Tnum.and_, Int64.logand);
    ("or", Tnum.or_, Int64.logor);
    ("xor", Tnum.xor, Int64.logxor);
    ("mul", Tnum.mul, Int64.mul) ]

let tnum_ops_boundary_sound =
  QCheck2.Test.make ~count:4000 ~long_factor:10 ~name:"tnum binary ops sound at boundaries"
    QCheck2.Gen.(triple (int_range 0 5) gen_tnum_member gen_tnum_member)
    (fun (opi, (ta, a), (tb, b)) ->
       let name, fa, fc = List.nth tnum_ops opi in
       let t = fa ta tb and c = fc a b in
       if Tnum.contains t c then true
       else
         QCheck2.Test.fail_reportf "tnum %s: %Ld op %Ld = %Ld not in %s"
           name a b c (Tnum.to_string t))

let tnum_shift_cast_sound =
  QCheck2.Test.make ~count:3000 ~long_factor:10 ~name:"tnum shifts and casts sound"
    QCheck2.Gen.(pair gen_tnum_member (int_range 0 63))
    (fun ((ta, a), k) ->
       let k64 = Int64.of_int k in
       Tnum.contains (Tnum.lshift ta k) (Word.shl64 a k64)
       && Tnum.contains (Tnum.rshift ta k) (Word.shr64 a k64)
       && Tnum.contains (Tnum.arshift ta k ~bits:64) (Word.ashr64 a k64)
       && Tnum.contains (Tnum.cast ta ~size:4) (Word.to_u32 a)
       && Tnum.contains (Tnum.cast ta ~size:2) (Int64.logand a 0xFFFFL)
       && Tnum.contains (Tnum.cast ta ~size:1) (Int64.logand a 0xFFL))

(* -- Widening at loop heads --------------------------------------------------- *)

(* Threshold sets harvested from arbitrary programs: any boundary
   constants, on top of the fixed base the module always includes. *)
let gen_threshold_consts : int64 list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 0 6) gen_int64_boundary)

(* Tnum widening is extensive (absorbs both arguments, hence their
   union) and idempotent: once [b] is absorbed, widening against it
   again changes nothing — the loop-head chain stabilizes. *)
let tnum_widen_sound =
  QCheck2.Test.make ~count:3000 ~long_factor:10
    ~name:"tnum widen absorbs both sides and stabilizes"
    QCheck2.Gen.(pair gen_tnum_member gen_tnum_member)
    (fun ((ta, a), (tb, b)) ->
       let w = Tnum.widen ta tb in
       Tnum.contains w a && Tnum.contains w b
       && Tnum.subset ~of_:w ta
       && Tnum.subset ~of_:w tb
       && Tnum.subset ~of_:w (Tnum.union ta tb)
       && Tnum.widen w tb = w)

(* Register widening under arbitrary thresholds: the result subsumes
   both inputs ([reg_within], the analyzer's pruning order) and keeps
   both concrete members; a second round against the same incoming
   state is the identity.  gen_abstract only builds sync-stable
   scalars, matching what the analyzer feeds the operator. *)
let reg_widen_sound =
  QCheck2.Test.make ~count:3000 ~long_factor:10
    ~name:"range widening absorbs both sides and stabilizes"
    QCheck2.Gen.(quad gen_threshold_consts bool gen_abstract gen_abstract)
    (fun (consts, force, (old_r, a), (cur_r, b)) ->
       let th = Regstate.mk_thresholds consts in
       match Regstate.widen ~th ~force ~old:old_r ~cur:cur_r with
       | None ->
         QCheck2.Test.fail_reportf "scalar pair refused to widen: %s / %s"
           (Regstate.to_string old_r) (Regstate.to_string cur_r)
       | Some w ->
         member w a && member w b
         && Regstate.reg_within ~old:w ~cur:old_r ~bug3:false
         && Regstate.reg_within ~old:w ~cur:cur_r ~bug3:false
         && (match Regstate.widen ~th ~force ~old:w ~cur:cur_r with
             | Some w' -> w' = w
             | None -> false))

(* -- Branch transfer functions (Check_jmp) ----------------------------------- *)

let conds =
  [ Insn.Jeq; Insn.Jne; Insn.Jgt; Insn.Jge; Insn.Jlt; Insn.Jle;
    Insn.Jsgt; Insn.Jsge; Insn.Jslt; Insn.Jsle; Insn.Jset ]

(* Mirror of the executor's eval_cond: zero-extend for unsigned and
   equality at 32 bits, sign-extend the low word for signed. *)
let eval_cond (op32 : bool) (cond : Insn.cond) (d : int64) (s : int64) :
  bool =
  let d, s = if op32 then (Word.to_u32 d, Word.to_u32 s) else (d, s) in
  let ds, ss = if op32 then (Word.sext32 d, Word.sext32 s) else (d, s) in
  match cond with
  | Insn.Jeq -> d = s
  | Insn.Jne -> d <> s
  | Insn.Jgt -> Word.ugt d s
  | Insn.Jge -> Word.uge d s
  | Insn.Jlt -> Word.ult d s
  | Insn.Jle -> Word.ule d s
  | Insn.Jsgt -> ds > ss
  | Insn.Jsge -> ds >= ss
  | Insn.Jslt -> ds < ss
  | Insn.Jsle -> ds <= ss
  | Insn.Jset -> Int64.logand d s <> 0L

let jmp_verdict_sound =
  QCheck2.Test.make ~count:6000 ~long_factor:10 ~name:"branch verdicts sound at both widths"
    QCheck2.Gen.(quad (int_range 0 10) bool gen_abstract gen_abstract)
    (fun (ci, op32, (rd, a), (rs, b)) ->
       let cond = List.nth conds ci in
       let holds = eval_cond op32 cond a b in
       match Check_jmp.branch_verdict_width ~op32 cond rd rs with
       | Check_jmp.Always when not holds ->
         QCheck2.Test.fail_reportf
           "%s%s: claimed Always but %Ld vs %Ld is false (%s vs %s)"
           (if op32 then "w-" else "") (Insn.cond_to_string cond) a b
           (Regstate.to_string rd) (Regstate.to_string rs)
       | Check_jmp.Never when holds ->
         QCheck2.Test.fail_reportf
           "%s%s: claimed Never but %Ld vs %Ld is true (%s vs %s)"
           (if op32 then "w-" else "") (Insn.cond_to_string cond) a b
           (Regstate.to_string rd) (Regstate.to_string rs)
       | _ -> true)

let jmp_refine_sound =
  QCheck2.Test.make ~count:6000
    ~name:"branch refinement keeps the concrete witnesses"
    QCheck2.Gen.(quad (int_range 0 10) bool gen_abstract gen_abstract)
    (fun (ci, op32, (rd, a), (rs, b)) ->
       let cond = List.nth conds ci in
       let holds = eval_cond op32 cond a b in
       let branch neg =
         let want = if neg then not holds else holds in
         if not want then true
         else
           match Check_jmp.refine_width ~op32 ~neg cond rd rs with
           | None ->
             QCheck2.Test.fail_reportf
               "%s%s neg=%b: claimed contradiction, but (%Ld, %Ld) \
                satisfies it"
               (if op32 then "w-" else "") (Insn.cond_to_string cond) neg a
               b
           | Some (rd', rs') ->
             if member rd' a && member rs' b then true
             else
               QCheck2.Test.fail_reportf
                 "%s%s neg=%b: refined away witness (%Ld, %Ld): %s / %s"
                 (if op32 then "w-" else "") (Insn.cond_to_string cond) neg
                 a b (Regstate.to_string rd') (Regstate.to_string rs')
       in
       branch false && branch true)

(* Regression: a 32-bit signed compare reads the low word sign-extended,
   so the zero-extended bounds of truncate32 must not be used as-is —
   0x8000_0000 is negative to w-Jsgt even though its u32 value is 2^31. *)
let test_jsgt32_sign_extension_regression () =
  let d = Regstate.const_scalar 0x8000_0000L in
  let s = Regstate.const_scalar 0L in
  (match Check_jmp.branch_verdict_width ~op32:true Insn.Jsgt d s with
   | Check_jmp.Never -> ()
   | Check_jmp.Always -> Alcotest.fail "w-Jsgt 0x80000000 > 0 claimed Always"
   | Check_jmp.Unknown -> ());
  (* and the 64-bit view still sees a positive value *)
  match Check_jmp.branch_verdict_width ~op32:false Insn.Jsgt d s with
  | Check_jmp.Always -> ()
  | _ -> Alcotest.fail "64-bit Jsgt 0x80000000 > 0 should be Always"

(* -- Invariant lint ----------------------------------------------------------- *)

let no_violations name r =
  let vs = Invariants.check_reg r in
  Alcotest.(check int)
    (Printf.sprintf "%s is well formed (%s)" name
       (String.concat ", "
          (List.map (fun (c, _) -> Invariants.check_to_string c) vs)))
    0 (List.length vs)

let has_violation name check r =
  Alcotest.(check bool)
    (Printf.sprintf "%s trips %s" name (Invariants.check_to_string check))
    true
    (List.exists (fun (c, _) -> c = check) (Invariants.check_reg r))

let test_invariants_clean_states () =
  no_violations "const 7" (Regstate.const_scalar 7L);
  no_violations "const -1" (Regstate.const_scalar (-1L));
  no_violations "unknown" Regstate.unknown_scalar;
  no_violations "range [3,9]" (Regstate.scalar_range ~umin:3L ~umax:9L);
  no_violations "tnum scalar"
    (Regstate.scalar_of_tnum { Tnum.value = 2L; mask = 5L });
  no_violations "not_init" Regstate.not_init;
  no_violations "ctx pointer" Regstate.ctx_pointer;
  no_violations "stack pointer" (Regstate.fp 0);
  no_violations "nullable ptr"
    (Regstate.pointer ~maybe_null:true ~id:3 Regstate.P_ctx)

let test_invariants_flag_corruption () =
  has_violation "umin > umax" Invariants.C_unsigned_order
    { (Regstate.const_scalar 5L) with Regstate.umax = 3L };
  has_violation "smin > smax" Invariants.C_signed_order
    { (Regstate.const_scalar 5L) with Regstate.smin = 6L };
  has_violation "tnum value&mask overlap" Invariants.C_tnum_wellformed
    { Regstate.unknown_scalar with
      Regstate.var_off = { Tnum.value = 1L; mask = 1L } };
  has_violation "32-bit tnum, 33-bit umax" Invariants.C_bounds32
    { (Regstate.const_scalar 5L) with Regstate.umax = 0x1_0000_0000L };
  has_violation "known-negative sign bit, smin >= 0" Invariants.C_sign_bit
    { (Regstate.const_scalar (-1L)) with Regstate.smin = 0L;
      smax = 0L };
  has_violation "stale bounds" Invariants.C_sync_stable
    { Regstate.unknown_scalar with Regstate.umin = 1L; umax = 2L;
      var_off = { Tnum.value = 0L; mask = 5L } };
  has_violation "nullable without id" Invariants.C_nullable_id
    (Regstate.pointer ~maybe_null:true Regstate.P_ctx)

(* The sync fixpoint regression the lint caught: one propagation round
   leaves var_off tighter than the unsigned range it implies. *)
let test_sync_fixpoint_regression () =
  let r =
    { Regstate.unknown_scalar with Regstate.umin = 1L; umax = 2L;
      var_off = { Tnum.value = 0L; mask = 5L } }
  in
  let s = Regstate.sync r in
  Alcotest.(check bool) "sync reaches a fixpoint" true
    (Regstate.equal_bounds s (Regstate.sync_round s));
  Alcotest.(check bool) "the only member survives" true (member s 1L);
  no_violations "post-sync state" s

(* -- Witness domain ----------------------------------------------------------- *)

let test_witness_domain () =
  let w v = Witness.of_reg v in
  let scalar5 = w (Regstate.const_scalar 5L) in
  Alcotest.(check bool) "const 5 contains 5" true
    (Witness.contains scalar5 5L);
  Alcotest.(check bool) "const 5 excludes 6" false
    (Witness.contains scalar5 6L);
  Alcotest.(check bool) "unknown scalar is top" true
    (Witness.contains (w Regstate.unknown_scalar) 0xDEADL);
  Alcotest.(check bool) "uninit is top" true
    (Witness.contains (w Regstate.not_init) 0L);
  let nonnull = w Regstate.ctx_pointer in
  Alcotest.(check bool) "non-null ptr excludes NULL page" false
    (Witness.contains nonnull 8L);
  Alcotest.(check bool) "non-null ptr admits mapped addresses" true
    (Witness.contains nonnull 0x1000L);
  Alcotest.(check bool) "maybe_null ptr is top (runtime may be NULL)" true
    (Witness.contains
       (w (Regstate.pointer ~maybe_null:true ~id:1 Regstate.P_ctx)) 0L);
  let j = Witness.join (w (Regstate.const_scalar 1L))
      (w (Regstate.const_scalar 5L)) in
  Alcotest.(check bool) "join keeps both members" true
    (Witness.contains j 1L && Witness.contains j 5L);
  Alcotest.(check bool) "join excludes off-hull values" false
    (Witness.contains j 7L)

let witness_join_sound =
  QCheck2.Test.make ~count:2000 ~long_factor:10 ~name:"witness join absorbs both sides"
    QCheck2.Gen.(pair gen_abstract gen_abstract)
    (fun ((ra, a), (rb, b)) ->
       let j = Witness.join (Witness.of_reg ra) (Witness.of_reg rb) in
       Witness.contains j a && Witness.contains j b)

let witness_of_reg_sound =
  QCheck2.Test.make ~count:2000 ~long_factor:10 ~name:"witness domain contains members"
    gen_abstract
    (fun (r, x) -> Witness.contains (Witness.of_reg r) x)

(* -- Clean verifier: zero lint, zero witness escapes -------------------------- *)

let test_clean_corpus_no_lint_no_witness () =
  let version = Version.Bpf_next in
  let config =
    Kconfig.with_witness (Kconfig.with_lint (Kconfig.fixed version) true)
      true
  in
  let suite = Selftests.build ~config version in
  let session = suite.Selftests.session in
  let cov = Bvf_verifier.Coverage.create () in
  let lint_total = ref 0 and witness_total = ref 0 and ran = ref 0 in
  List.iter
    (fun req ->
       let _, _, n = Verifier.lint session.Loader.kst ~cov req in
       lint_total := !lint_total + n;
       match Loader.load_and_run session req with
       | { Loader.verdict = Ok _; witness; reports = []; _ } ->
         incr ran;
         witness_total := !witness_total + List.length witness
       | { Loader.verdict = Ok _; reports = r :: _; _ } ->
         Alcotest.failf "selftest raised %s" (Report.to_string r)
       | { Loader.verdict = Error e; _ } ->
         Alcotest.failf "selftest rejected: %s" e.Bvf_verifier.Venv.vmsg)
    suite.Selftests.requests;
  Alcotest.(check bool) "corpus is non-trivial" true (!ran >= 700);
  Alcotest.(check int) "zero invariant violations" 0 !lint_total;
  Alcotest.(check int) "zero witness escapes" 0 !witness_total

(* -- Witness oracle: directed reproducers through the campaign --------------- *)

(* Bug#3 shape: a kfunc-derived scalar bounded on one arm of a branch
   whose arms converge immediately.  The sound verifier re-verifies the
   unbounded arm; the buggy pruning treats kfunc scalars as
   interchangeable, so the recorded witness claims r6 <= 7 while the
   concrete run arrives with r6 = 1000. *)
let bug3_witness_request () : Verifier.request =
  Verifier.request Prog.Kprobe
    [| Asm.mov64_imm Insn.R1 1000l;
       Asm.call_kfunc Helper.kfunc_obj_id.Helper.kid;
       Asm.mov64_reg Insn.R6 Insn.R0;
       Asm.jmp_imm Insn.Jgt Insn.R6 7l 0;
       Asm.mov64_imm Insn.R0 0l;
       Asm.exit_ |]

(* CVE-2022-23222 shape: arithmetic on a maybe-null map value (only
   permitted by the buggy verifier), then a null check that marks every
   copy of the id as the constant 0 — but the concrete copy already
   carries the offset, escaping the claimed {0}. *)
let cve_witness_request (cfg : Gen.config) : Verifier.request =
  let fd =
    match
      List.find_opt
        (fun (_, d) ->
           d.Map.mtype = Map.Hash_map && not d.Map.has_spin_lock)
        cfg.Gen.c_maps
    with
    | Some (fd, _) -> fd
    | None -> Alcotest.fail "campaign session has no plain hash map"
  in
  Verifier.request Prog.Kprobe
    [| Asm.st_dw Insn.R10 (-8) 0l;
       Asm.ld_map_fd Insn.R1 fd;
       Asm.mov64_reg Insn.R2 Insn.R10;
       Asm.alu64_imm Insn.Add Insn.R2 (-8l);
       Asm.call Helper.map_lookup_elem.Helper.id;
       Asm.mov64_reg Insn.R6 Insn.R0;
       Asm.alu64_imm Insn.Add Insn.R6 8l;
       Asm.jmp_imm Insn.Jne Insn.R0 0l 2;
       Asm.mov64_imm Insn.R0 0l;
       Asm.exit_;
       Asm.mov64_imm Insn.R0 0l;
       Asm.exit_ |]

let directed (mk : Gen.config -> Verifier.request) : Campaign.strategy =
  { Campaign.s_name = "directed"; s_feedback = false;
    s_generate = (fun _rng cfg _seed -> mk cfg) }

let witness_finding_for (bug : Kconfig.bug) (stats : Campaign.stats) :
  Campaign.found option =
  Hashtbl.fold
    (fun _ (f : Campaign.found) acc ->
       match f.Campaign.fd_finding.Oracle.f_report.Report.kind with
       | Report.Witness_escape _
         when f.Campaign.fd_finding.Oracle.f_bug = Some bug ->
         Some f
       | _ -> acc)
    stats.Campaign.st_findings None

let run_directed_campaign (bug : Kconfig.bug)
    (mk : Gen.config -> Verifier.request) : Campaign.t =
  let config =
    Kconfig.with_witness (Kconfig.make Version.Bpf_next ~bugs:[ bug ]) true
  in
  Campaign.run_t ~seed:7 ~iterations:4 (directed mk) config

let test_bug3_flagged_as_witness_escape () =
  let c =
    run_directed_campaign Kconfig.Bug3_backtrack_precision (fun _ ->
        bug3_witness_request ())
  in
  match
    witness_finding_for Kconfig.Bug3_backtrack_precision
      c.Campaign.stats
  with
  | Some f ->
    let fi = f.Campaign.fd_finding in
    Alcotest.(check bool) "classified as indicator#3" true
      (fi.Oracle.f_indicator = Some Oracle.Ind3);
    Alcotest.(check bool) "a verifier correctness bug" true
      fi.Oracle.f_correctness
  | None -> Alcotest.fail "bug3 witness escape not found"

let test_cve_flagged_as_witness_escape () =
  let c = run_directed_campaign Kconfig.Cve_2022_23222 cve_witness_request in
  match witness_finding_for Kconfig.Cve_2022_23222 c.Campaign.stats with
  | Some f ->
    Alcotest.(check bool) "classified as indicator#3" true
      (f.Campaign.fd_finding.Oracle.f_indicator = Some Oracle.Ind3)
  | None -> Alcotest.fail "CVE witness escape not found"

(* The left-shift per-bound overflow, end to end.  A kfunc result (an
   unknown scalar to the verifier, concretely 1) is bounded to [0, 1]
   and moved to [2^31 - 1, 2^31], then shifted left by 33.  Before the
   fix [umin] still shifted to 0xFFFFFFFE00000000 while [umax]
   overflowed, so the verifier claimed r6 was that one constant at
   insn 6, which only the shifted path reaches; the concrete
   2^31 << 33 wraps to 0 and escaped the witness there.  The fixed
   transfer function drops both bounds and the run is clean. *)
let lsh_witness_request () : Verifier.request =
  Verifier.request Prog.Kprobe
    [| Asm.mov64_imm Insn.R1 1l;
       Asm.call_kfunc Helper.kfunc_obj_id.Helper.kid;
       Asm.mov64_reg Insn.R6 Insn.R0;
       Asm.jmp_imm Insn.Jgt Insn.R6 1l 4;
       Asm.alu64_imm Insn.Add Insn.R6 0x7FFF_FFFFl;
       Asm.alu64_imm Insn.Lsh Insn.R6 33l;
       Asm.mov64_imm Insn.R0 0l;
       Asm.exit_;
       Asm.mov64_imm Insn.R0 0l;
       Asm.exit_ |]

let test_lsh_witness_clean () =
  let config = Kconfig.with_witness (Kconfig.fixed Version.Bpf_next) true in
  let session = Loader.create config in
  match Loader.load_and_run session (lsh_witness_request ()) with
  | { Loader.verdict = Ok _; witness = []; reports = []; _ } -> ()
  | { Loader.verdict = Ok _; witness = w :: _; _ } ->
    Alcotest.failf "shifted r6 escaped its witness: %s" (Report.to_string w)
  | { Loader.verdict = Ok _; reports = r :: _; _ } ->
    Alcotest.failf "clean run raised %s" (Report.to_string r)
  | { Loader.verdict = Error e; _ } ->
    Alcotest.failf "shift reproducer rejected: %s" e.Bvf_verifier.Venv.vmsg

(* Control: the fixed verifier re-verifies the pruned arm (Bug#3 shape
   runs clean) and rejects the CVE shape outright. *)
let test_witness_clean_controls () =
  let config =
    Kconfig.with_witness (Kconfig.fixed Version.Bpf_next) true
  in
  let session = Loader.create config in
  let maps = Campaign.standard_maps session in
  (match Loader.load_and_run session (bug3_witness_request ()) with
   | { Loader.verdict = Ok _; witness = []; reports = []; _ } -> ()
   | { Loader.verdict = Ok _; witness = w :: _; _ } ->
     Alcotest.failf "clean verifier produced a witness escape: %s"
       (Report.to_string w)
   | { Loader.verdict = Ok _; reports = r :: _; _ } ->
     Alcotest.failf "clean run raised %s" (Report.to_string r)
   | { Loader.verdict = Error e; _ } ->
     Alcotest.failf "bug3 shape rejected by fixed verifier: %s"
       e.Bvf_verifier.Venv.vmsg);
  let cfg = { Gen.c_version = Version.Bpf_next; Gen.c_maps = maps } in
  match Loader.load_and_run session (cve_witness_request cfg) with
  | { Loader.verdict = Error _; _ } -> ()
  | { Loader.verdict = Ok _; _ } ->
    Alcotest.fail "fixed verifier accepted maybe-null pointer arithmetic"

(* -- Witness determinism ------------------------------------------------------ *)

(* Finding keys are [origin|fingerprint|bug]; the witness report class
   is identified by its fingerprint component. *)
let is_witness_key (key : string) : bool =
  let n = String.length key and p = "witness:" in
  let m = String.length p in
  let rec scan i = i + m <= n && (String.sub key i m = p || scan (i + 1)) in
  scan 0

let digest_mod_witness (stats : Campaign.stats) : string =
  Campaign.digest ~exclude_finding:is_witness_key stats

(* Recording witnesses and checking them at runtime must not perturb the
   campaign: same seed with and without --witness reproduces the same
   digest once the witness report class itself is filtered out. *)
let test_witness_digest_deterministic () =
  let base = Kconfig.default Version.Bpf_next in
  let run witness =
    Campaign.run ~seed:11 ~iterations:400 Campaign.bvf_strategy
      (Kconfig.with_witness base witness)
  in
  let off = run false and on = run true in
  Alcotest.(check string) "digest modulo witness findings"
    (digest_mod_witness off) (digest_mod_witness on);
  Alcotest.(check int) "same acceptance"
    off.Campaign.st_accepted on.Campaign.st_accepted

let test_witness_digest_with_jobs () =
  let base = Kconfig.default Version.Bpf_next in
  let run witness =
    Parallel.run ~jobs:2 ~seed:11 ~iterations:200 Campaign.bvf_strategy
      (Kconfig.with_witness base witness)
  in
  let off = run false and on = run true in
  Alcotest.(check string) "sharded digest modulo witness findings"
    (digest_mod_witness off.Parallel.pr_stats)
    (digest_mod_witness on.Parallel.pr_stats)

let test_witness_digest_with_failslab () =
  let base = Kconfig.default Version.Bpf_next in
  let run witness =
    let failslab = Failslab.create ~rate:0.05 ~seed:13 () in
    Campaign.run ~failslab ~seed:13 ~iterations:300 Campaign.bvf_strategy
      (Kconfig.with_witness base witness)
  in
  let off = run false and on = run true in
  Alcotest.(check string) "digest under fault injection modulo witness"
    (digest_mod_witness off) (digest_mod_witness on)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_soundness"
    [
      ( "abstract domain",
        [ qt alu64_abstract_sound; qt alu32_abstract_sound;
          qt neg_abstract_sound; qt sync_preserves_members;
          qt truncate_sound ] );
      ( "word boundaries",
        [ qt mul_boundary_sound; qt shift_boundary_sound;
          Alcotest.test_case "mul S64-overflow regression" `Quick
            test_mul_overflow_regression;
          Alcotest.test_case "mul safe-case bounds" `Quick
            test_mul_safe_bounds;
          Alcotest.test_case "lsh per-bound overflow regression" `Quick
            test_lsh_overflow_regression;
          Alcotest.test_case "lsh safe-case bounds" `Quick
            test_lsh_safe_bounds;
          qt per_bound_overflow_sound ] );
      ( "tnum boundaries",
        [ qt tnum_member_bounds; qt tnum_range_sound; qt tnum_subset_sound;
          qt tnum_meet_join_sound; qt tnum_ops_boundary_sound;
          qt tnum_shift_cast_sound ] );
      ( "widening",
        [ qt tnum_widen_sound; qt reg_widen_sound ] );
      ( "branch transfer",
        [ qt jmp_verdict_sound; qt jmp_refine_sound;
          Alcotest.test_case "w-Jsgt sign-extension regression" `Quick
            test_jsgt32_sign_extension_regression ] );
      ( "invariant lint",
        [ Alcotest.test_case "clean states pass" `Quick
            test_invariants_clean_states;
          Alcotest.test_case "corrupted states flagged" `Quick
            test_invariants_flag_corruption;
          Alcotest.test_case "sync fixpoint regression" `Quick
            test_sync_fixpoint_regression ] );
      ( "witness domain",
        [ Alcotest.test_case "containment basics" `Quick
            test_witness_domain;
          qt witness_of_reg_sound; qt witness_join_sound ] );
      ( "clean verifier",
        [ Alcotest.test_case "selftest corpus: no lint, no witness" `Quick
            test_clean_corpus_no_lint_no_witness ] );
      ( "witness oracle",
        [ Alcotest.test_case "bug3 flagged via witness" `Quick
            test_bug3_flagged_as_witness_escape;
          Alcotest.test_case "cve-2022-23222 flagged via witness" `Quick
            test_cve_flagged_as_witness_escape;
          Alcotest.test_case "clean controls" `Quick
            test_witness_clean_controls;
          Alcotest.test_case "lsh per-bound overflow runs clean" `Quick
            test_lsh_witness_clean ] );
      ( "witness determinism",
        [ Alcotest.test_case "digest modulo witness" `Quick
            test_witness_digest_deterministic;
          Alcotest.test_case "digest with --jobs" `Quick
            test_witness_digest_with_jobs;
          Alcotest.test_case "digest with failslab" `Quick
            test_witness_digest_with_failslab ] );
      ( "oracle",
        [ qt oracle_soundness; qt oracle_soundness_mutants;
          qt encode_verify_consistent ] );
    ]
