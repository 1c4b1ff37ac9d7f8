(* Per-load constant cost: the flat per-pc tables, the lazily built
   widening thresholds and the copy-on-write aux must compute exactly
   what the constructions they replaced computed.  Those constructions
   are kept here as references:

   - per-pc tables: the [Hashtbl] jump-target set and back-edge map,
     on generated and mutated programs that pass [check_cfg];
   - thresholds: [List.sort_uniq] over the base sets and the harvested
     branch constants, compared through the [th_floor]/[th_ceil]
     answers (the set itself is no longer sorted);
   - aux seed: a sharded witness+lint campaign leaves the one shared
     seed record at its defaults.

   The "classifier" group pins the reason each reject site names: every
   documented example is rejected with its documented reason, and the
   reasons and messages of the self-test corpus and of generated
   programs hash to a constant.

   The loop around the verifier is held to its replaced constructions
   the same way:

   - rng: a golden [Rng.next] stream, and [Rng.int] against
     [Int64.unsigned_rem] on draws of either sign;
   - generator: [Rng.choose_bit] and [Rng.pick] against [Rng.choose_opt]
     / [Rng.choose] over the lists the generator used to build (same
     pick, same stream position after);
   - corpus: [Corpus.pick_entry] against [Rng.weighted] over the
     [(energy, entry)] list;
   - tnum: [Tnum.range] against the bit-by-bit fls loop;
   - shadow: [Shadow] against an [int64]-keyed [Hashtbl];
   - coverage memo: every site a campaign records owns its memo slot;
   - allocation: generation costs a bounded number of words per
     instruction whatever the program size, a stable [Regstate.sync]
     and [Rng.int] nothing, and a warm serve hit fewer words than one
     decode of its program. *)

module Insn = Bvf_ebpf.Insn
module Prog = Bvf_ebpf.Prog
module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Kstate = Bvf_kernel.Kstate
module Regstate = Bvf_verifier.Regstate
module Reject_reason = Bvf_verifier.Reject_reason
module Reject_examples = Bvf_verifier.Reject_examples
module Venv = Bvf_verifier.Venv
module Analyze = Bvf_verifier.Analyze
module Coverage = Bvf_verifier.Coverage
module Verifier = Bvf_verifier.Verifier
module Loader = Bvf_runtime.Loader
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Selftests = Bvf_core.Selftests
module Gen = Bvf_core.Gen
module Mutate = Bvf_core.Mutate
module Rng = Bvf_core.Rng
module Corpus = Bvf_core.Corpus
module Tnum = Bvf_verifier.Tnum
module Shadow = Bvf_kernel.Shadow
module Service = Bvf_core.Service
module Vcache = Bvf_core.Vcache

(* -- Rejection reasons ----------------------------------------------------- *)

let documented_examples () =
  List.iter
    (fun ex ->
       let title = ex.Reject_examples.ex_title in
       match Reject_examples.verify_example ex with
       | None -> Alcotest.failf "%s: accepted" title
       | Some (got, msg) ->
         if got <> ex.Reject_examples.ex_reason then
           Alcotest.failf "%s (%s): %s, documented %s" title msg
             (Reject_reason.to_string got)
             (Reject_reason.to_string ex.Reject_examples.ex_reason))
    Reject_examples.all

let reason_line (e : Venv.verr) : string =
  Reject_reason.to_string e.Venv.vreason ^ "\t" ^ e.Venv.vmsg

(* The self-tests all pass the fixed bpf-next verifier; loaded
   unprivileged, against an older kernel or as a different program type
   most of them are rejected, over the whole spread of reject sites. *)
let corpus_rejections () : string list =
  let suite = Selftests.build Version.Bpf_next in
  let kst = suite.Selftests.session.Loader.kst in
  let cov = Coverage.create () in
  let configs =
    [ Kconfig.make ~unprivileged:true Version.Bpf_next;
      Kconfig.fixed Version.V5_15 ]
  in
  let lines = ref [] in
  let load kst req =
    match Verifier.verify kst ~cov req with
    | Error e -> lines := reason_line e :: !lines
    | Ok () -> ()
  in
  List.iter
    (fun req ->
       List.iter (fun config -> load { kst with Kstate.config } req) configs;
       List.iter
         (fun pt -> load kst { req with Verifier.r_prog_type = pt })
         [ Prog.Xdp; Prog.Socket_filter ])
    suite.Selftests.requests;
  !lines

let generated_rejections () : string list =
  let session = Loader.create (Kconfig.default Version.Bpf_next) in
  let cfg =
    { Gen.c_version = Version.Bpf_next;
      c_maps = Campaign.standard_maps session }
  in
  let rng = Rng.create 5 in
  let lines = ref [] in
  for _ = 1 to 1500 do
    let req = Gen.generate rng cfg in
    let req =
      if Rng.chance rng 0.5 then Mutate.mutate_request rng ~version:Version.Bpf_next req
      else req
    in
    match Verifier.verify session.Loader.kst ~cov:session.Loader.cov req with
    | Error e -> lines := reason_line e :: !lines
    | Ok () -> ()
  done;
  !lines

(* MD5 of the sorted [reason<TAB>message] lines of both sets: any reject
   site that names another reason, or words its message otherwise,
   moves it. *)
let rejections_md5 = "9749fde12f69d436b920d9f83df0d410"

let pinned_rejections () =
  let corpus = corpus_rejections () and generated = generated_rejections () in
  Alcotest.(check bool) "self-test corpus yields rejections" true
    (List.length corpus > 700);
  Alcotest.(check bool) "generated programs yield rejections" true
    (List.length generated > 300);
  let lines = List.sort compare (corpus @ generated) in
  Alcotest.(check string) "reason and message lines" rejections_md5
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* -- Per-pc tables ------------------------------------------------------------ *)

(* The replaced constructions. *)
let ref_jump_targets (insns : Insn.t array) : (int, unit) Hashtbl.t =
  let targets = Hashtbl.create 16 in
  Array.iteri
    (fun pc insn ->
       match insn with
       | Insn.Jmp { off; _ } | Insn.Ja off | Insn.Call (Insn.Local off) ->
         Hashtbl.replace targets (pc + 1 + off) ()
       | _ -> ())
    insns;
  targets

(* The certificate check itself did not change; it reads the new flag
   table, which [tables_equal] holds to [ref_jump_targets]. *)
let ref_loop_heads (insns : Insn.t array) ~(bytes_targets : Bytes.t) :
  (int, int option) Hashtbl.t =
  let backs : (int, int list) Hashtbl.t = Hashtbl.create 4 in
  Array.iteri
    (fun pc insn ->
       match insn with
       | Insn.Jmp { off; _ } | Insn.Ja off ->
         if pc + 1 + off <= pc then
           Hashtbl.replace backs (pc + 1 + off)
             (pc
              :: Option.value
                   (Hashtbl.find_opt backs (pc + 1 + off))
                   ~default:[])
       | _ -> ())
    insns;
  let heads = Hashtbl.create 4 in
  Hashtbl.iter
    (fun head bs ->
       Hashtbl.replace heads head
         (match bs with
          | [ b ]
            when Analyze.certified_head insns ~targets:bytes_targets ~head
                   ~back:b ->
            Some b
          | _ -> None))
    backs;
  heads

let kst = Kstate.create (Kconfig.default Version.Bpf_next)

let passes_cfg (insns : Insn.t array) : bool =
  let env =
    Venv.create ~kst ~prog_type:Prog.Kprobe ~attach:None
      ~cov:(Coverage.create ()) insns
  in
  match Analyze.check_cfg env with
  | () -> true
  | exception Venv.Reject _ -> false

let gen_cfg =
  let session = Loader.create (Kconfig.default Version.Bpf_next) in
  { Gen.c_version = Version.Bpf_next;
    c_maps = Campaign.standard_maps session }

(* A generated program, mutated 0-3 times (offset tweaks and block
   duplication make multi-edge and nested loop heads). *)
let gen_program : Insn.t array QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* rounds = int_bound 3 in
  let rng = Rng.create seed in
  let insns = ref (Gen.generate rng gen_cfg).Verifier.r_insns in
  for _ = 1 to rounds do
    insns := Mutate.mutate rng !insns
  done;
  return !insns

let tables_equal =
  QCheck2.Test.make ~count:600 ~name:"per-pc tables = Hashtbl reference"
    ~print:(fun insns -> Printf.sprintf "%d insns" (Array.length insns))
    gen_program
    (fun insns ->
       QCheck2.assume (passes_cfg insns);
       let n = Array.length insns in
       let targets = Analyze.jump_targets insns in
       let heads, n_heads = Analyze.loop_heads insns ~targets in
       let rt = ref_jump_targets insns in
       let rh = ref_loop_heads insns ~bytes_targets:targets in
       Bytes.length targets = n
       && Array.length heads = n
       && n_heads = Hashtbl.length rh
       && List.for_all
            (fun pc ->
               Analyze.is_target targets pc = Hashtbl.mem rt pc
               && (match Hashtbl.find_opt rh pc, heads.(pc) with
                   | None, h -> h = Analyze.no_head
                   | Some None, h -> h = Analyze.uncertified_head
                   | Some (Some b), h -> h = b))
            (List.init n Fun.id))

(* Generated programs do head loops, certified ones included, so
   [tables_equal] compares tables that are not trivially empty. *)
let tables_see_loops () =
  let rng = Rng.create 3 in
  let certified = ref 0 and heads = ref 0 in
  for _ = 1 to 400 do
    let insns = (Gen.generate rng gen_cfg).Verifier.r_insns in
    let targets = Analyze.jump_targets insns in
    let h, n = Analyze.loop_heads insns ~targets in
    heads := !heads + n;
    Array.iter (fun b -> if b >= 0 then incr certified) h
  done;
  Alcotest.(check bool) "loop heads generated" true (!heads > 0);
  Alcotest.(check bool) "certified heads generated" true (!certified > 0)

(* -- Thresholds ---------------------------------------------------------------- *)

(* The replaced construction: sorted, without duplicates. *)
let ref_thresholds (consts : int64 list) : Regstate.thresholds =
  let signed_base =
    [ Int64.min_int; Int64.of_int32 Int32.min_int; -1L; 0L; 1L;
      Int64.of_int32 Int32.max_int; Int64.max_int ]
  and unsigned_base = [ 0L; 1L; 0xFFFF_FFFFL; -1L ] in
  { Regstate.th_signed =
      Array.of_list (List.sort_uniq Int64.compare (signed_base @ consts));
    th_unsigned =
      Array.of_list
        (List.sort_uniq Int64.unsigned_compare (unsigned_base @ consts)) }

(* Floor and ceiling read off a sorted array: the last element <= x,
   the first element >= x. *)
let sorted_floor (a : int64 array) cmp (x : int64) : int64 =
  Array.fold_left (fun best t -> if cmp t x <= 0 then t else best) a.(0) a

let sorted_ceil (a : int64 array) cmp (x : int64) : int64 =
  Array.fold_right (fun t best -> if cmp t x >= 0 then t else best) a
    a.(Array.length a - 1)

(* [th] answers every floor and ceiling query as the sorted reference
   does: at each reference element, its neighbours, the [int64]
   extremes and [extra]. *)
let same_answers ~(reference : Regstate.thresholds) ~(extra : int64 list)
    (th : Regstate.thresholds) : bool =
  let probes (a : int64 array) =
    Array.to_list a
    |> List.concat_map (fun e -> [ e; Int64.pred e; Int64.succ e ])
    |> List.append (Int64.min_int :: Int64.max_int :: 0L :: extra)
  in
  let agree (got : int64 array) (want : int64 array) cmp =
    List.for_all
      (fun x ->
         Regstate.th_floor got cmp x = sorted_floor want cmp x
         && Regstate.th_ceil got cmp x = sorted_ceil want cmp x)
      (probes want)
  in
  agree th.Regstate.th_signed reference.Regstate.th_signed Int64.compare
  && agree th.Regstate.th_unsigned reference.Regstate.th_unsigned
       Int64.unsigned_compare

let gen_imm : int32 QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ map Int32.of_int (int_range (-8) 8);
      oneofl [ Int32.min_int; Int32.max_int; -1l; 0l; 1l; 4096l ];
      map Int32.of_int (int_range (-100_000) 100_000) ]

let gen_int64 : int64 QCheck2.Gen.t =
  let open QCheck2.Gen in
  map2
    (fun hi lo -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32)
        (Int64.of_int lo))
    (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF_FFFF)

(* A program branching on each immediate, then the thresholds the
   analyzer builds for it on demand. *)
let thresholds_equal =
  QCheck2.Test.make ~count:1000 ~name:"lazy thresholds = reference"
    QCheck2.Gen.(pair (list_size (int_bound 12) gen_imm)
                   (list_size (int_bound 8) gen_int64))
    (fun (imms, extra) ->
       let insns =
         Array.of_list
           (List.map
              (fun i ->
                 Insn.Jmp { op32 = false; cond = Insn.Jeq; dst = Insn.R1;
                            src = Insn.Imm i; off = 0 })
              imms
            @ [ Insn.Exit ])
       in
       let env =
         Venv.create ~kst ~prog_type:Prog.Kprobe ~attach:None
           ~cov:(Coverage.create ()) insns
       in
       let consts =
         List.concat_map
           (fun i ->
              [ Int64.of_int32 i;
                Int64.logand (Int64.of_int32 i) 0xFFFF_FFFFL ])
           imms
       in
       let reference = ref_thresholds consts in
       let built = Analyze.thresholds env in
       same_answers ~reference ~extra built
       && same_answers ~reference ~extra (Regstate.mk_thresholds consts)
       (* built once per load *)
       && Analyze.thresholds env == built)

let analyzed (insns : Insn.t array) : Venv.t =
  let env =
    Venv.create ~kst ~prog_type:Prog.Kprobe ~attach:None
      ~cov:(Coverage.create ()) insns
  in
  Analyze.run env;
  env

let thresholds_lazy () =
  let straight =
    analyzed
      [| Insn.Alu { op64 = true; op = Insn.Mov; dst = Insn.R0;
                    src = Insn.Imm 0l };
         Insn.Exit |]
  in
  Alcotest.(check bool) "not built without a widening" true
    (straight.Venv.thresholds = None);
  (* r1 = 0; do r1 += 1 while r1 < 1000: a certified head that widens *)
  let counted =
    analyzed
      [| Insn.Alu { op64 = true; op = Insn.Mov; dst = Insn.R1;
                    src = Insn.Imm 0l };
         Insn.Alu { op64 = true; op = Insn.Add; dst = Insn.R1;
                    src = Insn.Imm 1l };
         Insn.Jmp { op32 = false; cond = Insn.Jlt; dst = Insn.R1;
                    src = Insn.Imm 1000l; off = -2 };
         Insn.Alu { op64 = true; op = Insn.Mov; dst = Insn.R0;
                    src = Insn.Imm 0l };
         Insn.Exit |]
  in
  Alcotest.(check bool) "widened" true
    (counted.Venv.vst.Bvf_verifier.Vstats.vs_widen_rounds > 0);
  Alcotest.(check bool) "built at the first widening" true
    (match counted.Venv.thresholds with
     | Some th ->
       same_answers ~reference:(ref_thresholds [ 1000L; 1000L ]) ~extra:[] th
     | None -> false)

(* -- The shared aux seed ------------------------------------------------------- *)

let seed_untouched () =
  let config =
    Kconfig.with_lint
      (Kconfig.with_witness (Kconfig.default Version.Bpf_next) true)
      true
  in
  let r =
    Parallel.run ~jobs:2 ~seed:16 ~iterations:500 Campaign.bvf_strategy
      config
  in
  Alcotest.(check bool) "campaign accepted programs" true
    (r.Parallel.pr_stats.Campaign.st_accepted > 0);
  let s = Venv.aux_seed and f = Venv.fresh_aux () in
  Alcotest.(check bool) "ptr_kind" true (s.Venv.ptr_kind = f.Venv.ptr_kind);
  Alcotest.(check bool) "alu_limit" true (s.Venv.alu_limit = f.Venv.alu_limit);
  Alcotest.(check bool) "rewritten" f.Venv.rewritten s.Venv.rewritten;
  Alcotest.(check bool) "skip_sanitize" f.Venv.skip_sanitize
    s.Venv.skip_sanitize;
  Alcotest.(check bool) "exception_handled" f.Venv.exception_handled
    s.Venv.exception_handled;
  Alcotest.(check bool) "call_helper" true
    (Option.is_none s.Venv.call_helper && Option.is_none f.Venv.call_helper);
  Alcotest.(check bool) "witness" true
    (Option.is_none s.Venv.witness && Option.is_none f.Venv.witness)

(* -- RNG ------------------------------------------------------------------------ *)

(* The first draws of seeds 0 and 1, as the boxed-state splitmix64
   produced them. *)
let golden_stream () =
  let check seed want =
    let r = Rng.create seed in
    Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) want
      (List.map (fun _ -> Rng.next r) want)
  in
  check 0
    [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
      8196980753821780235L; 8195237237126968761L; -4373826470845021568L ];
  check 1
    [ 3794132593329272276L; -4092049721421375212L; -6077746523346163431L;
      6607567546518234071L; 6479202026397714383L; -1034765212816963262L ]

(* The replaced [Rng.int]. *)
let ref_int (r : Rng.t) (n : int) : int =
  Int64.to_int (Int64.unsigned_rem (Rng.next r) (Int64.of_int n))

let int_matches_unsigned_rem () =
  let bounds =
    [ 1; 2; 3; 7; 8; 10; 1000; 4097; 1 lsl 31; (1 lsl 40) + 3; max_int;
      max_int - 1; (max_int / 3) + 1 ]
  in
  let seen_neg = ref 0 and seen_pos = ref 0 in
  let probe = Rng.create 11 in
  for _ = 1 to 20_000 do
    let s = Rng.next probe in
    let a = Rng.of_state s and b = Rng.of_state s in
    (* the draw [Rng.int] is about to reduce *)
    if Rng.next (Rng.of_state s) < 0L then incr seen_neg else incr seen_pos;
    List.iter
      (fun n ->
         let got = Rng.int a n and want = ref_int b n in
         if got <> want then
           Alcotest.failf "state %Ld bound %d: %d, reference %d" s n got
             want)
      bounds;
    if Rng.state a <> Rng.state b then Alcotest.fail "stream positions differ"
  done;
  Alcotest.(check bool) "draws with the sign bit set" true (!seen_neg > 1000);
  Alcotest.(check bool) "draws with the sign bit clear" true
    (!seen_pos > 1000)

(* -- Generator selections --------------------------------------------------- *)

(* The lists the generator built: the set bits of a register mask,
   highest index first, as [regs_where] listed registers. *)
let ref_bits_highest_first (mask : int) : int list =
  List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init 62 Fun.id)
  |> List.rev

let choose_bit_matches =
  QCheck2.Test.make ~count:3000 ~name:"choose_bit = choose_opt over list"
    QCheck2.Gen.(pair (oneof [ int_bound 0x3FF; int_bound max_int ])
                   (int_bound 1_000_000))
    (fun (mask, seed) ->
       let a = Rng.create seed and b = Rng.create seed in
       let got = Rng.choose_bit a mask in
       let want =
         Option.value ~default:(-1)
           (Rng.choose_opt b (ref_bits_highest_first mask))
       in
       got = want && Rng.state a = Rng.state b)

let pick_matches =
  QCheck2.Test.make ~count:1000 ~name:"pick = choose over list"
    QCheck2.Gen.(pair (array_size (int_range 1 20) small_int)
                   (int_bound 1_000_000))
    (fun (arr, seed) ->
       let a = Rng.create seed and b = Rng.create seed in
       Rng.pick a arr = Rng.choose b (Array.to_list arr)
       && Rng.state a = Rng.state b)

(* -- Corpus pick -------------------------------------------------------------- *)

let corpus_pick_matches =
  QCheck2.Test.make ~count:300 ~name:"pick_entry = weighted list"
    QCheck2.Gen.(pair (list_size (int_range 0 300)
                         (pair (int_bound 40) (int_bound 5000)))
                   (int_bound 1_000_000))
    (fun (adds, seed) ->
       let c = Corpus.create () in
       let req = (Gen.generate (Rng.create seed) gen_cfg) in
       List.iter
         (fun (new_edges, iteration) -> Corpus.add c ~iteration ~new_edges req)
         adds;
       let a = Rng.create seed and b = Rng.create seed in
       List.for_all
         (fun _ ->
            let got = Corpus.pick_entry c a in
            let want =
              match Corpus.entries c with
              | [] -> None
              | es ->
                Some
                  (Rng.weighted b (List.map (fun e -> (Corpus.energy e, e)) es))
            in
            (match got, want with
             | None, None -> true
             | Some x, Some y -> x == y
             | _ -> false)
            && Rng.state a = Rng.state b)
         [ 1; 2; 3; 4; 5 ])

(* -- Tnum.range ---------------------------------------------------------------- *)

(* The replaced [tnum_range]: fls64 by a 64-step bit loop. *)
let ref_range ~(min : int64) ~(max : int64) : Tnum.t =
  if min = max then Tnum.const min
  else begin
    let chi = Int64.logxor min max in
    let rec fls i =
      if i < 0 then 0
      else if Int64.logand (Int64.shift_right_logical chi i) 1L = 1L then
        i + 1
      else fls (i - 1)
    in
    let bits = fls 63 in
    if bits > 63 then Tnum.unknown
    else begin
      let delta = Int64.sub (Int64.shift_left 1L bits) 1L in
      { Tnum.value = Int64.logand min (Int64.lognot delta); mask = delta }
    end
  end

(* Pairs whose xor [chi] lands in every band: small, at and above 2^62,
   negative (the sign bit differs), and zero. *)
let gen_range_pair : (int64 * int64) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* min = gen_int64 in
  let* chi =
    oneof
      [ return 0L;
        map Int64.of_int (int_range 1 1000);
        map (fun k -> Int64.shift_left 1L k) (int_range 0 63);
        map (fun x -> Int64.logor x 0x4000_0000_0000_0000L) gen_int64
        |> map (fun x -> Int64.logand x Int64.max_int);
        map (fun x -> Int64.logor x Int64.min_int) gen_int64;
        gen_int64 ]
  in
  return (min, Int64.logxor min chi)

let range_matches =
  QCheck2.Test.make ~count:5000 ~name:"range = bit-loop fls"
    ~print:(fun (a, b) -> Printf.sprintf "min=%Ld max=%Ld" a b)
    gen_range_pair
    (fun (min, max) ->
       let t = { Tnum.value = Int64.logand min 0xF0F0L; mask = 0x0F0FL } in
       let via_range = Tnum.intersect t (ref_range ~min ~max) in
       let fused = Tnum.intersect_range t ~min ~max in
       Tnum.equal (Tnum.range ~min ~max) (ref_range ~min ~max)
       && Tnum.equal fused via_range
       && (fused == t) = Tnum.equal via_range t)

let range_bands () =
  let chis =
    [ 1L; 2L; 0x3FFF_FFFF_FFFF_FFFFL; 0x4000_0000_0000_0000L;
      0x7FFF_FFFF_FFFF_FFFFL; Int64.min_int; -1L ]
  in
  List.iter
    (fun chi ->
       List.iter
         (fun min ->
            let max = Int64.logxor min chi in
            if not (Tnum.equal (Tnum.range ~min ~max) (ref_range ~min ~max))
            then Alcotest.failf "min=%Ld max=%Ld" min max)
         [ 0L; 5L; Int64.min_int; Int64.max_int; -1L ])
    chis

(* -- Shadow -------------------------------------------------------------------- *)

(* The replaced table: shadow codes keyed by the [int64] granule. *)
module Ref_shadow = struct
  let tbl : (int64, int) Hashtbl.t = Hashtbl.create 64
  let granule a = Int64.div a 8L

  let code = function
    | Shadow.Fully_addressable -> 0
    | Shadow.Addressable n -> n
    | Shadow.Redzone -> 0xFA
    | Shadow.Freed -> 0xFB
    | Shadow.Unallocated -> 0xFE

  let set g p =
    match p with
    | Shadow.Unallocated -> Hashtbl.remove tbl g
    | _ -> Hashtbl.replace tbl g (code p)

  let poison ~addr ~size p =
    for i = 0 to ((size + 7) / 8) - 1 do
      set (Int64.add (granule addr) (Int64.of_int i)) p
    done

  let unpoison ~addr ~size =
    for i = 0 to (size / 8) - 1 do
      set (Int64.add (granule addr) (Int64.of_int i)) Shadow.Fully_addressable
    done;
    if size mod 8 > 0 then
      set (Int64.add (granule addr) (Int64.of_int (size / 8)))
        (Shadow.Addressable (size mod 8))

  let poison_at a =
    match Hashtbl.find_opt tbl (granule a) with
    | None | Some 0xFE -> Shadow.Unallocated
    | Some 0 -> Shadow.Fully_addressable
    | Some 0xFA -> Shadow.Redzone
    | Some 0xFB -> Shadow.Freed
    | Some n -> Shadow.Addressable n
end

let shadow_matches () =
  Hashtbl.reset Ref_shadow.tbl;
  let sh = Shadow.create () in
  let rng = Rng.create 23 in
  (* aligned bases near zero, in the kernel range, and at both ends of
     the int64 range, where the granule number is furthest out *)
  let bases =
    [| 0L; 4096L; 0x4000_0000_0000L; 0x4000_0000_0400L;
       Int64.logand (Int64.sub Int64.max_int 4095L) (-8L);
       Int64.min_int; Int64.add Int64.min_int 512L; -4096L |]
  in
  let kinds =
    [| Shadow.Redzone; Shadow.Freed; Shadow.Unallocated;
       Shadow.Fully_addressable |]
  in
  for _ = 1 to 3000 do
    let addr =
      Int64.add (Rng.pick rng bases) (Int64.of_int (8 * Rng.int rng 64))
    and size = Rng.int rng 80 in
    if Rng.bool rng then begin
      Shadow.unpoison sh ~addr ~size;
      Ref_shadow.unpoison ~addr ~size
    end
    else begin
      let p = Rng.pick rng kinds in
      Shadow.poison sh ~addr ~size p;
      Ref_shadow.poison ~addr ~size p
    end
  done;
  Array.iter
    (fun base ->
       for k = -16 to 600 do
         let a = Int64.add base (Int64.of_int k) in
         if Shadow.poison_at sh a <> Ref_shadow.poison_at a then
           Alcotest.failf "address %Ld: %s, reference %s" a
             (Shadow.poison_to_string (Shadow.poison_at sh a))
             (Shadow.poison_to_string (Ref_shadow.poison_at a))
       done)
    bases

(* -- Coverage memo ------------------------------------------------------------- *)

let memo_slots_distinct () =
  let c =
    Campaign.run_t ~seed:1 ~iterations:2000 Campaign.bvf_strategy
      (Kconfig.default Version.Bpf_next)
  in
  let cov = c.Campaign.cov in
  let sites =
    List.sort_uniq compare
      (List.map (fun ((site, _), _) -> site) (Coverage.named_edges cov))
  in
  Alcotest.(check bool) "campaign covers the verifier's sites" true
    (List.length sites >= 30);
  let owner = Hashtbl.create 64 in
  List.iter
    (fun site ->
       let slot = Coverage.memo_slot cov site in
       (match Hashtbl.find_opt owner slot with
        | Some other ->
          Alcotest.failf "sites %S and %S share memo slot %d" other site slot
        | None -> Hashtbl.replace owner slot site);
       (* each site still holds its slot at the end of the run *)
       if cov.Coverage.memo_sites.(slot) <> site then
         Alcotest.failf "memo slot %d of %S holds %S" slot site
           cov.Coverage.memo_sites.(slot))
    sites

(* -- Allocation guards ---------------------------------------------------------- *)

(* Mean minor words per emitted instruction, over the generated programs
   whose length [keep] accepts.  Only the minor heap is counted: it is
   exact and deterministic (the major counters move with collection
   timing), and a rebuilt code list, the quadratic patching this
   guards against, lives there. *)
let gen_words_per_insn ~(seed : int) ~(count : int) (keep : int -> bool) :
  float * int =
  let rng = Rng.create seed in
  let words = ref 0.0 and insns = ref 0 and progs = ref 0 in
  for _ = 1 to count do
    let before = Gc.minor_words () in
    let req = Gen.generate rng gen_cfg in
    let w = Gc.minor_words () -. before in
    let n = Array.length req.Verifier.r_insns in
    if keep n then begin
      words := !words +. w;
      insns := !insns + n;
      incr progs
    end
  done;
  (!words /. float_of_int (max 1 !insns), !progs)

let gen_alloc_linear () =
  (* budgets of 20-80 emit under 200 insns; budgets of 500-1000 over
     400 *)
  let small, n_small = gen_words_per_insn ~seed:4 ~count:3000 (fun n -> n < 200)
  and big, n_big = gen_words_per_insn ~seed:4 ~count:3000 (fun n -> n >= 400) in
  Alcotest.(check bool) "small programs generated" true (n_small > 2000);
  Alcotest.(check bool) "large programs generated" true (n_big > 40);
  if small > 40.0 then
    Alcotest.failf "generation allocates %.1f words per insn" small;
  if big > small then
    Alcotest.failf
      "large programs cost %.1f words per insn, small ones %.1f" big small

let words_per_call (n : int) (f : unit -> unit) : float =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let sync_stable_alloc () =
  let stable =
    [ Regstate.scalar_range ~umin:3L ~umax:100L;
      Regstate.const_scalar 42L;
      Regstate.unknown_scalar;
      Regstate.scalar_range ~umin:0L ~umax:0xFFFF_FFFFL;
      Regstate.fp 0 ]
  in
  List.iter
    (fun r ->
       if Regstate.sync r != r then
         Alcotest.failf "%s is not sync-stable" (Regstate.to_string r);
       let w = words_per_call 10_000 (fun () -> ignore (Regstate.sync r)) in
       if w >= 1.0 then
         Alcotest.failf "sync of stable %s allocates %.1f words"
           (Regstate.to_string r) w)
    stable

let rng_int_alloc () =
  let r = Rng.create 9 in
  let acc = ref 0 in
  let w =
    words_per_call 100_000 (fun () -> acc := !acc + Rng.int r 1000)
  in
  Alcotest.(check bool) "draws happened" true (!acc > 0);
  if w >= 1.0 then Alcotest.failf "Rng.int allocates %.2f words per call" w

(* A warm serve hit is answered from its wire identity, with neither
   the hex decoded nor the bytes keyed: beyond a copy of its line and
   the parse of that copy, it allocates fewer minor words than one
   [Service.bytes_of_hex] of its program.  The program is a
   serve-pool-like one, a generated program of about 100 instructions
   over the service maps.  A hit costs the difference between serving
   1 + [n] copies of its line and serving one, so the loop's fixed
   set-up cancels out. *)
let serve_hit_no_decode () =
  let config = Kconfig.fixed Version.Bpf_next in
  let session = Service.create_session config in
  let maps =
    List.map (fun (fd, m) -> (fd, m.Bvf_kernel.Map.def))
      session.Loader.kst.Kstate.maps
  in
  let gcfg = { Gen.c_version = Version.Bpf_next; c_maps = maps } in
  let rng = Rng.create 11 in
  let rec pick () =
    let req = Gen.generate rng gcfg in
    let n = Array.length req.Verifier.r_insns in
    match Service.request_to_json { Service.q_id = "h"; q_req = req } with
    | line when n >= 90 && n <= 110 -> (req, line)
    | _ | (exception Invalid_argument _) -> pick ()
  in
  let req, line = pick () in
  let cache = Vcache.create ~cap:4 in
  let path = Filename.temp_file "bvf_loadcost_serve" ".jsonl" in
  (* minor words and cache hits of one serve loop over [copies] lines *)
  let serve (copies : int) : float * int =
    Out_channel.with_open_bin path (fun oc ->
        for _ = 1 to copies do
          output_string oc line;
          output_char oc '\n'
        done);
    In_channel.with_open_bin path (fun ic ->
        Out_channel.with_open_bin Filename.null (fun oc ->
            let before = Gc.minor_words () in
            let t =
              Service.serve ~cache ~session ~stop:(fun () -> false) ic oc
            in
            (Gc.minor_words () -. before, t.Service.tl_hits)))
  in
  ignore (serve 1 : float * int);  (* a miss: the verdict is cached *)
  let n = 200 in
  let one, one_hits = serve 1 and many, many_hits = serve (n + 1) in
  Sys.remove path;
  Alcotest.(check (list int)) "warm serves hit" [ 1; n + 1 ]
    [ one_hits; many_hits ];
  let hit = (many -. one) /. float_of_int n in
  let read_and_parse =
    words_per_call 100 (fun () ->
        let copy = String.sub line 0 (String.length line) in
        ignore (Bvf_util.Json.parse_object copy))
  in
  let hex =
    Option.get (Bvf_util.Json.str (Bvf_util.Json.parse_object line) "prog")
  in
  let decode_hex =
    words_per_call 100 (fun () -> ignore (Service.bytes_of_hex hex))
  in
  if hit -. read_and_parse >= decode_hex then
    Alcotest.failf
      "a warm serve hit allocates %.0f words, %.0f past reading and \
       parsing its line; one bytes_of_hex of its %d-insn program %.0f"
      hit (hit -. read_and_parse) (Array.length req.Verifier.r_insns)
      decode_hex

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_loadcost"
    [
      ( "classifier",
        [ Alcotest.test_case "documented examples" `Quick documented_examples;
          Alcotest.test_case "corpus and generated rejections" `Quick
            pinned_rejections ] );
      ( "per-pc tables",
        [ qt tables_equal;
          Alcotest.test_case "generated loops" `Quick tables_see_loops ] );
      ( "thresholds",
        [ qt thresholds_equal;
          Alcotest.test_case "built on demand" `Quick thresholds_lazy ] );
      ( "aux seed",
        [ Alcotest.test_case "untouched by a sharded witness+lint campaign"
            `Quick seed_untouched ] );
      ( "rng",
        [ Alcotest.test_case "golden next stream" `Quick golden_stream;
          Alcotest.test_case "int = unsigned_rem" `Quick
            int_matches_unsigned_rem ] );
      ( "generator",
        [ qt choose_bit_matches; qt pick_matches ] );
      ( "corpus", [ qt corpus_pick_matches ] );
      ( "tnum",
        [ qt range_matches;
          Alcotest.test_case "range across chi bands" `Quick range_bands ] );
      ( "shadow",
        [ Alcotest.test_case "int keys = int64 Hashtbl" `Quick
            shadow_matches ] );
      ( "coverage memo",
        [ Alcotest.test_case "one slot per campaign site" `Quick
            memo_slots_distinct ] );
      ( "allocation",
        [ Alcotest.test_case "generation linear in insns" `Quick
            gen_alloc_linear;
          Alcotest.test_case "stable sync" `Quick sync_stable_alloc;
          Alcotest.test_case "Rng.int" `Quick rng_int_alloc;
          Alcotest.test_case "serve hit never decodes" `Quick
            serve_hit_no_decode ] );
    ]
