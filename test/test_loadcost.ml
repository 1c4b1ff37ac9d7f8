(* Per-load constant cost: the flat per-pc tables, the lazily built
   widening thresholds, the in-place rejection classifier and the
   copy-on-write aux must compute exactly what the constructions they
   replaced computed.  Those constructions are kept here as references:

   - classifier: the [String.sub]-per-position substring search over
     the ordered pattern table, on every documented example, every
     rejection message of the self-test corpus and of generated
     programs, and random strings spliced from pattern fragments;
   - per-pc tables: the [Hashtbl] jump-target set and back-edge map,
     on generated and mutated programs that pass [check_cfg];
   - thresholds: [List.sort_uniq] over the base sets and the harvested
     branch constants;
   - aux seed: a sharded witness+lint campaign leaves the one shared
     seed record at its defaults;
   - allocation: classifying a message allocates nothing. *)

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

(* -- Classifier ------------------------------------------------------------ *)

(* The replaced search: one [String.sub] per candidate position. *)
let ref_has (msg : string) (frag : string) : bool =
  let n = String.length msg and m = String.length frag in
  if m = 0 || m > n then m = 0
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= n - m do
      if String.sub msg !i m = frag then found := true else incr i
    done;
    !found
  end

let ref_classify (msg : string) : Reject_reason.t =
  if msg = "size" then Reject_reason.Prog_size
  else
    match
      List.find_opt (fun (frag, _) -> ref_has msg frag)
        Reject_reason.patterns
    with
    | Some (_, r) -> r
    | None -> Reject_reason.Unknown

let check_classify (msg : string) : unit =
  let got = Reject_reason.classify ~msg and want = ref_classify msg in
  if got <> want then
    Alcotest.failf "%S: classify %s, reference %s" msg
      (Reject_reason.to_string got) (Reject_reason.to_string want)

let example_messages () : string list =
  List.filter_map
    (fun ex -> Option.map snd (Reject_examples.verify_example ex))
    Reject_examples.all

let classify_examples () =
  let msgs = example_messages () in
  Alcotest.(check int) "every example rejected"
    (List.length Reject_examples.all) (List.length msgs);
  List.iter check_classify msgs

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
  let msgs = ref [] in
  let load kst req =
    match Verifier.verify kst ~cov req with
    | Error e -> msgs := e.Venv.vmsg :: !msgs
    | Ok () -> ()
  in
  List.iter
    (fun req ->
       List.iter (fun config -> load { kst with Kstate.config } req) configs;
       List.iter
         (fun pt -> load kst { req with Verifier.r_prog_type = pt })
         [ Prog.Xdp; Prog.Socket_filter ])
    suite.Selftests.requests;
  !msgs

let generated_rejections () : string list =
  let session = Loader.create (Kconfig.default Version.Bpf_next) in
  let cfg =
    { Gen.c_version = Version.Bpf_next;
      c_maps = Campaign.standard_maps session }
  in
  let rng = Rng.create 5 in
  let msgs = ref [] in
  for _ = 1 to 1500 do
    let req = Gen.generate rng cfg in
    let req =
      if Rng.chance rng 0.5 then Mutate.mutate_request rng ~version:Version.Bpf_next req
      else req
    in
    match Verifier.verify session.Loader.kst ~cov:session.Loader.cov req with
    | Error e -> msgs := e.Venv.vmsg :: !msgs
    | Ok () -> ()
  done;
  !msgs

let classify_rejections () =
  let corpus = corpus_rejections () and generated = generated_rejections () in
  Alcotest.(check bool) "self-test corpus yields rejections" true
    (List.length corpus > 700);
  Alcotest.(check bool) "generated programs yield rejections" true
    (List.length generated > 300);
  List.iter check_classify corpus;
  List.iter check_classify generated

(* Random messages: pattern fragments, whole or cut short, with one byte
   changed or overlapping themselves, between random prefixes and
   suffixes. *)
let gen_message : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let frags = Array.of_list (List.map fst Reject_reason.patterns) in
  let frag = map (fun i -> frags.(i)) (int_bound (Array.length frags - 1)) in
  let noise = string_size ~gen:(oneofl [ 'a'; 'e'; ' '; 'R'; '_'; 'x' ]) (int_bound 6) in
  let piece =
    oneof
      [ frag;
        noise;
        (* cut short: a near-miss at the end *)
        (let* f = frag in
         let* k = int_bound (String.length f) in
         return (String.sub f 0 k));
        (* one byte changed: a near-miss inside *)
        (let* f = frag in
         let* i = int_bound (String.length f - 1) in
         let* c = printable in
         return
           (String.mapi (fun j x -> if j = i then c else x) f));
        (* overlapping: a fragment's prefix running into itself *)
        (let* f = frag in
         let* k = int_bound (String.length f) in
         return (String.sub f 0 k ^ f)) ]
  in
  map (String.concat "") (list_size (int_range 0 4) piece)

let classify_random =
  QCheck2.Test.make ~count:3000 ~name:"classify = String.sub reference"
    ~print:(Printf.sprintf "%S") gen_message
    (fun msg ->
       Reject_reason.classify ~msg = ref_classify msg)

let classify_no_alloc () =
  let msgs = Array.of_list (example_messages ()) in
  let n = 10_000 in
  (* warm: nothing lazily initialized is charged to the loop *)
  ignore (Reject_reason.classify ~msg:msgs.(0));
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    if Reject_reason.classify ~msg:msgs.(i mod Array.length msgs)
       = Reject_reason.Unknown
    then incr acc
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "examples all classified" 0 !acc;
  if words /. float_of_int n >= 1.0 then
    Alcotest.failf "classify allocated %.0f minor words over %d calls"
      words n

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

(* The replaced construction. *)
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

let gen_imm : int32 QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ map Int32.of_int (int_range (-8) 8);
      oneofl [ Int32.min_int; Int32.max_int; -1l; 0l; 1l; 4096l ];
      map Int32.of_int (int_range (-100_000) 100_000) ]

(* A program branching on each immediate, then the thresholds the
   analyzer builds for it on demand. *)
let thresholds_equal =
  QCheck2.Test.make ~count:1000 ~name:"lazy thresholds = reference"
    QCheck2.Gen.(list_size (int_bound 12) gen_imm)
    (fun imms ->
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
       let built = Analyze.thresholds env in
       built = ref_thresholds consts
       && Regstate.mk_thresholds consts = ref_thresholds consts
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
    (counted.Venv.thresholds = Some (ref_thresholds [ 1000L; 1000L ]))

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

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_loadcost"
    [
      ( "classifier",
        [ Alcotest.test_case "documented examples" `Quick classify_examples;
          Alcotest.test_case "corpus and generated rejections" `Quick
            classify_rejections;
          qt classify_random;
          Alcotest.test_case "allocation-free" `Quick classify_no_alloc ] );
      ( "per-pc tables",
        [ qt tables_equal;
          Alcotest.test_case "generated loops" `Quick tables_see_loops ] );
      ( "thresholds",
        [ qt thresholds_equal;
          Alcotest.test_case "built on demand" `Quick thresholds_lazy ] );
      ( "aux seed",
        [ Alcotest.test_case "untouched by a sharded witness+lint campaign"
            `Quick seed_untouched ] );
    ]
