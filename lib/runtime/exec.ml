open Rimport

(* The execution engine: a concrete interpreter standing in for the JIT.

   Memory behaviour follows the two-path model of {!Kmem}: the program's
   own loads/stores go through the raw (unchecked) path like native
   code, while the sanitizing bpf_asan calls injected by the rewrite
   pass consult KASAN shadow memory and report indicator-#1 anomalies.
   Helper calls may append indicator-#2 reports; execution aborts as
   soon as any new report lands.

   Attach points are honoured: executing a program runs any programs
   attached to events its helpers fire (tracepoints, the contention
   path), which is how the paper's deadlock bugs manifest. *)

type status =
  | Finished of int64 (* R0 *)
  | Aborted           (* a bug report was raised *)
  | Error of string   (* execution environment problem, not a bug *)

type result = {
  status : status;
  insns_executed : int;
  reports : Report.t list; (* new reports produced by this run *)
  witness : Report.t list;
      (* witness-oracle escapes (Report.Witness_escape), deduplicated.
         Kept out of [reports]: an escape is evidence, not an abort —
         execution continues so the run's primary outcome (and the
         campaign's determinism digest) is unchanged *)
}

(* Environment errors that model transient resource exhaustion (injected
   allocation failures): a campaign may retry these. *)
let is_transient (s : status) : bool =
  match s with
  | Error msg -> String.length msg >= 6 && String.sub msg 0 6 = "ENOMEM"
  | Finished _ | Aborted -> false

let fuel_limit = 65_536

(* Deterministic packet contents. *)
let packet_size = 96

let fill_packet (r : Kmem.region) : unit =
  for i = 0 to r.Kmem.size - 1 do
    Bytes.set r.Kmem.data i (Char.chr ((i * 7 + 13) land 0xff))
  done

(* Context scalar field values visible to the program. *)
let fill_ctx (layout : Prog.ctx_layout) (r : Kmem.region) : unit =
  List.iter
    (fun f ->
       match f.Prog.fkind with
       | Prog.Fk_scalar ->
         Word.set_le r.Kmem.data f.Prog.foff f.Prog.fsize
           (Int64.of_int ((f.Prog.foff * 31 + 5) land 0xffff))
       | Prog.Fk_pkt_data | Prog.Fk_pkt_end -> ())
    layout.Prog.fields

(* -- Pre-decoded programs --------------------------------------------- *)

(* Re-dispatching on the [Insn.t] variant every step repeats work that
   is fixed for the lifetime of a loaded program: register projections,
   jump-target arithmetic, immediate widening, helper/kfunc table
   lookups, the fired-tracepoint list and the per-pc exception-table
   flag.  A loaded program is compiled once into a flat decoded op
   table and the interpreter runs over that. *)

type dsrc = D_imm of int64 | D_reg of int

type dop =
  | D_neg of int                        (* 64-bit neg dst *)
  | D_neg32 of int
  | D_alu of Insn.alu_op * int * dsrc   (* 64-bit *)
  | D_alu32 of Insn.alu_op * int * dsrc
  | D_endian of bool * int * int        (* swap, bits, dst *)
  | D_ld64 of int * int64
  | D_ld64_unresolved
  | D_ldx of { size : int; dst : int; src : int; off : int; handled : bool }
  | D_st of { size : int; dst : int; off : int; imm : int64 }
  | D_stx of { size : int; dst : int; src : int; off : int }
  | D_atomic of { size : int; w32 : bool; aop : Insn.atomic_op;
                  fetch : bool; dst : int; src : int; off : int }
  | D_ja of int                         (* absolute target *)
  | D_jmp of { op32 : bool; cond : Insn.cond; dst : int; src : dsrc;
               target : int }
  | D_asan of Helper.t                  (* internal sanitizer call *)
  | D_helper of { h : Helper.t; tps : Tracepoint.t list }
  | D_helper_unknown of int
  | D_kfunc of Helper.kfunc
  | D_kfunc_unknown of int
  | D_local of int                      (* bpf2bpf target, absolute *)
  | D_exit

let decode_insn (aux : Venv.aux array) (pc : int) (insn : Insn.t) : dop =
  let ri = Insn.reg_to_int in
  match insn with
  | Insn.Alu { op64; op = Insn.Neg; dst; _ } ->
    if op64 then D_neg (ri dst) else D_neg32 (ri dst)
  | Insn.Alu { op64; op; dst; src } ->
    let s =
      match src with
      | Insn.Imm i -> D_imm (Int64.of_int32 i)
      | Insn.Reg r -> D_reg (ri r)
    in
    if op64 then D_alu (op, ri dst, s) else D_alu32 (op, ri dst, s)
  | Insn.Endian { swap; bits; dst } -> D_endian (swap, bits, ri dst)
  | Insn.Ld_imm64 (dst, Insn.Const v) -> D_ld64 (ri dst, v)
  | Insn.Ld_imm64 (_, _) -> D_ld64_unresolved
  | Insn.Ldx { sz; dst; src; off } ->
    D_ldx { size = Insn.size_bytes sz; dst = ri dst; src = ri src; off;
            handled = aux.(pc).Venv.exception_handled }
  | Insn.St { sz; dst; off; imm } ->
    D_st { size = Insn.size_bytes sz; dst = ri dst; off;
           imm = Int64.of_int32 imm }
  | Insn.Stx { sz; dst; src; off } ->
    D_stx { size = Insn.size_bytes sz; dst = ri dst; src = ri src; off }
  | Insn.Atomic { sz; op; fetch; dst; src; off } ->
    D_atomic { size = Insn.size_bytes sz; w32 = (sz = Insn.W); aop = op;
               fetch; dst = ri dst; src = ri src; off }
  | Insn.Ja off -> D_ja (pc + 1 + off)
  | Insn.Jmp { op32; cond; dst; src; off } ->
    let s =
      match src with
      | Insn.Imm i -> D_imm (Int64.of_int32 i)
      | Insn.Reg r -> D_reg (ri r)
    in
    D_jmp { op32; cond; dst = ri dst; src = s; target = pc + 1 + off }
  | Insn.Call (Insn.Helper id) -> begin
      match Helper.find id with
      | None -> D_helper_unknown id
      | Some h when h.Helper.internal -> D_asan h
      | Some h ->
        D_helper { h; tps = Tracepoint.fired_by_helper h.Helper.name }
    end
  | Insn.Call (Insn.Kfunc id) -> begin
      match Helper.find_kfunc id with
      | None -> D_kfunc_unknown id
      | Some kf -> D_kfunc kf
    end
  | Insn.Call (Insn.Local off) -> D_local (pc + 1 + off)
  | Insn.Exit -> D_exit

(* Seeded with the immediate [D_exit], not built by [Array.mapi]: a
   young seed would force a minor collection for every program above
   256 instructions (DESIGN.md section 8). *)
let decode (prog : Verifier.loaded) : dop array =
  let insns = prog.Verifier.l_insns and aux = prog.Verifier.l_aux in
  let dops = Array.make (Array.length insns) D_exit in
  Array.iteri (fun pc insn -> dops.(pc) <- decode_insn aux pc insn) insns;
  dops

(* Per-domain decode cache keyed by physical equality of the loaded
   program.  A few entries, most-recently-used first: within one
   execution a parent program and the programs attached to its events
   alternate, so a single slot would thrash. *)
let decode_cache_cap = 8

let decode_cache : (Verifier.loaded * dop array) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let decoded (prog : Verifier.loaded) : dop array =
  let cache = Domain.DLS.get decode_cache in
  match List.find_opt (fun (p, _) -> p == prog) !cache with
  | Some (_, dops) -> dops
  | None ->
    let dops = decode prog in
    let keep = List.filteri (fun i _ -> i < decode_cache_cap - 1) !cache in
    cache := (prog, dops) :: keep;
    dops

type env = {
  kst : Kstate.t;
  prog : Verifier.loaded;
  regs : int64 array; (* R0..R11 *)
  mutable pc : int;
  mutable fuel : int;
  mutable call_stack : (int * int64 array * Kmem.region) list;
      (* return pc, saved R6..R10, stack region to free *)
  ctx_region : Kmem.region;
  pkt_region : Kmem.region option;
  henv : Helpers_impl.env;
  baseline_reports : int;
  (* nested program execution on events *)
  run_attached : string -> unit;
  (* witness oracle: escapes accumulate here, deduplicated by
     fingerprint, never through Kstate.report (which would abort) *)
  mutable witness_escapes : Report.t list;
  mutable witness_count : int; (* = List.length witness_escapes *)
  witness_seen : (string, unit) Hashtbl.t;
}

(* Cap per run: a systematically wrong bound would otherwise record an
   escape at every loop iteration. *)
let max_witness_escapes = 16

(* Check the concrete register file against the abstract states the
   verifier recorded for this pc (R0..R10 of the innermost frame).
   The recorded-escape count is a mutable int so the cap check is O(1),
   and scanning stops as soon as the cap is reached. *)
let check_witness (e : env) ~(pc : int) : unit =
  if e.witness_count < max_witness_escapes then
    match e.prog.Verifier.l_aux.(pc).Venv.witness with
    | None -> () (* rewrite-emitted insn, or never analyzed *)
    | Some doms ->
      let i = ref 0 in
      while !i <= 10 && e.witness_count < max_witness_escapes do
        let v = e.regs.(!i) in
        if not (Bvf_verifier.Witness.contains doms.(!i) v) then begin
          let r =
            Report.make ~pc Report.Sanitizer
              (Report.Witness_escape
                 { wreg = !i; wvalue = v;
                   wclaim = Bvf_verifier.Witness.describe doms.(!i);
                   wclass = Bvf_verifier.Witness.wclass doms.(!i) })
          in
          let fp = Report.fingerprint r in
          if not (Hashtbl.mem e.witness_seen fp) then begin
            Hashtbl.replace e.witness_seen fp ();
            e.witness_escapes <- r :: e.witness_escapes;
            e.witness_count <- e.witness_count + 1
          end
        end;
        incr i
      done

let new_reports (e : env) : Report.t list =
  Kstate.reports_since e.kst e.baseline_reports

let has_new_report (e : env) : bool =
  Kstate.report_count e.kst > e.baseline_reports

let alu64 (op : Insn.alu_op) (d : int64) (s : int64) : int64 =
  match op with
  | Insn.Add -> Int64.add d s
  | Insn.Sub -> Int64.sub d s
  | Insn.Mul -> Int64.mul d s
  | Insn.Div -> Word.udiv d s
  | Insn.Mod -> Word.umod d s
  | Insn.Or -> Int64.logor d s
  | Insn.And -> Int64.logand d s
  | Insn.Xor -> Int64.logxor d s
  | Insn.Lsh -> Word.shl64 d s
  | Insn.Rsh -> Word.shr64 d s
  | Insn.Arsh -> Word.ashr64 d s
  | Insn.Neg -> Int64.neg d
  | Insn.Mov -> s

let alu32 (op : Insn.alu_op) (d : int64) (s : int64) : int64 =
  let d32 = Word.to_u32 d and s32 = Word.to_u32 s in
  match op with
  | Insn.Add -> Word.to_u32 (Int64.add d32 s32)
  | Insn.Sub -> Word.to_u32 (Int64.sub d32 s32)
  | Insn.Mul -> Word.to_u32 (Int64.mul d32 s32)
  | Insn.Div -> Word.to_u32 (Word.udiv d32 s32)
  | Insn.Mod -> Word.to_u32 (Word.umod d32 s32)
  | Insn.Or -> Word.to_u32 (Int64.logor d32 s32)
  | Insn.And -> Word.to_u32 (Int64.logand d32 s32)
  | Insn.Xor -> Word.to_u32 (Int64.logxor d32 s32)
  | Insn.Lsh -> Word.shl32 d32 s32
  | Insn.Rsh -> Word.shr32 d32 s32
  | Insn.Arsh -> Word.ashr32 d32 s32
  | Insn.Neg -> Word.to_u32 (Int64.neg d32)
  | Insn.Mov -> s32

let eval_cond (op32 : bool) (cond : Insn.cond) (d : int64) (s : int64) :
  bool =
  let d, s =
    if op32 then (Word.to_u32 d, Word.to_u32 s) else (d, s)
  in
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

(* The sanitizing functions: KASAN checks driven from eBPF level.
   All registers except R0's return value are preserved (the paper's
   extended-stack backup); since these are R_void, everything holds. *)
let exec_asan (e : env) ~(pc : int) (h : Helper.t) : unit =
  let addr = e.regs.(1) in
  let code = h.Helper.id - Helper.asan_base in
  if code = 0x20 then
    (* bpf_asan_check_alu is only reached when the inline comparison
       against the limit already failed *)
    Kstate.report e.kst
      (Report.make ~pc Report.Sanitizer
         (Report.Alu_limit { actual = addr; limit = -1L; is_sub = false }))
  else if code >= 0x30 then begin
    (* probe variant: faulting (NULL/unmapped) addresses are handled by
       the exception table; only KASAN poisoning is a bug *)
    let size = code land 0x0f in
    match Kmem.check e.kst.Kstate.mem Kmem.Read ~addr ~size with
    | Ok () -> ()
    | Error ({ Kmem.fkind = Kmem.Oob (Bvf_kernel.Shadow.Redzone
                                     | Bvf_kernel.Shadow.Freed); _ } as
             fault) ->
      Kstate.report e.kst
        (Report.make ~pc Report.Sanitizer (Report.Mem_fault fault))
    | Error _ -> ()
  end
  else begin
    let load = code < 0x10 in
    let size = code land 0x0f in
    let access = if load then Kmem.Read else Kmem.Write in
    match Kmem.check e.kst.Kstate.mem access ~addr ~size with
    | Ok () -> ()
    | Error fault ->
      Kstate.report e.kst
        (Report.make ~pc Report.Sanitizer (Report.Mem_fault fault))
  end

(* Context pkt_data/pkt_end fields: the ctx rewrite loads real pointers. *)
let ctx_field_at (e : env) (addr : int64) (size : int) :
  Prog.field option =
  let base = e.ctx_region.Kmem.base in
  let off = Int64.to_int (Int64.sub addr base) in
  if Word.uge addr base
     && off < e.ctx_region.Kmem.size then
    Prog.field_at (Prog.ctx_layout e.prog.Verifier.l_prog_type) ~off ~size
  else None

let exec_load (e : env) ~(pc : int) ~(size : int) ~(dst : int)
    ~(src : int) ~(off : int) ~(handled : bool) : bool =
  let addr = Int64.add e.regs.(src) (Int64.of_int off) in
  (* ctx packet-pointer fields materialize real pointers *)
  match ctx_field_at e addr size with
  | Some { Prog.fkind = Prog.Fk_pkt_data; _ } ->
    e.regs.(dst) <-
      (match e.pkt_region with Some p -> p.Kmem.base | None -> 0L);
    true
  | Some { Prog.fkind = Prog.Fk_pkt_end; _ } ->
    e.regs.(dst) <-
      (match e.pkt_region with
       | Some p -> Int64.add p.Kmem.base (Int64.of_int p.Kmem.size)
       | None -> 0L);
    true
  | _ -> begin
      match Kmem.raw_load e.kst.Kstate.mem ~addr ~size with
      | Ok v ->
        e.regs.(dst) <- v;
        true
      | Error fault ->
        if handled then begin
          (* BTF probe-read semantics: fault yields zero, no report *)
          e.regs.(dst) <- 0L;
          true
        end
        else begin
          Kstate.report e.kst
            (Report.make ~pc Report.Bpf_native (Report.Mem_fault fault));
          false
        end
    end

let exec_store (e : env) ~(pc : int) ~(size : int) ~(addr_reg : int)
    ~(off : int) (v : int64) : bool =
  let addr = Int64.add e.regs.(addr_reg) (Int64.of_int off) in
  match Kmem.raw_store e.kst.Kstate.mem ~addr ~size v with
  | Ok () -> true
  | Error fault ->
    Kstate.report e.kst
      (Report.make ~pc Report.Bpf_native (Report.Mem_fault fault));
    false

let exec_atomic (e : env) ~(pc : int) ~(size : int) ~(w32 : bool)
    ~(aop : Insn.atomic_op) ~(fetch : bool) ~(dst : int) ~(src : int)
    ~(off : int) : bool =
  let addr = Int64.add e.regs.(dst) (Int64.of_int off) in
  let mem = e.kst.Kstate.mem in
  match Kmem.raw_load mem ~addr ~size with
  | Error fault ->
    Kstate.report e.kst
      (Report.make ~pc Report.Bpf_native (Report.Mem_fault fault));
    false
  | Ok old ->
    let operand = e.regs.(src) in
    let updated =
      match aop with
      | Insn.A_add -> Int64.add old operand
      | Insn.A_or -> Int64.logor old operand
      | Insn.A_and -> Int64.logand old operand
      | Insn.A_xor -> Int64.logxor old operand
      | Insn.A_xchg -> operand
      | Insn.A_cmpxchg -> if old = e.regs.(0) then operand else old
    in
    let updated = if w32 then Word.to_u32 updated else updated in
    (match Kmem.raw_store mem ~addr ~size updated with
     | Error fault ->
       Kstate.report e.kst
         (Report.make ~pc Report.Bpf_native (Report.Mem_fault fault));
       false
     | Ok () ->
       if aop = Insn.A_cmpxchg then e.regs.(0) <- old
       else if fetch then e.regs.(src) <- old;
       true)

(* caller-saved clobber after helper/kfunc calls: deterministic poison *)
let poison = 0xDEAD_BEEF_0000_0000L

(* Run the program to completion over its decoded op table. *)
let run_loop (e : env) (dops : dop array) : status =
  let n = Array.length dops in
  let regs = e.regs in
  let witness_on = e.kst.Kstate.config.Kconfig.witness in
  let rec step () : status =
    if e.fuel <= 0 then begin
      Kstate.report e.kst
        (Report.make ~pc:e.pc Report.Bpf_native Report.Runaway_execution);
      Aborted
    end
    else if e.pc < 0 || e.pc >= n then
      Error (Printf.sprintf "pc %d out of range" e.pc)
    else begin
      e.fuel <- e.fuel - 1;
      let pc = e.pc in
      if witness_on then check_witness e ~pc;
      match Array.unsafe_get dops pc with
      | D_alu (op, dst, src) ->
        regs.(dst) <- alu64 op regs.(dst) (dval src);
        advance ()
      | D_alu32 (op, dst, src) ->
        regs.(dst) <- alu32 op regs.(dst) (dval src);
        advance ()
      | D_neg dst ->
        regs.(dst) <- Int64.neg regs.(dst);
        advance ()
      | D_neg32 dst ->
        regs.(dst) <- Word.to_u32 (Int64.neg (Word.to_u32 regs.(dst)));
        advance ()
      | D_endian (swap, bits, dst) ->
        let v = regs.(dst) in
        regs.(dst) <-
          (if not swap then Word.zext bits v
           else
             match bits with
             | 16 -> Word.bswap16 v
             | 32 -> Word.bswap32 v
             | _ -> Word.bswap64 v);
        advance ()
      | D_ld64 (dst, v) ->
        regs.(dst) <- v;
        advance ()
      | D_ld64_unresolved ->
        Error "unresolved ld_imm64 pseudo (program not fixed up)"
      | D_ldx { size; dst; src; off; handled } ->
        if exec_load e ~pc ~size ~dst ~src ~off ~handled then advance ()
        else Aborted
      | D_st { size; dst; off; imm } ->
        if exec_store e ~pc ~size ~addr_reg:dst ~off imm then advance ()
        else Aborted
      | D_stx { size; dst; src; off } ->
        if exec_store e ~pc ~size ~addr_reg:dst ~off regs.(src) then
          advance ()
        else Aborted
      | D_atomic { size; w32; aop; fetch; dst; src; off } ->
        if exec_atomic e ~pc ~size ~w32 ~aop ~fetch ~dst ~src ~off then
          advance ()
        else Aborted
      | D_ja target ->
        e.pc <- target;
        step ()
      | D_jmp { op32; cond; dst; src; target } ->
        e.pc <-
          (if eval_cond op32 cond regs.(dst) (dval src) then target
           else pc + 1);
        step ()
      | D_asan h ->
        exec_asan e ~pc h;
        if has_new_report e then Aborted else advance ()
      | D_helper { h; tps } ->
        (* helpers fire their kprobe attach points *)
        List.iter (fun tp -> e.run_attached tp.Tracepoint.tp_name) tps;
        if has_new_report e then Aborted
        else begin
          let args = Array.init 5 (fun i -> regs.(i + 1)) in
          let r0 = Helpers_impl.call e.kst e.henv ~pc h args in
          regs.(0) <- r0;
          for i = 1 to 5 do regs.(i) <- poison done;
          if has_new_report e then Aborted else advance ()
        end
      | D_helper_unknown id ->
        Kstate.report e.kst
          (Report.make ~pc (Report.Kernel_routine "bpf_call")
             (Report.Warn (Printf.sprintf "call to unknown helper %d" id)));
        Aborted
      | D_kfunc kf ->
        let args = Array.init 5 (fun i -> regs.(i + 1)) in
        regs.(0) <- Helpers_impl.call_kfunc e.kst ~pc kf args;
        for i = 1 to 5 do regs.(i) <- poison done;
        if has_new_report e then Aborted else advance ()
      | D_kfunc_unknown id ->
        Kstate.report e.kst
          (Report.make ~pc (Report.Kernel_routine "bpf_kfunc")
             (Report.Warn (Printf.sprintf "unknown kfunc %d" id)));
        Aborted
      | D_local target ->
        (* save callee-saved registers and the frame pointer, switch to
           a fresh stack.  The frame allocation can fail under fault
           injection: a clean environment error, not a bug. *)
        if
          Bvf_kernel.Failslab.should_fail e.kst.Kstate.failslab
            ~site:"bpf2bpf_stack"
        then Error "ENOMEM: bpf2bpf stack frame allocation failed"
        else begin
          let saved = Array.init 5 (fun i -> regs.(i + 6)) in
          let stack =
            Kmem.alloc e.kst.Kstate.mem
              ~kind:(Kmem.Stack (List.length e.call_stack + 1))
              ~size:Prog.stack_size
          in
          e.call_stack <- (pc + 1, saved, stack) :: e.call_stack;
          regs.(10) <-
            Int64.add stack.Kmem.base (Int64.of_int Prog.stack_size);
          e.pc <- target;
          step ()
        end
      | D_exit -> begin
          match e.call_stack with
          | [] -> Finished regs.(0)
          | (ret_pc, saved, stack) :: rest ->
            e.call_stack <- rest;
            Array.iteri (fun i v -> regs.(i + 6) <- v) saved;
            Kmem.free e.kst.Kstate.mem stack;
            e.pc <- ret_pc;
            step ()
        end
    end
  and dval (s : dsrc) : int64 =
    match s with D_imm v -> v | D_reg r -> regs.(r)
  and advance () =
    e.pc <- e.pc + 1;
    step ()
  in
  step ()

(* Execute [prog] once against [kst].  [run_attached name] is invoked
   for every event fired during execution (installed by the loader to
   run attached programs; depth-limited there). *)
let run (kst : Kstate.t) ~(run_attached : string -> unit)
    (prog : Verifier.loaded) : result =
  (* Bug#11: device-offloaded programs must never run on the host *)
  if prog.Verifier.l_offload then begin
    if Kstate.has_bug kst Kconfig.Bug11_xdp_host_exec then begin
      Kstate.report kst
        (Report.make (Report.Kernel_routine "bpf_prog_run_xdp")
           (Report.Warn "device-bound program executed on the host"));
      { status = Aborted; insns_executed = 0;
        reports =
          (match Kstate.peek_reports kst with
           | [] -> []
           | l -> [ List.nth l (List.length l - 1) ]);
        witness = [] }
    end
    else
      { status = Error "offloaded program cannot run on host";
        insns_executed = 0; reports = []; witness = [] }
  end
  else begin
    let baseline = Kstate.report_count kst in
    let mem = kst.Kstate.mem in
    let layout = Prog.ctx_layout prog.Verifier.l_prog_type in
    (* per-run scratch: any allocation may fail under fault injection,
       in which case the run never starts — a clean environment error *)
    let enomem taken what =
      List.iter (Kstate.pool_return kst) taken;
      { status =
          Error (Printf.sprintf "ENOMEM: %s allocation failed" what);
        insns_executed = 0; reports = []; witness = [] }
    in
    match
      Kstate.try_pool_take kst ~site:"exec_stack" ~kind:(Kmem.Stack 0)
        ~size:Prog.stack_size
    with
    | None -> enomem [] "bpf stack"
    | Some stack ->
    match
      Kstate.try_pool_take kst ~site:"exec_ctx" ~kind:Kmem.Ctx
        ~size:layout.Prog.ctx_size
    with
    | None -> enomem [ stack ] "context"
    | Some ctx_region ->
    match
      (if Prog.has_packet_access prog.Verifier.l_prog_type then
         match
           Kstate.try_pool_take kst ~site:"exec_packet" ~kind:Kmem.Packet
             ~size:packet_size
         with
         | None -> `Fail
         | Some p ->
           fill_packet p;
           `Take (Some p)
       else `Take None)
    with
    | `Fail -> enomem [ stack; ctx_region ] "packet"
    | `Take pkt_region ->
    fill_ctx layout ctx_region;
    let regs = Array.make 12 0L in
    regs.(1) <- ctx_region.Kmem.base;
    regs.(10) <- Int64.add stack.Kmem.base (Int64.of_int Prog.stack_size);
    let e =
      {
        kst;
        prog;
        regs;
        pc = 0;
        fuel = fuel_limit;
        call_stack = [];
        ctx_region;
        pkt_region;
        henv = { Helpers_impl.pkt = pkt_region };
        baseline_reports = baseline;
        run_attached;
        witness_escapes = [];
        witness_count = 0;
        witness_seen = Hashtbl.create 4;
      }
    in
    kst.Kstate.prog_depth <- kst.Kstate.prog_depth + 1;
    let status = run_loop e (decoded prog) in
    kst.Kstate.prog_depth <- kst.Kstate.prog_depth - 1;
    (* free leftover bpf2bpf stacks; return the scratch regions *)
    List.iter (fun (_, _, s) -> Kmem.free mem s) e.call_stack;
    Kstate.pool_return kst stack;
    Kstate.pool_return kst ctx_region;
    (match pkt_region with
     | Some p -> Kstate.pool_return kst p
     | None -> ());
    if kst.Kstate.prog_depth = 0 then Kstate.end_of_execution kst;
    let reports = new_reports e in
    let status = if reports <> [] && status <> Aborted then Aborted
      else status in
    { status; insns_executed = fuel_limit - e.fuel; reports;
      witness = List.rev e.witness_escapes }
  end
