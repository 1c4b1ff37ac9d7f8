(* The injected-bug reproducers: for each Table 2 bug (and
   CVE-2022-23222) one program that shows it on a kernel carrying that
   bug, with the map it needs created in the given session.  Building
   in a fresh session gives the same fds, so two fresh sessions load
   equal requests.  test_bugs holds the ground truth each one shows;
   test_hotpath loads them through memoised analyses. *)

module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Helper = Bvf_ebpf.Helper
module Kconfig = Bvf_kernel.Kconfig
module Map = Bvf_kernel.Map
module Verifier = Bvf_verifier.Verifier
module Loader = Bvf_runtime.Loader

let r0 = Insn.R0
let r1 = Insn.R1
let r2 = Insn.R2
let r3 = Insn.R3
let r4 = Insn.R4
let r6 = Insn.R6
let r10 = Insn.R10

type t = {
  bug : Kconfig.bug;
  prog_type : Prog.prog_type;
  attach : string option;
  offload : bool;
  build : Loader.t -> Insn.t array;
}

let request (r : t) (session : Loader.t) : Verifier.request =
  { Verifier.r_prog_type = r.prog_type; r_attach = r.attach;
    r_offload = r.offload; r_insns = r.build session }

(* Listing 2: nullness propagation against a runtime-NULL BTF pointer. *)
let bug1 =
  {
    bug = Kconfig.Bug1_nullness_propagation;
    prog_type = Prog.Kprobe;
    attach = None;
    offload = false;
    build =
      (fun session ->
         let fd = Loader.create_map session (Map.hash_def ()) in
         Asm.prog
           [ [ Asm.ld_btf_obj r6 2 (* percpu_slot: NULL at runtime *);
               Asm.st_dw r10 (-8) 0l;
               Asm.ld_map_fd r1 fd;
               Asm.mov64_reg r2 r10;
               Asm.alu64_imm Insn.Add r2 (-8l);
               Asm.call 1;
               Asm.jmp_reg Insn.Jeq r0 r6 2;
               Asm.mov64_imm r0 0l;
               Asm.exit_;
               Asm.ldx_dw r1 r0 0 ];
             Asm.ret 0l ]);
  }

(* Task-struct window inflated by 64 bytes. *)
let bug2 =
  {
    bug = Kconfig.Bug2_btf_size_check;
    prog_type = Prog.Kprobe;
    attach = None;
    offload = false;
    build =
      (fun _ ->
         Asm.prog
           [ [ Asm.ld_btf_obj r6 1; Asm.ldx_dw r3 r6 288 ]; Asm.ret 0l ]);
  }

(* Kfunc-scalar pruning: the unbounded arm is pruned away. *)
let bug3 =
  {
    bug = Kconfig.Bug3_backtrack_precision;
    prog_type = Prog.Kprobe;
    attach = None;
    offload = false;
    build =
      (fun session ->
         let fd =
           Loader.create_map session (Map.array_def ~value_size:48 ())
         in
         Asm.prog
           [ [ Asm.ld_map_value r6 fd 0;
               Asm.mov64_imm r1 100l;
               Asm.call_kfunc Helper.kfunc_obj_id.Helper.kid;
               Asm.mov64_reg Insn.R7 r0;
               (* fall-through arm bounds r7; taken arm does not *)
               Asm.jmp_imm Insn.Jgt Insn.R7 7l 1;
               Asm.ja 0;
               Asm.alu64_reg Insn.Add r6 Insn.R7;
               Asm.ldx_b r3 r6 0 ];
             Asm.ret 0l ]);
  }

(* Kprobe on bpf_trace_printk that itself calls trace_printk. *)
let bug4 =
  {
    bug = Kconfig.Bug4_trace_printk_recursion;
    prog_type = Prog.Kprobe;
    attach = Some "kprobe:bpf_trace_printk";
    offload = false;
    build =
      (fun _ ->
         Asm.prog
           [ [ Asm.st_dw r10 (-8) 72l;
               Asm.mov64_reg r1 r10;
               Asm.alu64_imm Insn.Add r1 (-8l);
               Asm.mov64_imm r2 8l;
               Asm.mov64_imm r3 0l;
               Asm.call Helper.trace_printk.Helper.id ];
             Asm.ret 0l ]);
  }

(* Figure 2: lock-acquiring program attached to contention_begin; the
   spin-lock hash map [fd] is the standard campaign map of that
   definition. *)
let spin_lock_map = Map.hash_def ~value_size:64 ~has_spin_lock:true ()

let bug5_prog (fd : int) : Insn.t array =
  Asm.prog
    [ [ Asm.st_dw r10 (-8) 1l ];
      List.init 8 (fun i -> Asm.st_dw r10 (-80 + (8 * i)) 0l);
      [ Asm.ld_map_fd r1 fd;
        Asm.mov64_reg r2 r10;
        Asm.alu64_imm Insn.Add r2 (-8l);
        Asm.mov64_reg r3 r10;
        Asm.alu64_imm Insn.Add r3 (-80l);
        Asm.mov64_imm r4 0l;
        Asm.call Helper.map_update_elem.Helper.id;
        Asm.ld_map_fd r1 fd;
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
      Asm.ret 0l ]

let bug5 =
  {
    bug = Kconfig.Bug5_contention_begin_attach;
    prog_type = Prog.Tracepoint;
    attach = Some "contention_begin";
    offload = false;
    build =
      (fun session -> bug5_prog (Loader.create_map session spin_lock_map));
  }

(* send_signal from an NMI attach context. *)
let bug6 =
  {
    bug = Kconfig.Bug6_signal_send_nmi;
    prog_type = Prog.Perf_event;
    attach = Some "perf_event_nmi";
    offload = false;
    build =
      (fun _ ->
         Asm.prog
           [ [ Asm.mov64_imm r1 9l;
               Asm.call Helper.send_signal.Helper.id ];
             Asm.ret 0l ]);
  }

(* CVE-2022-23222 (Listing 1): ALU on a nullable map-value pointer. *)
let cve =
  {
    bug = Kconfig.Cve_2022_23222;
    prog_type = Prog.Socket_filter;
    attach = None;
    offload = false;
    build =
      (fun session ->
         let fd = Loader.create_map session (Map.hash_def ()) in
         Asm.prog
           [ [ Asm.st_dw r10 (-8) 3l (* absent key: lookup is NULL *);
               Asm.ld_map_fd r1 fd;
               Asm.mov64_reg r2 r10;
               Asm.alu64_imm Insn.Add r2 (-8l);
               Asm.call 1;
               (* the buggy verifier permits arithmetic on the nullable
                  pointer; at runtime r0 = NULL + 2048 dodges the null
                  check, and the negative-offset store then writes to
                  the null page - the CVE's exploitation pattern *)
               Asm.alu64_imm Insn.Add r0 2048l;
               Asm.jmp_imm Insn.Jne r0 0l 2;
               Asm.mov64_imm r0 0l;
               Asm.exit_;
               Asm.st_dw r0 (-2048) 7l ];
             Asm.ret 0l ]);
  }

(* Two XDP attachments arm the dispatcher race. *)
let bug7 =
  {
    bug = Kconfig.Bug7_dispatcher_race;
    prog_type = Prog.Xdp;
    attach = None;
    offload = false;
    build = (fun _ -> Asm.prog [ Asm.ret 2l ]);
  }

(* Oversized program trips the kmemdup limit at load time. *)
let bug8 =
  {
    bug = Kconfig.Bug8_kmemdup_limit;
    prog_type = Prog.Socket_filter;
    attach = None;
    offload = false;
    build =
      (fun session ->
         let fd = Loader.create_map session (Map.array_def ()) in
         Asm.prog
           [ [ Asm.ld_map_value r6 fd 0 ];
             List.concat
               (List.init 600 (fun i ->
                    [ Asm.st_w r6 (4 * (i mod 10)) (Int32.of_int i) ]));
             Asm.ret 1l ]);
  }

(* Three deletes on a hash map hit the contended bucket path. *)
let bug9 =
  {
    bug = Kconfig.Bug9_map_bucket_iter;
    prog_type = Prog.Socket_filter;
    attach = None;
    offload = false;
    build =
      (fun session ->
         let fd = Loader.create_map session (Map.hash_def ()) in
         Asm.prog
           [ [ Asm.st_dw r10 (-8) 1l ];
             List.concat
               (List.init 3 (fun _ ->
                    [ Asm.ld_map_fd r1 fd;
                      Asm.mov64_reg r2 r10;
                      Asm.alu64_imm Insn.Add r2 (-8l);
                      Asm.call Helper.map_delete_elem.Helper.id ]));
             Asm.ret 0l ]);
  }

(* ringbuf_output from hard-irq context queues irq_work unsafely. *)
let bug10 =
  {
    bug = Kconfig.Bug10_irq_work_lock;
    prog_type = Prog.Perf_event;
    attach = Some "perf_event_cycles";
    offload = false;
    build =
      (fun session ->
         let fd = Loader.create_map session (Map.ringbuf_def ()) in
         Asm.prog
           [ [ Asm.st_dw r10 (-16) 5l;
               Asm.st_dw r10 (-8) 5l;
               Asm.ld_map_fd r1 fd;
               Asm.mov64_reg r2 r10;
               Asm.alu64_imm Insn.Add r2 (-16l);
               Asm.mov64_imm r3 16l;
               Asm.mov64_imm r4 0l;
               Asm.call Helper.ringbuf_output.Helper.id ];
             Asm.ret 0l ]);
  }

(* Offloaded XDP program executed on the host. *)
let bug11 =
  {
    bug = Kconfig.Bug11_xdp_host_exec;
    prog_type = Prog.Xdp;
    attach = None;
    offload = true;
    build = (fun _ -> Asm.prog [ Asm.ret 2l ]);
  }

(* The eleven Table 2 bugs, in order. *)
let table2 =
  [ bug1; bug2; bug3; bug4; bug5; bug6; bug7; bug8; bug9; bug10; bug11 ]
