(* Ground-truth tests for the injected bug corpus: for every Table 2 bug
   a hand-written reproducer triggers the corresponding indicator on a
   buggy kernel, and (for the verifier bugs) the FIXED kernel rejects
   the same program — the pair of behaviours the oracle's correctness
   argument rests on.  The programs themselves are in repros.ml. *)

module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Report = Bvf_kernel.Report
module Loader = Bvf_runtime.Loader
module Oracle = Bvf_core.Oracle

(* A reproducer with what it must show: the indicator on a kernel
   carrying only its bug, and (for the verifier bugs) a rejection on the
   FIXED kernel. *)
type repro = {
  prog : Repros.t;
  expect_indicator : Oracle.indicator option;
  fixed_rejects : bool; (* the fixed kernel must reject the program *)
}

let bug1 =
  { prog = Repros.bug1; expect_indicator = Some Oracle.Ind1;
    fixed_rejects = true }

let bug2 =
  { prog = Repros.bug2; expect_indicator = Some Oracle.Ind1;
    fixed_rejects = true }

let bug3 =
  { prog = Repros.bug3; expect_indicator = Some Oracle.Ind1;
    fixed_rejects = true }

let bug4 =
  { prog = Repros.bug4; expect_indicator = Some Oracle.Ind2;
    fixed_rejects = true }

let bug5 =
  { prog = Repros.bug5; expect_indicator = Some Oracle.Ind2;
    fixed_rejects = true }

let bug6 =
  { prog = Repros.bug6; expect_indicator = Some Oracle.Ind2;
    fixed_rejects = true }

let cve =
  { prog = Repros.cve; expect_indicator = Some Oracle.Ind1;
    fixed_rejects = true }

(* Two XDP attachments arm the dispatcher race. *)
let bug7_test () =
  let config = Kconfig.default Version.Bpf_next in
  let session = Loader.create config in
  let req = Repros.request Repros.bug7 session in
  let run () = Loader.load_and_run session req in
  let _ = run () in
  let second = run () in
  Alcotest.(check bool) "dispatcher null deref" true
    (List.exists
       (fun r ->
          match r.Report.origin with
          | Report.Kernel_routine "bpf_dispatcher_xdp_func" -> true
          | _ -> false)
       second.Loader.reports);
  (* fixed kernel: same sequence is clean *)
  let session = Loader.create (Kconfig.fixed Version.Bpf_next) in
  let req = Repros.request Repros.bug7 session in
  let run () = Loader.load_and_run session req in
  let _ = run () in
  let second = run () in
  Alcotest.(check int) "fixed has no reports" 0
    (List.length second.Loader.reports)

(* Oversized program trips the kmemdup limit at load time. *)
let bug8_test () =
  let config = Kconfig.default Version.Bpf_next in
  let session = Loader.create config in
  let result =
    Loader.load_and_run session (Repros.request Repros.bug8 session)
  in
  Alcotest.(check bool) "kmemdup warning" true
    (List.exists
       (fun r -> Oracle.attribute config r = Some Kconfig.Bug8_kmemdup_limit)
       result.Loader.reports);
  (* fixed kernel (kvmemdup) is silent *)
  let session = Loader.create (Kconfig.fixed Version.Bpf_next) in
  let result =
    Loader.load_and_run session (Repros.request Repros.bug8 session)
  in
  Alcotest.(check int) "no warning when fixed" 0
    (List.length result.Loader.reports)

(* Three deletes on a hash map hit the contended bucket path. *)
let bug9_test () =
  let config = Kconfig.default Version.Bpf_next in
  let session = Loader.create config in
  let result =
    Loader.load_and_run session (Repros.request Repros.bug9 session)
  in
  Alcotest.(check bool) "bucket OOB attributed" true
    (List.exists
       (fun r ->
          Oracle.attribute config r = Some Kconfig.Bug9_map_bucket_iter)
       result.Loader.reports)

(* ringbuf_output from hard-irq context queues irq_work unsafely. *)
let bug10_test () =
  let config = Kconfig.default Version.Bpf_next in
  let session = Loader.create config in
  let result =
    Loader.load_and_run session (Repros.request Repros.bug10 session)
  in
  Alcotest.(check bool) "irq_work lock bug" true
    (List.exists
       (fun r ->
          Oracle.attribute config r = Some Kconfig.Bug10_irq_work_lock)
       result.Loader.reports)

(* Offloaded XDP program executed on the host. *)
let bug11_test () =
  let config = Kconfig.default Version.Bpf_next in
  let session = Loader.create config in
  let result =
    Loader.load_and_run session (Repros.request Repros.bug11 session)
  in
  Alcotest.(check bool) "host exec warn" true
    (List.exists
       (fun r ->
          Oracle.attribute config r = Some Kconfig.Bug11_xdp_host_exec)
       result.Loader.reports)

(* -- Generic driver for the verifier-bug reproducers ---------------------- *)

let run_repro (r : repro) () =
  (* kernel carrying ONLY the bug under test: attribution is then
     unambiguous *)
  let buggy_config = Kconfig.make Version.Bpf_next ~bugs:[ r.prog.Repros.bug ] in
  let session = Loader.create buggy_config in
  let req = Repros.request r.prog session in
  let result = Loader.load_and_run session req in
  (match result.Loader.verdict with
   | Error e ->
     Alcotest.fail
       (Printf.sprintf "buggy kernel rejected the reproducer: %s"
          e.Bvf_verifier.Venv.vmsg)
   | Ok _ -> ());
  let findings = Oracle.classify buggy_config result in
  Alcotest.(check bool) "indicator fires" true
    (List.exists
       (fun f -> f.Oracle.f_indicator = r.expect_indicator)
       findings);
  Alcotest.(check bool) "attributed to the right bug" true
    (List.exists (fun f -> f.Oracle.f_bug = Some r.prog.Repros.bug)
       findings);
  (* fixed kernel: the same program is rejected *)
  if r.fixed_rejects then begin
    let session = Loader.create (Kconfig.fixed Version.Bpf_next) in
    match Loader.load_and_run session (Repros.request r.prog session) with
    | { Loader.verdict = Error _; _ } -> ()
    | { Loader.verdict = Ok _; _ } ->
      Alcotest.fail "fixed kernel accepted the reproducer"
  end

let () =
  Alcotest.run "bvf_bugs"
    [
      ( "verifier correctness bugs",
        [ Alcotest.test_case "bug1 nullness propagation" `Quick
            (run_repro bug1);
          Alcotest.test_case "bug2 btf size check" `Quick (run_repro bug2);
          Alcotest.test_case "bug3 kfunc pruning" `Quick (run_repro bug3);
          Alcotest.test_case "bug4 trace_printk recursion" `Quick
            (run_repro bug4);
          Alcotest.test_case "bug5 contention_begin" `Quick
            (run_repro bug5);
          Alcotest.test_case "bug6 send_signal nmi" `Quick
            (run_repro bug6);
          Alcotest.test_case "cve-2022-23222" `Quick (run_repro cve) ] );
      ( "ebpf component bugs",
        [ Alcotest.test_case "bug7 dispatcher race" `Quick bug7_test;
          Alcotest.test_case "bug8 kmemdup limit" `Quick bug8_test;
          Alcotest.test_case "bug9 bucket iteration" `Quick bug9_test;
          Alcotest.test_case "bug10 irq_work" `Quick bug10_test;
          Alcotest.test_case "bug11 xdp host exec" `Quick bug11_test ] );
    ]
