(* Tests for the simulated kernel substrate: shadow memory, the region
   allocator and its two access disciplines, lockdep, maps, tracepoints,
   the dispatcher and kernel configuration. *)

module Shadow = Bvf_kernel.Shadow
module Kmem = Bvf_kernel.Kmem
module Lockdep = Bvf_kernel.Lockdep
module Map = Bvf_kernel.Map
module Tracepoint = Bvf_kernel.Tracepoint
module Dispatcher = Bvf_kernel.Dispatcher
module Kconfig = Bvf_kernel.Kconfig
module Kstate = Bvf_kernel.Kstate
module Report = Bvf_kernel.Report
module Btf = Bvf_kernel.Btf
module Version = Bvf_ebpf.Version

(* -- Shadow memory -------------------------------------------------------- *)

let test_shadow_basic () =
  let s = Shadow.create () in
  Shadow.unpoison s ~addr:64L ~size:16;
  Alcotest.(check bool) "inside ok" true
    (Shadow.check s ~addr:64L ~size:16 = Ok ());
  Alcotest.(check bool) "partial ok" true
    (Shadow.check s ~addr:72L ~size:8 = Ok ());
  Alcotest.(check bool) "past end bad" true
    (Result.is_error (Shadow.check s ~addr:72L ~size:9));
  Alcotest.(check bool) "before bad" true
    (Result.is_error (Shadow.check s ~addr:56L ~size:8))

let test_shadow_partial_granule () =
  let s = Shadow.create () in
  Shadow.unpoison s ~addr:0L ~size:13;
  Alcotest.(check bool) "13 bytes ok" true
    (Shadow.check s ~addr:0L ~size:13 = Ok ());
  Alcotest.(check bool) "byte 12 ok" true
    (Shadow.check s ~addr:12L ~size:1 = Ok ());
  Alcotest.(check bool) "byte 13 bad" true
    (Result.is_error (Shadow.check s ~addr:13L ~size:1));
  Alcotest.(check bool) "14 bytes bad" true
    (Result.is_error (Shadow.check s ~addr:0L ~size:14))

let test_shadow_poison_codes () =
  let s = Shadow.create () in
  Shadow.unpoison s ~addr:0L ~size:8;
  Shadow.poison s ~addr:0L ~size:8 Shadow.Freed;
  (match Shadow.check s ~addr:0L ~size:8 with
   | Error { Shadow.bad_poison = Shadow.Freed; _ } -> ()
   | _ -> Alcotest.fail "expected freed poison");
  Shadow.poison s ~addr:0L ~size:8 Shadow.Redzone;
  (match Shadow.check s ~addr:4L ~size:1 with
   | Error { Shadow.bad_poison = Shadow.Redzone; _ } -> ()
   | _ -> Alcotest.fail "expected redzone poison")

(* qcheck: unpoisoned range is exactly the valid prefix *)
let shadow_prop =
  QCheck2.Test.make ~count:200 ~name:"shadow validity boundary"
    QCheck2.Gen.(pair (int_range 1 64) (int_range 0 80))
    (fun (size, probe) ->
       let s = Shadow.create () in
       Shadow.unpoison s ~addr:0L ~size;
       let ok =
         Shadow.check s ~addr:(Int64.of_int probe) ~size:1 = Ok ()
       in
       ok = (probe < size))

(* -- Kmem ------------------------------------------------------------------ *)

let test_kmem_checked_access () =
  let mem = Kmem.create () in
  let r = Kmem.alloc mem ~kind:(Kmem.Kernel_internal "t") ~size:32 in
  Alcotest.(check bool) "store ok" true
    (Kmem.checked_store mem ~addr:r.Kmem.base ~size:8 0xAAL = Ok ());
  (match Kmem.checked_load mem ~addr:r.Kmem.base ~size:8 with
   | Ok v -> Alcotest.(check int64) "load back" 0xAAL v
   | Error _ -> Alcotest.fail "load failed");
  (* one past the end: redzone *)
  (match
     Kmem.checked_load mem
       ~addr:(Int64.add r.Kmem.base 32L)
       ~size:1
   with
   | Error { Kmem.fkind = Kmem.Oob Shadow.Redzone; _ } -> ()
   | _ -> Alcotest.fail "expected redzone")

let test_kmem_use_after_free () =
  let mem = Kmem.create () in
  let r = Kmem.alloc mem ~kind:(Kmem.Map_elem 1) ~size:16 in
  Kmem.free mem r;
  match Kmem.checked_load mem ~addr:r.Kmem.base ~size:8 with
  | Error { Kmem.fkind = Kmem.Oob Shadow.Freed; _ } -> ()
  | _ -> Alcotest.fail "expected use-after-free"

let test_kmem_null_deref () =
  let mem = Kmem.create () in
  match Kmem.checked_load mem ~addr:8L ~size:8 with
  | Error { Kmem.fkind = Kmem.Null_deref; _ } -> ()
  | _ -> Alcotest.fail "expected null deref"

let test_kmem_raw_is_silent_in_redzone () =
  let mem = Kmem.create () in
  let r = Kmem.alloc mem ~kind:Kmem.Ctx ~size:32 in
  (* raw read one past the end: silently returns garbage, no fault *)
  (match Kmem.raw_load mem ~addr:(Int64.add r.Kmem.base 40L) ~size:8 with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "raw redzone read should be silent");
  (* far away: page fault *)
  match Kmem.raw_load mem ~addr:0x7000_0000_0000L ~size:8 with
  | Error { Kmem.fkind = Kmem.Page_fault; _ } -> ()
  | _ -> Alcotest.fail "expected page fault"

let test_kmem_raw_freed_is_silent () =
  let mem = Kmem.create () in
  let r = Kmem.alloc mem ~kind:(Kmem.Map_elem 1) ~size:16 in
  Kmem.free mem r;
  match Kmem.raw_load mem ~addr:r.Kmem.base ~size:8 with
  | Ok _ -> () (* native code reads freed memory without trapping *)
  | Error _ -> Alcotest.fail "raw UAF should be silent"

let test_kmem_compact () =
  let mem = Kmem.create () in
  let regions =
    List.init 100 (fun i ->
        Kmem.alloc mem ~kind:(Kmem.Map_elem i) ~size:16)
  in
  List.iter (Kmem.free mem) regions;
  Kmem.compact ~keep_freed:10 mem;
  (* recently freed regions keep UAF detection *)
  let recent = List.nth regions 99 in
  (match Kmem.checked_load mem ~addr:recent.Kmem.base ~size:8 with
   | Error { Kmem.fkind = Kmem.Oob Shadow.Freed; _ } -> ()
   | _ -> Alcotest.fail "recent freed region lost poison");
  (* old ones degrade to unallocated *)
  let old = List.nth regions 0 in
  match Kmem.checked_load mem ~addr:old.Kmem.base ~size:8 with
  | Error { Kmem.fkind = Kmem.Oob Shadow.Unallocated; _ } -> ()
  | Error { Kmem.fkind = Kmem.Oob Shadow.Freed; _ } ->
    Alcotest.fail "old region not reclaimed"
  | _ -> Alcotest.fail "old region still accessible"

(* qcheck: checked write/read roundtrip anywhere inside a region *)
let kmem_roundtrip_prop =
  QCheck2.Test.make ~count:200 ~name:"kmem checked roundtrip"
    QCheck2.Gen.(triple (int_range 8 128) (int_range 0 120)
                   (int_range 1 8))
    (fun (size, off, width) ->
       QCheck2.assume (off + width <= size);
       let mem = Kmem.create () in
       let r = Kmem.alloc mem ~kind:Kmem.Ctx ~size in
       let addr = Int64.add r.Kmem.base (Int64.of_int off) in
       let v = Int64.of_int (off * 77) in
       let v = Bvf_ebpf.Word.zext (width * 8) v in
       match Kmem.checked_store mem ~addr ~size:width v with
       | Error _ -> false
       | Ok () -> Kmem.checked_load mem ~addr ~size:width = Ok v)

(* -- Lockdep --------------------------------------------------------------- *)

let test_lockdep_recursion () =
  let l = Lockdep.create () in
  Lockdep.acquire l "a";
  Lockdep.acquire l "b";
  Alcotest.(check int) "no violations yet" 0
    (List.length (Lockdep.take_violations l));
  Lockdep.acquire l "a";
  match Lockdep.take_violations l with
  | [ Lockdep.Recursive_lock "a" ] -> ()
  | _ -> Alcotest.fail "expected recursive lock"

let test_lockdep_unbalanced () =
  let l = Lockdep.create () in
  Lockdep.release l "never-held";
  (match Lockdep.take_violations l with
   | [ Lockdep.Unlock_not_held _ ] -> ()
   | _ -> Alcotest.fail "expected unlock-not-held");
  Lockdep.acquire l "x";
  Lockdep.end_of_execution l;
  match Lockdep.take_violations l with
  | [ Lockdep.Held_at_exit [ "x" ] ] -> ()
  | _ -> Alcotest.fail "expected held-at-exit"

let test_lockdep_nmi () =
  let l = Lockdep.create () in
  l.Lockdep.ctx <- Lockdep.Nmi;
  Lockdep.acquire l "spin";
  match Lockdep.take_violations l with
  | [ Lockdep.Lock_in_nmi "spin" ] -> ()
  | _ -> Alcotest.fail "expected nmi lock violation"

let test_lockdep_balanced_ok () =
  let l = Lockdep.create () in
  Lockdep.acquire l "a";
  Lockdep.release l "a";
  Lockdep.end_of_execution l;
  Alcotest.(check int) "clean" 0 (List.length (Lockdep.take_violations l))

(* -- Maps ------------------------------------------------------------------ *)

let key_of_int n =
  let b = Bytes.make 8 '\000' in
  Bvf_ebpf.Word.set_le b 0 8 (Int64.of_int n);
  b

let test_array_map () =
  let mem = Kmem.create () in
  let m = Map.create mem ~id:1 (Map.array_def ~value_size:16 ~max_entries:4 ()) in
  (* all indices pre-exist *)
  Alcotest.(check bool) "index 0" true (Map.lookup m ~key:(key_of_int 0) <> None);
  Alcotest.(check bool) "index 3" true (Map.lookup m ~key:(key_of_int 3) <> None);
  Alcotest.(check bool) "index 4 out" true (Map.lookup m ~key:(key_of_int 4) = None);
  (* update writes through *)
  let value = Bytes.make 16 'x' in
  Alcotest.(check bool) "update" true
    (Map.update mem m ~key:(key_of_int 1) ~value = Ok ());
  (match Map.lookup m ~key:(key_of_int 1) with
   | Some addr ->
     (match Kmem.checked_load mem ~addr ~size:1 with
      | Ok v -> Alcotest.(check int64) "wrote x" (Int64.of_int (Char.code 'x')) v
      | Error _ -> Alcotest.fail "load")
   | None -> Alcotest.fail "lookup");
  (* deleting from an array map is invalid *)
  match Map.delete mem m ~key:(key_of_int 1) with
  | Error (Map.E_bad_op _), _ -> ()
  | _ -> Alcotest.fail "array delete should fail"

let test_hash_map_lifecycle () =
  let mem = Kmem.create () in
  let m = Map.create mem ~id:2 (Map.hash_def ~max_entries:2 ()) in
  Alcotest.(check bool) "miss" true (Map.lookup m ~key:(key_of_int 7) = None);
  let value = Bytes.make 48 'v' in
  Alcotest.(check bool) "insert" true
    (Map.update mem m ~key:(key_of_int 7) ~value = Ok ());
  Alcotest.(check bool) "hit" true (Map.lookup m ~key:(key_of_int 7) <> None);
  Alcotest.(check bool) "full" true
    (Map.update mem m ~key:(key_of_int 8) ~value = Ok ());
  (match Map.update mem m ~key:(key_of_int 9) ~value with
   | Error Map.E_no_space -> ()
   | _ -> Alcotest.fail "expected E2BIG");
  (* delete defers the free until end of execution *)
  let addr = Option.get (Map.lookup m ~key:(key_of_int 7)) in
  (match Map.delete mem m ~key:(key_of_int 7) with
   | Ok (), _ -> ()
   | _ -> Alcotest.fail "delete");
  Alcotest.(check bool) "gone from map" true
    (Map.lookup m ~key:(key_of_int 7) = None);
  Alcotest.(check bool) "rcu grace: still readable" true
    (Result.is_ok (Kmem.checked_load mem ~addr ~size:8));
  Map.end_of_execution mem m;
  match Kmem.checked_load mem ~addr ~size:8 with
  | Error { Kmem.fkind = Kmem.Oob Shadow.Freed; _ } -> ()
  | _ -> Alcotest.fail "expected UAF after grace period"

let test_hash_map_bug9 () =
  let mem = Kmem.create () in
  let m = Map.create mem ~id:3 (Map.hash_def ()) in
  (* the third delete loses the trylock race; with Bug#9 it reads past
     the bucket table *)
  let fault = ref None in
  for i = 1 to 3 do
    let _, f = Map.delete ~bug9:true mem m ~key:(key_of_int i) in
    if f <> None then fault := f
  done;
  (match !fault with
   | Some { Kmem.fkind = Kmem.Oob Shadow.Redzone; _ } -> ()
   | _ -> Alcotest.fail "expected bucket OOB with bug9");
  (* without the bug, the contended path is fine *)
  let m2 = Map.create mem ~id:4 (Map.hash_def ()) in
  for i = 1 to 6 do
    let _, f = Map.delete ~bug9:false mem m2 ~key:(key_of_int i) in
    Alcotest.(check bool) "no fault without bug" true (f = None)
  done

let test_ringbuf () =
  let mem = Kmem.create () in
  let m = Map.create mem ~id:5 (Map.ringbuf_def ()) in
  (match Map.ringbuf_reserve mem m ~size:32 with
   | Some addr ->
     Alcotest.(check bool) "chunk usable" true
       (Kmem.checked_store mem ~addr ~size:8 1L = Ok ());
     Alcotest.(check bool) "release" true
       (Map.ringbuf_release mem m ~addr);
     Alcotest.(check bool) "double release" false
       (Map.ringbuf_release mem m ~addr)
   | None -> Alcotest.fail "reserve failed");
  Alcotest.(check bool) "oversized reserve fails" true
    (Map.ringbuf_reserve mem m ~size:100_000 = None)

(* qcheck: hash map behaves like an association list *)
let hash_model_prop =
  QCheck2.Test.make ~count:200 ~name:"hash map vs model"
    QCheck2.Gen.(list_size (int_range 0 40)
                   (pair (int_range 0 6) (int_range 0 2)))
    (fun ops ->
       let mem = Kmem.create () in
       let m = Map.create mem ~id:9 (Map.hash_def ~max_entries:100 ()) in
       let model = Hashtbl.create 8 in
       List.for_all
         (fun (k, op) ->
            match op with
            | 0 ->
              let value = Bytes.make 48 (Char.chr (65 + k)) in
              (match Map.update mem m ~key:(key_of_int k) ~value with
               | Ok () ->
                 Hashtbl.replace model k ();
                 true
               | Error _ -> false)
            | 1 ->
              let present = Map.lookup m ~key:(key_of_int k) <> None in
              present = Hashtbl.mem model k
            | _ ->
              let r, _ = Map.delete mem m ~key:(key_of_int k) in
              let expected = Hashtbl.mem model k in
              Hashtbl.remove model k;
              (match r with
               | Ok () -> expected
               | Error Map.E_no_such_key -> not expected
               | Error _ -> false))
         ops)

(* -- Tracepoints / dispatcher / config ------------------------------------ *)

let test_tracepoint_catalogue () =
  Alcotest.(check bool) "contention_begin exists" true
    (Tracepoint.find "contention_begin" <> None);
  Alcotest.(check bool) "gated by version" true
    (not
       (List.exists
          (fun t -> t.Tracepoint.tp_name = "contention_begin")
          (Tracepoint.available ~version:Version.V5_15
             ~pt:Bvf_ebpf.Prog.Tracepoint)));
  Alcotest.(check bool) "fired by lock" true
    (List.length (Tracepoint.fired_by_lock_acquisition ()) = 1);
  Alcotest.(check bool) "fired by helper" true
    (List.length (Tracepoint.fired_by_helper "trace_printk") = 1)

let test_dispatcher_bug7 () =
  let d = Dispatcher.create () in
  Alcotest.(check bool) "attach 1" true (Dispatcher.attach ~bug7:true d ~prog_id:1);
  (match Dispatcher.dispatch d with
   | Ok (Some 1) -> ()
   | _ -> Alcotest.fail "dispatch to prog 1");
  Alcotest.(check bool) "attach 2 arms race" true
    (Dispatcher.attach ~bug7:true d ~prog_id:2);
  (match Dispatcher.dispatch d with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected null deref with bug7");
  (* the window is consumed *)
  match Dispatcher.dispatch d with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "second dispatch should succeed"

let test_dispatcher_fixed () =
  let d = Dispatcher.create () in
  ignore (Dispatcher.attach ~bug7:false d ~prog_id:1);
  ignore (Dispatcher.attach ~bug7:false d ~prog_id:2);
  match Dispatcher.dispatch d with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "fixed dispatcher must not fault"

let test_kconfig_bug_presence () =
  Alcotest.(check bool) "bug1 absent on v5.15" true
    (not (Kconfig.bug_in_version Version.V5_15
            Kconfig.Bug1_nullness_propagation));
  Alcotest.(check bool) "bug1 present on v6.1" true
    (Kconfig.bug_in_version Version.V6_1 Kconfig.Bug1_nullness_propagation);
  Alcotest.(check bool) "cve only on v5.15" true
    (Kconfig.bug_in_version Version.V5_15 Kconfig.Cve_2022_23222
     && not (Kconfig.bug_in_version Version.Bpf_next Kconfig.Cve_2022_23222));
  Alcotest.(check bool) "fixed kernel has no bugs" true
    ((Kconfig.fixed Version.Bpf_next).Kconfig.bugs = []);
  Alcotest.(check int) "bpf-next default carries 11 bugs" 11
    (List.length (Kconfig.default Version.Bpf_next).Kconfig.bugs)

let test_kstate_services () =
  let k = Kstate.create (Kconfig.default Version.Bpf_next) in
  let fd = Kstate.map_create k (Map.hash_def ()) in
  Alcotest.(check bool) "map fd resolves" true (Kstate.map_of_fd k fd <> None);
  (match Kstate.map_addr k fd with
   | Some addr ->
     Alcotest.(check bool) "addr resolves back" true
       (Kstate.map_of_addr k addr <> None)
   | None -> Alcotest.fail "no map addr");
  Alcotest.(check bool) "task addr non-null" true
    (Kstate.current_task_addr k <> 0L);
  Alcotest.(check bool) "percpu btf is null" true
    (Kstate.btf_addr k Btf.percpu_slot.Btf.btf_id = 0L);
  let t1 = Kstate.ktime k and t2 = Kstate.ktime k in
  Alcotest.(check bool) "time advances" true (Int64.compare t2 t1 > 0);
  let r1 = Kstate.prandom_u32 k in
  Alcotest.(check bool) "prandom in range" true
    Bvf_ebpf.Word.(ule r1 0xFFFF_FFFFL)

(* [reports_since] is the O(new) form of filtering the oldest-first
   listing from a count. *)
let test_reports_since () =
  let k = Kstate.create (Kconfig.default Version.Bpf_next) in
  let warn i =
    Report.make (Report.Kernel_routine "test")
      (Report.Warn (string_of_int i))
  in
  let same n =
    Kstate.reports_since k n
    = List.filteri (fun i _ -> i >= n) (Kstate.peek_reports k)
  in
  Alcotest.(check bool) "empty" true (Kstate.reports_since k 0 = []);
  for i = 1 to 5 do Kstate.report k (warn i) done;
  for n = 0 to 6 do
    Alcotest.(check bool) (Printf.sprintf "since %d" n) true (same n)
  done;
  Alcotest.(check int) "oldest first" 2
    (List.length (Kstate.reports_since k 3));
  Alcotest.(check bool) "order" true
    (Kstate.reports_since k 3 = [ warn 4; warn 5 ])

let test_report_fingerprints () =
  let f1 =
    Report.make Report.Sanitizer
      (Report.Mem_fault
         { Kmem.faccess = Kmem.Read; faddr = 0L; fsize = 8;
           fkind = Kmem.Null_deref; fregion = None })
  in
  let f2 =
    Report.make Report.Sanitizer
      (Report.Mem_fault
         { Kmem.faccess = Kmem.Read; faddr = 4096L; fsize = 4;
           fkind = Kmem.Null_deref; fregion = None })
  in
  Alcotest.(check string) "addresses collapse"
    (Report.fingerprint f1) (Report.fingerprint f2);
  let f3 =
    Report.make (Report.Kernel_routine "x") (Report.Panic "boom")
  in
  Alcotest.(check bool) "mechanism distinguishes" true
    (Report.fingerprint f1 <> Report.fingerprint f3)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bvf_kernel"
    [
      ( "shadow",
        [ Alcotest.test_case "basic" `Quick test_shadow_basic;
          Alcotest.test_case "partial granule" `Quick
            test_shadow_partial_granule;
          Alcotest.test_case "poison codes" `Quick test_shadow_poison_codes;
          qt shadow_prop ] );
      ( "kmem",
        [ Alcotest.test_case "checked access" `Quick
            test_kmem_checked_access;
          Alcotest.test_case "use after free" `Quick
            test_kmem_use_after_free;
          Alcotest.test_case "null deref" `Quick test_kmem_null_deref;
          Alcotest.test_case "raw redzone silent" `Quick
            test_kmem_raw_is_silent_in_redzone;
          Alcotest.test_case "raw freed silent" `Quick
            test_kmem_raw_freed_is_silent;
          Alcotest.test_case "compaction" `Quick test_kmem_compact;
          qt kmem_roundtrip_prop ] );
      ( "lockdep",
        [ Alcotest.test_case "recursion" `Quick test_lockdep_recursion;
          Alcotest.test_case "unbalanced" `Quick test_lockdep_unbalanced;
          Alcotest.test_case "nmi" `Quick test_lockdep_nmi;
          Alcotest.test_case "balanced" `Quick test_lockdep_balanced_ok ] );
      ( "maps",
        [ Alcotest.test_case "array" `Quick test_array_map;
          Alcotest.test_case "hash lifecycle" `Quick
            test_hash_map_lifecycle;
          Alcotest.test_case "bug9 bucket OOB" `Quick test_hash_map_bug9;
          Alcotest.test_case "ringbuf" `Quick test_ringbuf;
          qt hash_model_prop ] );
      ( "kernel",
        [ Alcotest.test_case "tracepoints" `Quick test_tracepoint_catalogue;
          Alcotest.test_case "dispatcher bug7" `Quick test_dispatcher_bug7;
          Alcotest.test_case "dispatcher fixed" `Quick
            test_dispatcher_fixed;
          Alcotest.test_case "kconfig bugs" `Quick
            test_kconfig_bug_presence;
          Alcotest.test_case "kstate services" `Quick test_kstate_services;
          Alcotest.test_case "reports since" `Quick test_reports_since;
          Alcotest.test_case "report fingerprints" `Quick
            test_report_fingerprints ] );
    ]
