(* Span-profiler tests: the purity contract (a profiled run's digest
   and telemetry trace are byte-identical to an unprofiled one, both
   sequential and sharded), the Chrome trace-event round trip (parses
   back, nests correctly, malformed or hostile input is reported not
   swallowed),
   non-negative GC attribution, the shared percentile helper, and the
   serve loop's metrics request. *)

module Version = Bvf_ebpf.Version
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Kconfig = Bvf_kernel.Kconfig
module Verifier = Bvf_verifier.Verifier
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Telemetry = Bvf_core.Telemetry
module Selftests = Bvf_core.Selftests
module Service = Bvf_core.Service
module Vcache = Bvf_core.Vcache
module Prof = Bvf_util.Prof
module Percentile = Bvf_util.Percentile
module Json = Bvf_util.Json

let strategy = Campaign.bvf_strategy
let config () = Kconfig.default Version.Bpf_next
let read_all path = In_channel.with_open_bin path In_channel.input_all

(* -- Percentile (the shared nearest-rank helper) ----------------------- *)

let test_percentile () =
  Alcotest.(check (float 0.0)) "empty is zero" 0.0
    (Percentile.of_sorted [||] 50);
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "p50 of 4" 2.0 (Percentile.of_sorted a 50);
  Alcotest.(check (float 0.0)) "p95 of 4" 3.0 (Percentile.of_sorted a 95);
  Alcotest.(check (float 0.0)) "p100 is max" 4.0
    (Percentile.of_sorted a 100);
  Alcotest.(check int) "int variant" 30
    (Percentile.of_sorted_int [| 10; 20; 30; 40 |] 95);
  (* of_samples sorts a copy: unsorted input, same answer *)
  Alcotest.(check (float 0.0)) "samples sort first" 2.0
    (Percentile.of_samples [ 4.0; 1.0; 3.0; 2.0 ] 50);
  Alcotest.(check (float 0.0)) "singleton" 7.0
    (Percentile.of_samples [ 7.0 ] 95)

(* -- Recording --------------------------------------------------------- *)

let test_recording_nests_and_attributes () =
  let s = Prof.session () in
  let h = Prof.track s ~name:"t0" 0 in
  Prof.span h "outer" (fun () ->
      Prof.span h "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Prof.record h ~name:"tail" ~dur_s:0.001 ~minor_w:10.0 ());
  let spans = Prof.spans s in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name =
    List.find (fun sp -> sp.Prof.sp_name = name) spans
  in
  let outer = find "outer" and inner = find "inner" in
  let tail = find "tail" in
  Alcotest.(check int) "outer is top level" 0 outer.Prof.sp_depth;
  Alcotest.(check int) "inner is nested" 1 inner.Prof.sp_depth;
  Alcotest.(check int) "record nests under the open frame" 1
    tail.Prof.sp_depth;
  Alcotest.(check bool) "children fit inside the parent" true
    (inner.Prof.sp_start_s >= outer.Prof.sp_start_s
     && inner.Prof.sp_start_s +. inner.Prof.sp_dur_s
        <= outer.Prof.sp_start_s +. outer.Prof.sp_dur_s +. 1e-9);
  (* [tail]'s claimed duration can exceed the parent's real wall time
     (it was measured elsewhere), so only [inner] bounds self time *)
  Alcotest.(check bool) "self time excludes children" true
    (outer.Prof.sp_self_s
     <= outer.Prof.sp_dur_s -. inner.Prof.sp_dur_s +. 1e-9);
  List.iter
    (fun sp ->
       Alcotest.(check bool) "durations non-negative" true
         (sp.Prof.sp_dur_s >= 0.0 && sp.Prof.sp_self_s >= 0.0);
       Alcotest.(check bool) "GC deltas non-negative" true
         (sp.Prof.sp_minor_w >= 0.0 && sp.Prof.sp_major_w >= 0.0))
    spans;
  (* the null session records nothing but still times the work *)
  let d = Prof.track Prof.null 0 in
  let fr = Prof.start d "x" in
  let dur, minor = Prof.stop d fr in
  Alcotest.(check bool) "disabled stop still measures" true
    (dur >= 0.0 && minor >= 0.0)

(* -- Chrome trace-event round trip ------------------------------------- *)

let test_chrome_round_trip () =
  let s = Prof.session () in
  let h0 = Prof.track s ~name:"shard0" 0 in
  let h1 = Prof.track s ~name:"shard1" 1 in
  Prof.span h0 "iterate" (fun () ->
      Prof.span h0 "gen" (fun () -> ());
      Prof.span h0 "verify" (fun () ->
          (* a post-hoc record ends now and reaches back dur_s, so the
             parent must be older than that for the trace to nest *)
          let t0 = Bvf_util.Mclock.now_s () in
          while Bvf_util.Mclock.now_s () -. t0 < 5e-6 do
            ignore (Sys.opaque_identity 0)
          done;
          Prof.record h0 ~name:"sanitize" ~dur_s:1e-6 ()));
  Prof.span h1 "iterate" (fun () -> ());
  let path = Filename.temp_file "bvf_prof" ".json" in
  Prof.write_chrome path ~tracks:(Prof.tracks s) (Prof.spans s);
  let spans, tracks, complaints = Prof.read_chrome path in
  Sys.remove path;
  Alcotest.(check (list string)) "well-formed trace: no complaints" []
    complaints;
  Alcotest.(check int) "all spans survive" (List.length (Prof.spans s))
    (List.length spans);
  Alcotest.(check (list (Alcotest.pair Alcotest.int Alcotest.string)))
    "track names survive" [ (0, "shard0"); (1, "shard1") ]
    (List.sort compare tracks);
  let names trk =
    List.filter (fun sp -> sp.Prof.sp_track = trk) spans
    |> List.map (fun sp -> sp.Prof.sp_name)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "track 0 span names"
    [ "gen"; "iterate"; "sanitize"; "verify" ] (names 0);
  Alcotest.(check (list string)) "track 1 span names" [ "iterate" ]
    (names 1)

let test_chrome_malformed_reported () =
  let write lines =
    let path = Filename.temp_file "bvf_prof_bad" ".json" in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc lines);
    let r = Prof.read_chrome path in
    Sys.remove path;
    r
  in
  let _, _, c1 = write "this is not json" in
  Alcotest.(check bool) "invalid JSON is a complaint" true (c1 <> []);
  let _, _, c2 =
    write
      {|{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":0,"ts":0,"dur":-5}]}|}
  in
  Alcotest.(check bool) "negative duration is a complaint" true (c2 <> []);
  (* partial overlap on one track can come from no well-nested run *)
  let spans, _, c3 =
    write
      ({|{"traceEvents":[|}
       ^ {|{"ph":"X","name":"a","pid":0,"tid":0,"ts":0,"dur":10},|}
       ^ {|{"ph":"X","name":"b","pid":0,"tid":0,"ts":5,"dur":10}]}|})
  in
  Alcotest.(check bool) "partial overlap is a complaint" true (c3 <> []);
  Alcotest.(check int) "overlapping events still parse" 2
    (List.length spans)

(* Nesting is bounded: a hostile trace a million levels deep is a
   parse error (one complaint), not a stack overflow. *)
let test_chrome_deep_nesting () =
  let depth = 1_000_000 in
  let deep = String.make depth '[' ^ String.make depth ']' in
  Alcotest.check_raises "1M-deep value" Json.Parse (fun () ->
      ignore (Json.parse deep : Json.t));
  let path = Filename.temp_file "bvf_prof_deep" ".json" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc ({|{"traceEvents":|} ^ deep ^ "}"));
  let spans, _, complaints = Prof.read_chrome path in
  Sys.remove path;
  Alcotest.(check (list string)) "one complaint" [ "not valid JSON" ]
    complaints;
  Alcotest.(check int) "no spans" 0 (List.length spans)

(* -- Purity: profiled == unprofiled, sequential and sharded ------------ *)

let campaign_run ~profiled =
  let path = Filename.temp_file "bvf_prof_seq" ".jsonl" in
  let sink = Telemetry.create path in
  let s = if profiled then Prof.session () else Prof.null in
  let h = Prof.track s ~name:"shard0" 0 in
  let stats =
    Prof.span h "iterate" (fun () ->
        Campaign.run ~telemetry:sink ~prof:h ~seed:31 ~iterations:150
          strategy (config ()))
  in
  Telemetry.close sink;
  let trace = read_all path in
  Sys.remove path;
  (Campaign.digest stats, trace, stats, Prof.spans s)

let test_sequential_profile_pure () =
  let d1, t1, stats, spans = campaign_run ~profiled:true in
  let d2, t2, bare, no_spans = campaign_run ~profiled:false in
  Alcotest.(check string) "digest unchanged by --profile" d1 d2;
  Alcotest.(check string) "trace byte-identical with --profile" t1 t2;
  (* the enabled profiler excludes its own allocations from the
     always-on per-phase counters; what remains is Gc.minor_words'
     native-code batching noise — a few words per run, where an
     unexcluded recorder would drift by tens of words per iteration *)
  List.iter
    (fun (name, profiled, unprofiled) ->
       Alcotest.(check bool)
         (name ^ " minor words within noise of --profile off") true
         (abs_float (profiled -. unprofiled) <= 150.0))
    [ ("gen", stats.Campaign.st_gen_w, bare.Campaign.st_gen_w);
      ("verify", stats.Campaign.st_verify_w, bare.Campaign.st_verify_w);
      ("sanitize", stats.Campaign.st_sanitize_w,
       bare.Campaign.st_sanitize_w);
      ("exec", stats.Campaign.st_exec_w, bare.Campaign.st_exec_w) ];
  Alcotest.(check int) "unprofiled run records nothing" 0
    (List.length no_spans);
  Alcotest.(check bool) "profiled run recorded spans" true (spans <> []);
  let phase name =
    List.exists (fun sp -> sp.Prof.sp_name = name) spans
  in
  List.iter
    (fun n ->
       Alcotest.(check bool) (n ^ " span present") true (phase n))
    [ "iterate"; "gen"; "verify"; "exec" ];
  List.iter
    (fun sp ->
       Alcotest.(check bool) "GC deltas non-negative" true
         (sp.Prof.sp_minor_w >= 0.0 && sp.Prof.sp_major_w >= 0.0))
    spans;
  (* the span-side phase totals and the always-on stats agree: stop
     feeds both from the same clock reads *)
  let total name =
    List.fold_left
      (fun acc sp ->
         if sp.Prof.sp_name = name then acc +. sp.Prof.sp_dur_s else acc)
      0.0 spans
  in
  Alcotest.(check bool) "span total tracks st_gen_s" true
    (abs_float (total "gen" -. stats.Campaign.st_gen_s) < 1e-6);
  Alcotest.(check bool) "phase minor words populated" true
    (stats.Campaign.st_gen_w > 0.0 && stats.Campaign.st_verify_w > 0.0)

let parallel_run ~profiled =
  let path = Filename.temp_file "bvf_prof_par" ".jsonl" in
  let s = if profiled then Prof.session () else Prof.null in
  let r =
    Parallel.run ~jobs:2 ~trace:path ~prof:s ~seed:31 ~iterations:150
      strategy (config ())
  in
  let trace = read_all path in
  Sys.remove path;
  (Parallel.digest r, trace, Prof.spans s)

let test_parallel_profile_pure () =
  let d1, t1, spans = parallel_run ~profiled:true in
  let d2, t2, _ = parallel_run ~profiled:false in
  Alcotest.(check string) "jobs=2 digest unchanged by --profile" d1 d2;
  Alcotest.(check string) "jobs=2 trace byte-identical with --profile"
    t1 t2;
  (* acceptance gate: each shard's wall time is >= 90% attributed to
     named top-level spans (the single "iterate" span per shard) *)
  List.iter
    (fun (trk, wall, top) ->
       if trk < 2 then
         Alcotest.(check bool)
           (Printf.sprintf "track %d >= 90%% named" trk)
           true
           (wall <= 0.0 || top /. wall >= 0.9))
    (Prof.track_attribution spans);
  (* the coordinator track carries the join machinery *)
  let coord = Prof.totals_for spans ~trk:2 in
  List.iter
    (fun n ->
       Alcotest.(check bool) ("coordinator " ^ n ^ " present") true
         (List.mem_assoc n coord))
    [ "spawn"; "join"; "absorb"; "merge" ]

let test_alloc_attribution_outside_digest () =
  let stats =
    Campaign.run ~seed:31 ~iterations:80 strategy (config ())
  in
  let d = Campaign.digest stats in
  stats.Campaign.st_gen_w <- stats.Campaign.st_gen_w +. 1e9;
  stats.Campaign.st_verify_w <- 0.0;
  stats.Campaign.st_sanitize_w <- 0.0;
  stats.Campaign.st_exec_w <- 0.0;
  Alcotest.(check string) "phase minor words excluded from digest" d
    (Campaign.digest stats)

(* -- serve metrics ------------------------------------------------------ *)

let test_serve_metrics_round_trip () =
  let accepted =
    match (Selftests.build ~count:4 Version.Bpf_next).Selftests.requests with
    | r :: _ -> r
    | [] -> Alcotest.fail "empty selftest corpus"
  in
  (* r0 never initialized: the fixed verifier rejects it *)
  let rejected =
    { Verifier.r_prog_type = Prog.Socket_filter; r_attach = None;
      r_offload = false; r_insns = Asm.prog [ [ Asm.exit_ ] ] }
  in
  let line id req =
    Service.request_to_json { Service.q_id = id; q_req = req }
  in
  let in_path = Filename.temp_file "bvf_serve" ".in" in
  let out_path = Filename.temp_file "bvf_serve" ".out" in
  Out_channel.with_open_bin in_path (fun oc ->
      List.iter
        (fun l -> Out_channel.output_string oc (l ^ "\n"))
        [ {|{"id":"m0","metrics":true}|};
          line "ok1" accepted;
          line "ok2" accepted;  (* same program: a cache hit *)
          line "no1" rejected;
          {|{"id":"bad","prog_type":"socket_filter"}|};  (* missing prog *)
          {|{"metrics":true}|} ]);
  let ic = open_in in_path in
  let oc = open_out out_path in
  let cache = Vcache.create ~cap:64 in
  let session = Service.create_session (Kconfig.fixed Version.Bpf_next) in
  let stats =
    Service.serve ~cache ~session ~stop:(fun () -> false) ic oc
  in
  close_in ic;
  close_out oc;
  let lines =
    String.split_on_char '\n' (String.trim (read_all out_path))
  in
  Sys.remove in_path;
  Sys.remove out_path;
  Alcotest.(check int) "one response line per input" 6
    (List.length lines);
  (* metrics requests are invisible to the serve counters *)
  Alcotest.(check int) "requests" 3 stats.Service.sv_requests;
  Alcotest.(check int) "invalid" 1 stats.Service.sv_invalid;
  Alcotest.(check int) "hits" 1 stats.Service.sv_hits;
  Alcotest.(check int) "misses" 2 stats.Service.sv_misses;
  let field fields k =
    match Json.num fields k with
    | Some x -> x
    | None -> Alcotest.failf "metrics response lacks %s" k
  in
  let m0 = Json.parse_object (List.nth lines 0) in
  Alcotest.(check (float 0.0)) "fresh server: zero requests" 0.0
    (field m0 "requests");
  Alcotest.(check (option string)) "id echoed" (Some "m0")
    (Json.str m0 "id");
  let m = Json.parse_object (List.nth lines 5) in
  Alcotest.(check (option string)) "default id" (Some "metrics")
    (Json.str m "id");
  Alcotest.(check (float 0.0)) "requests counted" 3.0
    (field m "requests");
  Alcotest.(check (float 0.0)) "invalid counted" 1.0 (field m "invalid");
  Alcotest.(check (float 0.0)) "admitted counted" 2.0
    (field m "admitted");
  Alcotest.(check (float 0.0)) "rejected counted" 1.0
    (field m "rejected");
  Alcotest.(check (float 0.0)) "hits counted" 1.0
    (field m "cache_hits");
  Alcotest.(check (float 0.0)) "misses counted" 2.0
    (field m "cache_misses");
  Alcotest.(check (float 0.0)) "verify latency per miss" 2.0
    (field m "verify_count");
  Alcotest.(check (float 0.0)) "histogram covers every verification" 2.0
    (field m "verify_le_100us" +. field m "verify_le_1ms"
     +. field m "verify_le_10ms" +. field m "verify_gt_10ms");
  Alcotest.(check bool) "p50 <= p95, both positive" true
    (let p50 = field m "verify_p50_s" and p95 = field m "verify_p95_s" in
     0.0 < p50 && p50 <= p95)

let () =
  Alcotest.run "profiler"
    [
      ( "percentile",
        [ Alcotest.test_case "nearest rank" `Quick test_percentile ] );
      ( "recording",
        [
          Alcotest.test_case "nesting and attribution" `Quick
            test_recording_nests_and_attributes;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "round trip" `Quick test_chrome_round_trip;
          Alcotest.test_case "malformed reported" `Quick
            test_chrome_malformed_reported;
          Alcotest.test_case "deep nesting reported" `Quick
            test_chrome_deep_nesting;
        ] );
      ( "purity",
        [
          Alcotest.test_case "sequential --profile identical" `Quick
            test_sequential_profile_pure;
          Alcotest.test_case "jobs=2 --profile identical" `Quick
            test_parallel_profile_pure;
          Alcotest.test_case "alloc attribution outside digest" `Quick
            test_alloc_attribution_outside_digest;
        ] );
      ( "serve",
        [
          Alcotest.test_case "metrics round trip" `Quick
            test_serve_metrics_round_trip;
        ] );
    ]
