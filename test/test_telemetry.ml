(* Telemetry & taxonomy tests: every reject-example program produces its
   documented reason; rejected selftest/generated programs never map to
   Unknown; JSONL traces round-trip and are deterministic across
   sharding; the one JSON codec round-trips any byte string and parses
   every emitter's output; phase timers stay within the wall-clock
   envelope; the docs reference layer stays in sync with the code. *)

module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Map = Bvf_kernel.Map
module Venv = Bvf_verifier.Venv
module Reject_reason = Bvf_verifier.Reject_reason
module Reject_examples = Bvf_verifier.Reject_examples
module Loader = Bvf_runtime.Loader
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Telemetry = Bvf_core.Telemetry
module Selftests = Bvf_core.Selftests
module Triage = Bvf_core.Triage
module Veristat = Bvf_core.Veristat
module Service = Bvf_core.Service
module Vcache = Bvf_core.Vcache
module Vstats = Bvf_verifier.Vstats
module Json = Bvf_util.Json
module Prof = Bvf_util.Prof
module Mclock = Bvf_util.Mclock

let read_all path = In_channel.with_open_bin path In_channel.input_all

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* -- reject_examples: expected == observed -------------------------------- *)

let test_examples_reject_with_expected_reason () =
  List.iter
    (fun ex ->
       match Reject_examples.verify_example ex with
       | None ->
         Alcotest.failf "%s: example was accepted"
           (Reject_reason.to_string ex.Reject_examples.ex_reason)
       | Some (got, msg) ->
         Alcotest.(check string)
           (Printf.sprintf "%s (%s)" ex.Reject_examples.ex_title msg)
           (Reject_reason.to_string ex.Reject_examples.ex_reason)
           (Reject_reason.to_string got))
    Reject_examples.all

let test_examples_cover_taxonomy () =
  (* every constructor except the two documented gaps has an example *)
  let covered = List.map (fun e -> e.Reject_examples.ex_reason)
      Reject_examples.all in
  List.iter
    (fun r ->
       if r <> Reject_reason.Env_failure && r <> Reject_reason.Unknown
       then
         Alcotest.(check bool)
           (Reject_reason.to_string r ^ " has an example") true
           (List.mem r covered))
    Reject_reason.all

(* -- no Unknown on real program populations ------------------------------- *)

let test_selftests_rejections_classified () =
  (* Replay the selftest corpus's hand-written families (its first 250
     programs) in an unprivileged session with the same map population
     (fd numbering is deterministic, so requests resolve the same fds).
     Plenty of programs now get rejected; every single rejection must
     land somewhere in the taxonomy. *)
  let suite = Selftests.build ~count:250 Version.Bpf_next in
  let config = Kconfig.make ~unprivileged:true Version.Bpf_next in
  let session = Loader.create config in
  ignore (Selftests.install_maps session : int * int);
  let rejected = ref 0 and unknown = ref 0 in
  List.iter
    (fun req ->
       match (Loader.load_and_run session req).Loader.verdict with
       | Ok _ -> ()
       | Error e ->
         incr rejected;
         if e.Venv.vreason = Reject_reason.Unknown then incr unknown)
    suite.Selftests.requests;
  Alcotest.(check bool) "unprivileged load rejects some selftests" true
    (!rejected > 0);
  Alcotest.(check int) "no rejection maps to Unknown" 0 !unknown

let test_campaign_reasons_cover_rejections () =
  let stats =
    Campaign.run ~seed:3 ~iterations:600 Campaign.bvf_strategy
      (Kconfig.default Version.Bpf_next)
  in
  let total =
    Hashtbl.fold (fun _ n acc -> n + acc) stats.Campaign.st_reasons 0
  in
  Alcotest.(check int) "every rejection is classified"
    stats.Campaign.st_rejected total;
  let unknown =
    Option.value ~default:0
      (Hashtbl.find_opt stats.Campaign.st_reasons Reject_reason.Unknown)
  in
  Alcotest.(check bool) "< 5% Unknown on the default generator" true
    (float_of_int unknown
     <= 0.05 *. float_of_int (max 1 stats.Campaign.st_rejected))

let test_baseline_rejections_match_documented () =
  (* both baselines document where their programs die
     (expected_rejections); the observed taxonomy of a campaign must be
     a subset of the documented list — and in particular Unknown-free *)
  let check name strategy expected =
    let stats =
      Campaign.run ~seed:8 ~iterations:400 strategy
        (Kconfig.default Version.Bpf_next)
    in
    Hashtbl.iter
      (fun r n ->
         if n > 0 then
           Alcotest.(check bool)
             (Printf.sprintf "%s: %s is documented" name
                (Reject_reason.to_string r))
             true
             (List.mem r expected))
      stats.Campaign.st_reasons
  in
  check "syzkaller" Bvf_baselines.Syz_gen.strategy
    Bvf_baselines.Syz_gen.expected_rejections;
  check "buzzer-random"
    (Bvf_baselines.Buzzer_gen.strategy
       ~mode:Bvf_baselines.Buzzer_gen.Random_bytes ())
    (Bvf_baselines.Buzzer_gen.expected_rejections
       Bvf_baselines.Buzzer_gen.Random_bytes);
  check "buzzer"
    (Bvf_baselines.Buzzer_gen.strategy ())
    (Bvf_baselines.Buzzer_gen.expected_rejections
       Bvf_baselines.Buzzer_gen.Alu_jmp)

(* -- JSONL round-trip ------------------------------------------------------ *)

let event : Telemetry.event Alcotest.testable =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Telemetry.to_json e))
    ( = )

let sample_events : Telemetry.event list =
  [
    Generated { iter = 0; prog_type = "socket_filter"; insns = 12 };
    Accepted
      { iter = 1; prog_type = "xdp"; insns = 40; insn_processed = 123 };
    Rejected
      {
        iter = 2;
        prog_type = "kprobe";
        reason = Reject_reason.Oob_access;
        errno = "EACCES";
        pc = 7;
        msg = "invalid access: \"quoted\", back\\slash,\nnewline\ttab";
      };
    Vstats
      { iter = 2;
        stats =
          { (Vstats.zero ()) with
            vs_insn_processed = 48; vs_total_states = 6;
            vs_peak_states = 3; vs_max_states_per_insn = 2;
            vs_prune_hits = 1; vs_prune_misses = 5; vs_loops_detected = 0;
            vs_branch_hwm = 4; vs_widen_rounds = 3; vs_loop_heads = 1 } };
    Finding
      { iter = 3; fingerprint = "oracle:xyz"; bug = None;
        correctness = true };
    Finding
      { iter = 4; fingerprint = "oracle:abc"; bug = Some "bug5";
        correctness = false };
    Checkpoint { iter = 5 };
    Shard_merge { shards = 4; events = 99 };
    Profile
      { programs = 6; gen_s = 0.25; verify_s = 1.5; sanitize_s = 0.125;
        exec_s = 0.0625; wall_s = 2.0; gen_w = 1024.; verify_w = 4096.;
        sanitize_w = 512.; exec_w = 256. };
  ]

let test_jsonl_round_trip () =
  List.iter
    (fun e ->
       Alcotest.(check (option event)) "to_json |> of_json" (Some e)
         (Telemetry.of_json (Telemetry.to_json e)))
    sample_events;
  Alcotest.(check (option event)) "blank line skipped" None
    (Telemetry.of_json "   ");
  Alcotest.(check (option event)) "foreign JSON skipped" None
    (Telemetry.of_json {|{"ev":"someday","iter":3}|});
  Alcotest.(check (option event)) "garbage skipped" None
    (Telemetry.of_json "not json at all");
  (* the loop counters postdate the vstats schema: a pre-loop trace
     line without them must still parse, defaulting both to zero *)
  Alcotest.(check (option event)) "pre-loop vstats line parses"
    (Some
       (Telemetry.Vstats
          { iter = 9;
            stats =
              { (Vstats.zero ()) with
                vs_insn_processed = 10; vs_total_states = 2;
                vs_peak_states = 1; vs_max_states_per_insn = 1;
                vs_prune_misses = 2; vs_branch_hwm = 1 } }))
    (Telemetry.of_json
       ({|{"ev":"vstats","iter":9,"insn_processed":10,|}
        ^ {|"total_states":2,"peak_states":1,"max_states_per_insn":1,|}
        ^ {|"prune_hits":0,"prune_misses":2,"loops_detected":0,|}
        ^ {|"branch_hwm":1}|}));
  (* the minor-words fields postdate the profile schema likewise *)
  Alcotest.(check (option event)) "pre-alloc profile line parses"
    (Some
       (Telemetry.Profile
          { programs = 3; gen_s = 0.5; verify_s = 1.0; sanitize_s = 0.25;
            exec_s = 0.125; wall_s = 2.0; gen_w = 0.; verify_w = 0.;
            sanitize_w = 0.; exec_w = 0. }))
    (Telemetry.of_json
       ({|{"ev":"profile","programs":3,"gen_s":0.500000,|}
        ^ {|"verify_s":1.000000,"sanitize_s":0.250000,|}
        ^ {|"exec_s":0.125000,"wall_s":2.000000}|}))

(* A line past Json.max_line is dropped unread, even one that would
   parse whole: the events around it come back, and nothing else. *)
let test_read_file_skips_long_line () =
  let first = Telemetry.Checkpoint { iter = 1 }
  and last = Telemetry.Quarantined { iter = 2 } in
  let long =
    let prefix = {|{"ev":"checkpoint","iter":9,"pad":"|} in
    prefix
    ^ String.make ((2 * Json.max_line) - String.length prefix - 2) 'a'
    ^ {|"}|}
  in
  Alcotest.(check int) "the long line" (2 * Json.max_line)
    (String.length long);
  let path = Filename.temp_file "bvf_long" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun line -> output_string oc (line ^ "\n"))
        [ Telemetry.to_json first; long; Telemetry.to_json last ]);
  let events = Telemetry.read_file path in
  Sys.remove path;
  Alcotest.(check (list event)) "the two events around it" [ first; last ]
    events

(* -- The JSON codec ---------------------------------------------------------- *)

let escaped (s : string) : string =
  let b = Buffer.create 16 in
  Json.escape b s;
  Buffer.contents b

(* Any byte string survives escape-then-parse: control bytes, quotes,
   backslashes, NUL and bytes >= 0x80 (weighted up so every run sees
   them). *)
let json_escape_round_trip =
  let byte =
    QCheck2.Gen.(
      frequency
        [ (3, char);
          (2, oneofl [ '"'; '\\'; '\000'; '\n'; '\r'; '\t'; '\x1f';
                       '\x7f'; '\x80'; '\xc3'; '\xff'; 'u'; '/' ]) ])
  in
  QCheck2.Test.make ~count:2000 ~name:"escape then parse_object is exact"
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size ~gen:byte (int_range 0 48))
    (fun s ->
       Json.parse_object (Printf.sprintf {|{"k":"%s"}|} (escaped s))
       = [ ("k", Json.Jstr s) ])

(* Every flat emitter's line is a flat object to the one parser, string
   fields carrying bytes that need escaping included. *)
let test_emitters_parse () =
  let weird = "a\"b\\c\nd\re\tf\000g\xc3\xa9" in
  let parse what line =
    match Json.parse_object line with
    | f -> f
    | exception Json.Parse -> Alcotest.failf "%s does not parse: %s" what line
  in
  let crash =
    { Triage.hc_worker = 1; hc_iteration = Some 7;
      hc_cause = Triage.Crash_signal 9; hc_restarts = 2 }
  in
  ignore (parse "harness crash" (Triage.harness_crash_to_json crash));
  let table =
    { Veristat.vt_kernel = weird;
      vt_rows =
        [ { Veristat.vr_name = weird; vr_prog_type = "xdp"; vr_insns = 3;
            vr_verdict = "ok"; vr_stats = Vstats.zero ();
            vr_time_s = 0.25 } ] }
  in
  (match String.split_on_char '\n' (String.trim (Veristat.to_json table))
   with
   | [ header; row ] ->
     Alcotest.(check (option string)) "veristat header kernel" (Some weird)
       (Json.str (parse "veristat header" header) "kernel");
     Alcotest.(check (option string)) "veristat row name" (Some weird)
       (Json.str (parse "veristat row" row) "name")
   | lines -> Alcotest.failf "veristat: %d lines" (List.length lines));
  let tally = Service.tally () in
  tally.Service.tl_requests <- 3;
  tally.Service.tl_invalid <- 1;
  tally.Service.tl_misses <- 2;
  List.iter (Bvf_util.Hist.add tally.Service.tl_verify_ns)
    [ 100_000; 2_000_000 ];
  (* three inserts into two slots: two entries, one eviction *)
  let cache = Vcache.create ~cap:2 in
  List.iter
    (fun k ->
       Vcache.insert cache k
         { Vcache.cv_accepted = true; cv_insns = 1; cv_insn_processed = 1;
           cv_errno = ""; cv_reason = None; cv_pc = 0; cv_msg = "";
           cv_vlog = ""; cv_vstats = None })
    [ "k1"; "k2"; "k3" ];
  let metrics =
    parse "metrics" (Service.tally_to_json ~id:weird ~cache tally)
  and summary =
    parse "batch summary" (Service.tally_to_json ~wall_s:0.25 ~cache tally)
  and closing = parse "serve closing" (Service.tally_to_json ~cache tally) in
  Alcotest.(check (option string)) "metrics id" (Some weird)
    (Json.str metrics "id");
  Alcotest.(check (option (float 0.))) "batch summary wall" (Some 0.25)
    (Json.num summary "wall_s");
  Alcotest.(check (option (float 0.))) "serve closing line" (Some 3.)
    (Json.num closing "requests");
  List.iter
    (fun (what, fields) ->
       Alcotest.(check (option (float 0.))) (what ^ " cache entries")
         (Some 2.) (Json.num fields "cache_entries");
       Alcotest.(check (option (float 0.))) (what ^ " cache evictions")
         (Some 1.) (Json.num fields "cache_evictions"))
    [ ("metrics", metrics); ("batch summary", summary);
      ("serve closing", closing) ]

let test_summarize_counts () =
  let s = Telemetry.summarize sample_events in
  Alcotest.(check int) "events" (List.length sample_events)
    s.Telemetry.su_events;
  Alcotest.(check int) "generated" 1 s.Telemetry.su_generated;
  Alcotest.(check int) "accepted" 1 s.Telemetry.su_accepted;
  Alcotest.(check int) "rejected" 1 s.Telemetry.su_rejected;
  Alcotest.(check int) "findings" 2 s.Telemetry.su_findings;
  Alcotest.(check int) "checkpoints" 1 s.Telemetry.su_checkpoints;
  Alcotest.(check int) "no unknown rejections" 0
    (Telemetry.unknown_rejections s);
  Alcotest.(check bool) "profile captured" true
    (s.Telemetry.su_profile <> None);
  match s.Telemetry.su_vstats with
  | None -> Alcotest.fail "vstats summary missing"
  | Some v ->
    Alcotest.(check int) "vstats analyses" 1 v.Telemetry.vsu_count;
    Alcotest.(check int) "vstats insn total" 48
      v.Telemetry.vsu_insn_processed.Telemetry.d_total;
    Alcotest.(check int) "single-sample p50 = p95"
      v.Telemetry.vsu_insn_processed.Telemetry.d_p50
      v.Telemetry.vsu_insn_processed.Telemetry.d_p95;
    Alcotest.(check int) "vstats peak total" 3
      v.Telemetry.vsu_peak_states.Telemetry.d_total;
    Alcotest.(check int) "vstats widen total" 3
      v.Telemetry.vsu_widen_rounds.Telemetry.d_total;
    Alcotest.(check int) "vstats loop heads" 1 v.Telemetry.vsu_loop_heads

(* -- trace vs campaign stats ----------------------------------------------- *)

let test_trace_matches_stats () =
  let path = Filename.temp_file "bvf_trace" ".jsonl" in
  let sink = Telemetry.create path in
  let stats =
    Campaign.run ~telemetry:sink ~seed:4 ~iterations:400
      Campaign.bvf_strategy
      (Kconfig.default Version.Bpf_next)
  in
  Telemetry.close sink;
  let s = Telemetry.summarize (Telemetry.read_file path) in
  Sys.remove path;
  Alcotest.(check int) "generated events match counter"
    stats.Campaign.st_generated s.Telemetry.su_generated;
  Alcotest.(check int) "accepted events match counter"
    stats.Campaign.st_accepted s.Telemetry.su_accepted;
  Alcotest.(check int) "rejected events match counter"
    stats.Campaign.st_rejected s.Telemetry.su_rejected;
  Alcotest.(check int) "finding events match dedup table"
    (Hashtbl.length stats.Campaign.st_findings) s.Telemetry.su_findings;
  Alcotest.(check int) "trace carries no unknown rejections" 0
    (Telemetry.unknown_rejections s)

(* -- sharded tracing ------------------------------------------------------- *)

let strategy = Campaign.bvf_strategy
let config () = Kconfig.default Version.Bpf_next

let test_jobs1_trace_identical_to_sequential () =
  let seq_path = Filename.temp_file "bvf_seq" ".jsonl" in
  let par_path = Filename.temp_file "bvf_par1" ".jsonl" in
  let sink = Telemetry.create seq_path in
  ignore
    (Campaign.run ~telemetry:sink ~seed:21 ~iterations:200 strategy
       (config ()));
  Telemetry.close sink;
  ignore
    (Parallel.run ~jobs:1 ~trace:par_path ~seed:21 ~iterations:200
       strategy (config ()));
  let a = read_all seq_path and b = read_all par_path in
  Sys.remove seq_path;
  Sys.remove par_path;
  Alcotest.(check string) "jobs=1 trace byte-identical to sequential" a b

let test_jobs2_trace_deterministic () =
  let run () =
    let path = Filename.temp_file "bvf_par2" ".jsonl" in
    ignore
      (Parallel.run ~jobs:2 ~trace:path ~seed:5 ~iterations:240 strategy
         (config ()));
    let body = read_all path in
    Sys.remove path;
    body
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "jobs=2 trace reproducible per seed" a b;
  (* shard files are cleaned up, events arrive iteration-sorted, and the
     stream is terminated by the merge record *)
  let events = List.filter_map Telemetry.of_json (String.split_on_char '\n' a) in
  Alcotest.(check bool) "merge record present" true
    (List.exists
       (function Telemetry.Shard_merge _ -> true | _ -> false)
       events);
  let iters = List.filter_map Telemetry.iter_of events in
  Alcotest.(check (list int)) "events sorted by global iteration"
    (List.sort compare iters) iters

(* -- phase timers ---------------------------------------------------------- *)

(* The closing profile line is built from the run's profiler totals,
   the way the CLI builds it, from a session that records no spans. *)
let test_phase_timers_within_wall_clock () =
  let prof = Prof.session ~spans:false () in
  let h = Prof.track prof 0 in
  let t0 = Mclock.now_s () in
  ignore
    (Campaign.run ~prof:h ~seed:7 ~iterations:300 strategy (config ())
     : Campaign.stats);
  let wall_s = Mclock.elapsed_s ~since:t0 in
  match
    Telemetry.profile_of_totals ~wall_s (Prof.session_totals prof)
  with
  | Telemetry.Profile p ->
    let phases = p.gen_s +. p.verify_s +. p.sanitize_s +. p.exec_s in
    Alcotest.(check bool) "phase timers are non-negative" true
      (p.gen_s >= 0. && p.verify_s >= 0. && p.sanitize_s >= 0.
       && p.exec_s >= 0.);
    Alcotest.(check bool) "phases measured something" true (phases > 0.);
    Alcotest.(check int) "one gen span per program" 300 p.programs;
    (* the phases are disjoint intervals of the loop body, read off the
       same monotonic clock as the wall time around it *)
    Alcotest.(check bool) "phase sum within the wall-clock envelope" true
      (phases <= wall_s +. 1e-6)
  | _ -> Alcotest.fail "profile_of_totals built no Profile event"

(* -- resume accounting ----------------------------------------------------- *)

let test_resume_does_not_double_count () =
  (* resuming the same in-memory snapshot twice used to alias the
     snapshot's mutable stats into the first resumed campaign, so the
     second resume started from inflated counters *)
  let c = Campaign.run_t ~seed:13 ~iterations:120 strategy (config ()) in
  let s = Campaign.snapshot c in
  let a =
    Campaign.run ~resume_from:s ~seed:13 ~iterations:60 strategy
      (config ())
  in
  let b =
    Campaign.run ~resume_from:s ~seed:13 ~iterations:60 strategy
      (config ())
  in
  Alcotest.(check int) "second resume starts from the snapshot counters"
    (120 + 60) b.Campaign.st_generated;
  Alcotest.(check int) "both resumes generate the same count"
    a.Campaign.st_generated b.Campaign.st_generated;
  Alcotest.(check string) "both resumes have identical digests"
    (Campaign.digest a) (Campaign.digest b)

(* -- docs reference layer --------------------------------------------------- *)

let test_rejections_doc_covers_taxonomy () =
  (* docs/REJECTIONS.md documents every reason by its canonical
     to_string slug; dune copies it into the sandbox via (deps ...).
     [dune runtest] runs from test/, [dune exec] from the root. *)
  let path =
    if Sys.file_exists "../docs/REJECTIONS.md" then "../docs/REJECTIONS.md"
    else "docs/REJECTIONS.md"
  in
  let doc = read_all path in
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (Reject_reason.to_string r ^ " is documented") true
         (contains doc ("`" ^ Reject_reason.to_string r ^ "`")))
    Reject_reason.all

let () =
  Alcotest.run "telemetry"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "examples reject with expected reason" `Quick
            test_examples_reject_with_expected_reason;
          Alcotest.test_case "examples cover the taxonomy" `Quick
            test_examples_cover_taxonomy;
          Alcotest.test_case "rejected selftests classify" `Quick
            test_selftests_rejections_classified;
          Alcotest.test_case "campaign rejections classify" `Quick
            test_campaign_reasons_cover_rejections;
          Alcotest.test_case "baseline rejections match documented" `Quick
            test_baseline_rejections_match_documented;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round trip" `Quick test_jsonl_round_trip;
          QCheck_alcotest.to_alcotest json_escape_round_trip;
          Alcotest.test_case "every emitter parses" `Quick
            test_emitters_parse;
          Alcotest.test_case "summarize counts" `Quick
            test_summarize_counts;
          Alcotest.test_case "trace matches campaign stats" `Quick
            test_trace_matches_stats;
          Alcotest.test_case "over-long trace line skipped" `Quick
            test_read_file_skips_long_line;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "jobs=1 trace equals sequential" `Quick
            test_jobs1_trace_identical_to_sequential;
          Alcotest.test_case "jobs=2 trace deterministic" `Quick
            test_jobs2_trace_deterministic;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "phase timers within wall clock" `Quick
            test_phase_timers_within_wall_clock;
        ] );
      ( "resume",
        [
          Alcotest.test_case "no double counting" `Quick
            test_resume_does_not_double_count;
        ] );
      ( "docs",
        [
          Alcotest.test_case "REJECTIONS.md covers the taxonomy" `Quick
            test_rejections_doc_covers_taxonomy;
        ] );
    ]
