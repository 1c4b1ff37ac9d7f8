(* Observability tests: vstats counters are deterministic and consistent
   with the analysis; campaigns aggregate and digest them (and parallel
   merges absorb them associatively); the veristat table round-trips
   through JSONL and its regression gate fires on inflated counters and
   verdict flips; coverage introspection (grouped / diff) is exact; the
   --progress observer never perturbs traces; the monotonic clock never
   goes backwards. *)

module Version = Bvf_ebpf.Version
module Kconfig = Bvf_kernel.Kconfig
module Verifier = Bvf_verifier.Verifier
module Vstats = Bvf_verifier.Vstats
module Coverage = Bvf_verifier.Coverage
module Loader = Bvf_runtime.Loader
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Telemetry = Bvf_core.Telemetry
module Veristat = Bvf_core.Veristat
module Progress = Bvf_core.Progress
module Selftests = Bvf_core.Selftests
module Mclock = Bvf_util.Mclock

let strategy = Campaign.bvf_strategy
let config () = Kconfig.default Version.Bpf_next
let read_all path = In_channel.with_open_bin path In_channel.input_all

(* -- Mclock ----------------------------------------------------------------- *)

let test_mclock_monotone () =
  let prev = ref (Mclock.now_s ()) in
  for _ = 1 to 1000 do
    let t = Mclock.now_s () in
    Alcotest.(check bool) "now_s never decreases" true (t >= !prev);
    prev := t
  done;
  let since = Mclock.now_s () in
  Alcotest.(check bool) "elapsed_s is non-negative" true
    (Mclock.elapsed_s ~since >= 0.0);
  let (), dt = Mclock.time_s (fun () -> ()) in
  Alcotest.(check bool) "time_s is non-negative" true (dt >= 0.0)

(* -- Per-load counters ------------------------------------------------------- *)

let load_selftest_stats () =
  (* run the first 60 selftests and collect each load's counters *)
  let suite = Selftests.build ~count:60 Version.Bpf_next in
  let session = suite.Selftests.session in
  List.map
    (fun req ->
       let verdict, _log, vstats =
         Verifier.load_with_stats session.Loader.kst
           ~cov:session.Loader.cov req
       in
       (verdict, Option.get vstats))
    suite.Selftests.requests

let test_vstats_deterministic_and_consistent () =
  let a = load_selftest_stats () and b = load_selftest_stats () in
  List.iter2
    (fun (_, va) (_, vb) ->
       Alcotest.(check (list (pair string int)))
         "counters identical across runs" (Vstats.counters va)
         (Vstats.counters vb))
    a b;
  List.iter
    (fun ((verdict : (Verifier.loaded, _) result), v) ->
       Alcotest.(check bool) "insn_processed positive" true
         (v.Vstats.vs_insn_processed > 0);
       (match verdict with
        | Ok l ->
          Alcotest.(check int) "l_insn_processed matches the counter"
            l.Verifier.l_insn_processed v.Vstats.vs_insn_processed
        | Error _ -> ());
       Alcotest.(check bool) "peak <= total states" true
         (v.Vstats.vs_peak_states <= v.Vstats.vs_total_states);
       Alcotest.(check bool) "per-insn max <= total states" true
         (v.Vstats.vs_max_states_per_insn <= v.Vstats.vs_total_states);
       Alcotest.(check bool) "all live states retired" true
         (v.Vstats.vs_cur_states = 0);
       Alcotest.(check bool) "branch hwm >= 1" true
         (v.Vstats.vs_branch_hwm >= 1))
    a

(* -- Campaign aggregation and digest ----------------------------------------- *)

let test_campaign_aggregates_vstats () =
  let stats =
    Campaign.run ~seed:11 ~iterations:300 strategy (config ())
  in
  let a = stats.Campaign.st_vstats in
  Alcotest.(check bool) "analyses counted" true (a.Vstats.ag_programs > 0);
  Alcotest.(check bool) "insns accumulated" true
    (a.Vstats.ag_insn_processed > 0);
  Alcotest.(check int) "insn histogram covers every analysis"
    a.Vstats.ag_programs (Bvf_util.Hist.total a.Vstats.ag_hist_insn);
  Alcotest.(check int) "peak histogram covers every analysis"
    a.Vstats.ag_programs (Bvf_util.Hist.total a.Vstats.ag_hist_peak)

let test_vstats_in_digest () =
  (* the digest folds the vstats lines: corrupting the aggregate after
     the fact must change the digest *)
  let stats =
    Campaign.run ~seed:11 ~iterations:200 strategy (config ())
  in
  let d0 = Campaign.digest stats in
  stats.Campaign.st_vstats.Vstats.ag_insn_processed <-
    stats.Campaign.st_vstats.Vstats.ag_insn_processed + 1;
  Alcotest.(check bool) "digest depends on vstats" true
    (d0 <> Campaign.digest stats)

let test_parallel_merges_vstats () =
  let r = Parallel.run ~jobs:3 ~seed:9 ~iterations:240 strategy (config ()) in
  let merged = r.Parallel.pr_stats.Campaign.st_vstats in
  let shards =
    List.map
      (fun sh ->
         (Parallel.final_snapshot sh).Campaign.sn_stats.Campaign.st_vstats)
      r.Parallel.pr_shards
  in
  let sums f = List.fold_left (fun n a -> n + f a) 0 shards
  and maxes f = List.fold_left (fun n a -> max n (f a)) 0 shards in
  Alcotest.(check int) "programs summed"
    (sums (fun a -> a.Vstats.ag_programs))
    merged.Vstats.ag_programs;
  Alcotest.(check int) "insns summed"
    (sums (fun a -> a.Vstats.ag_insn_processed))
    merged.Vstats.ag_insn_processed;
  Alcotest.(check int) "peak is max across shards"
    (maxes (fun a -> a.Vstats.ag_peak_states_max))
    merged.Vstats.ag_peak_states_max;
  (* absorb is associative: (a + b) + c == a + (b + c) *)
  (match shards with
   | [ a; b; c ] ->
     let copy src =
       let t = Vstats.agg_zero () in
       Vstats.agg_absorb t src;
       t
     in
     let left = copy a in
     Vstats.agg_absorb left b;
     Vstats.agg_absorb left c;
     let bc = copy b in
     Vstats.agg_absorb bc c;
     let right = copy a in
     Vstats.agg_absorb right bc;
     Alcotest.(check (list string)) "agg_absorb associative"
       (Vstats.agg_digest_lines left)
       (Vstats.agg_digest_lines right)
   | _ -> Alcotest.fail "expected 3 shards");
  (* campaign traces carry one vstats event per analysis *)
  let path = Filename.temp_file "bvf_vstats" ".jsonl" in
  let sink = Telemetry.create path in
  let stats =
    Campaign.run ~telemetry:sink ~seed:9 ~iterations:120 strategy
      (config ())
  in
  Telemetry.close sink;
  let events = Telemetry.read_file path in
  Sys.remove path;
  let vstats_events =
    List.filter (function Telemetry.Vstats _ -> true | _ -> false) events
  in
  Alcotest.(check int) "one vstats event per analysis"
    stats.Campaign.st_vstats.Vstats.ag_programs
    (List.length vstats_events)

(* -- Veristat ----------------------------------------------------------------- *)

let strip_times (t : Veristat.table) : Veristat.table =
  { t with
    Veristat.vt_rows =
      List.map
        (fun r -> { r with Veristat.vr_time_s = 0.0 })
        t.Veristat.vt_rows }

let test_veristat_deterministic () =
  let a = Veristat.run_generated ~seed:7 ~count:40 Version.Bpf_next in
  let b = Veristat.run_generated ~seed:7 ~count:40 Version.Bpf_next in
  Alcotest.(check bool) "tables identical modulo wall time" true
    (strip_times a = strip_times b);
  Alcotest.(check int) "row per program" 40
    (List.length a.Veristat.vt_rows)

let test_veristat_json_round_trip () =
  let t = Veristat.run_generated ~seed:3 ~count:25 Version.Bpf_next in
  let back = Veristat.of_json (Veristat.to_json t) in
  Alcotest.(check string) "kernel preserved" t.Veristat.vt_kernel
    back.Veristat.vt_kernel;
  List.iter2
    (fun (a : Veristat.row) (b : Veristat.row) ->
       Alcotest.(check string) "name" a.Veristat.vr_name b.Veristat.vr_name;
       Alcotest.(check string) "type" a.Veristat.vr_prog_type
         b.Veristat.vr_prog_type;
       Alcotest.(check int) "insns" a.Veristat.vr_insns b.Veristat.vr_insns;
       Alcotest.(check string) "verdict" a.Veristat.vr_verdict
         b.Veristat.vr_verdict;
       Alcotest.(check (list (pair string int))) "counters"
         (Vstats.counters a.Veristat.vr_stats)
         (Vstats.counters b.Veristat.vr_stats))
    t.Veristat.vt_rows back.Veristat.vt_rows;
  Alcotest.check_raises "foreign JSON rejected"
    (Veristat.Bad_table "not a bvf veristat table") (fun () ->
        ignore (Veristat.of_json {|{"ev":"generated","iter":0}|}))

let test_veristat_gate () =
  let t = Veristat.run_generated ~seed:5 ~count:30 Version.Bpf_next in
  let same = Veristat.compare_tables ~old_t:t ~new_t:t in
  Alcotest.(check (list string)) "identical tables pass the gate" []
    (Veristat.regressions ~threshold_pct:0.0 same);
  (* inflate one program's insn_processed in a deep copy (via JSONL) *)
  let inflated = Veristat.of_json (Veristat.to_json t) in
  (match inflated.Veristat.vt_rows with
   | r :: _ ->
     r.Veristat.vr_stats.Vstats.vs_insn_processed <-
       (r.Veristat.vr_stats.Vstats.vs_insn_processed + 1) * 100
   | [] -> Alcotest.fail "empty table");
  let c = Veristat.compare_tables ~old_t:t ~new_t:inflated in
  Alcotest.(check bool) "inflated counter trips the gate" true
    (Veristat.regressions ~threshold_pct:2.0 c <> []);
  Alcotest.(check bool) "worst offender identified" true
    (c.Veristat.cmp_worst <> []);
  (* a verdict flip trips the gate even with counters unchanged *)
  let flipped = Veristat.of_json (Veristat.to_json t) in
  let flipped =
    { flipped with
      Veristat.vt_rows =
        (match flipped.Veristat.vt_rows with
         | r :: rest -> { r with Veristat.vr_verdict = "EACCES-now" } :: rest
         | [] -> []) }
  in
  let c = Veristat.compare_tables ~old_t:t ~new_t:flipped in
  Alcotest.(check int) "flip detected" 1
    (List.length c.Veristat.cmp_verdict_flips);
  Alcotest.(check bool) "flip trips the gate at any threshold" true
    (Veristat.regressions ~threshold_pct:1000.0 c <> []);
  (* added/removed programs are listed but never gated *)
  let shorter =
    { t with Veristat.vt_rows = List.tl t.Veristat.vt_rows }
  in
  let c = Veristat.compare_tables ~old_t:t ~new_t:shorter in
  Alcotest.(check int) "removed program listed" 1
    (List.length c.Veristat.cmp_removed);
  Alcotest.(check (list string)) "removal alone passes the gate" []
    (Veristat.regressions ~threshold_pct:0.0 c)

(* -- Coverage introspection ---------------------------------------------------- *)

let test_coverage_grouped () =
  let cov = Coverage.create () in
  let hit site variant =
    Coverage.record cov (Coverage.edge_id cov site variant)
  in
  hit "alu:op" 1; hit "alu:op" 1; hit "alu:ptr" 0; hit "mem:stack" 2;
  hit "prune" 0;
  let groups = Coverage.grouped cov in
  Alcotest.(check (list string)) "groups sorted by prefix"
    [ "alu"; "mem"; "prune" ]
    (List.map fst groups);
  let distinct, hits, listing = List.assoc "alu" groups in
  Alcotest.(check int) "alu distinct edges" 2 distinct;
  Alcotest.(check int) "alu summed hits" 3 hits;
  Alcotest.(check (list (pair (pair string int) int))) "alu listing sorted"
    [ (("alu:op", 1), 2); (("alu:ptr", 0), 1) ]
    listing;
  Alcotest.(check string) "prefix stops at the first colon" "alu"
    (Coverage.site_prefix "alu:ptr:varoff");
  Alcotest.(check string) "prefix of a plain name is itself" "prune"
    (Coverage.site_prefix "prune")

let test_coverage_diff_exact () =
  let old_cov = Coverage.create () and new_cov = Coverage.create () in
  let hit cov site variant =
    Coverage.record cov (Coverage.edge_id cov site variant)
  in
  hit old_cov "a" 0; hit old_cov "b" 1; hit old_cov "c" 2;
  (* new: keeps a:0 (different hit count), drops b:1/c:2, adds d:0, b:9 *)
  hit new_cov "a" 0; hit new_cov "a" 0; hit new_cov "d" 0; hit new_cov "b" 9;
  let gained, lost = Coverage.diff ~old_cov ~new_cov in
  Alcotest.(check (list (pair string int))) "gained is exact"
    [ ("b", 9); ("d", 0) ] gained;
  Alcotest.(check (list (pair string int))) "lost is exact"
    [ ("b", 1); ("c", 2) ] lost;
  let same_g, same_l = Coverage.diff ~old_cov ~new_cov:old_cov in
  Alcotest.(check (list (pair string int))) "self-diff gains nothing" []
    same_g;
  Alcotest.(check (list (pair string int))) "self-diff loses nothing" []
    same_l

let test_coverage_absorb_round_trip () =
  (* absorbing a map's own listing into an empty map reproduces the edge
     set and the summed hit counts *)
  let stats =
    Campaign.run_t ~seed:17 ~iterations:150 strategy (config ())
  in
  let cov = stats.Campaign.cov in
  let listing = Coverage.named_edges cov in
  let fresh = Coverage.create () in
  let added = Coverage.absorb_named fresh listing in
  Alcotest.(check int) "every edge is new to the empty map"
    (Coverage.edge_count cov) added;
  Alcotest.(check int) "edge count reproduced" (Coverage.edge_count cov)
    (Coverage.edge_count fresh);
  Alcotest.(check (list (pair (pair string int) int))) "hits reproduced"
    (List.sort compare listing)
    (List.sort compare (Coverage.named_edges fresh));
  (* union is associative on three distinct maps *)
  let part seed =
    (Campaign.run_t ~seed ~iterations:80 strategy (config ())).Campaign.cov
  in
  let a = part 1 and b = part 2 and c = part 3 in
  let left = Coverage.union [ Coverage.union [ a; b ]; c ]
  and right = Coverage.union [ a; Coverage.union [ b; c ] ] in
  Alcotest.(check (list (pair (pair string int) int))) "union associative"
    (List.sort compare (Coverage.named_edges left))
    (List.sort compare (Coverage.named_edges right))

(* -- Progress is a pure observer ---------------------------------------------- *)

let test_progress_does_not_perturb_traces () =
  let trace_with ~observe =
    let path = Filename.temp_file "bvf_obs" ".jsonl" in
    let sink = Telemetry.create path in
    let out_path = Filename.temp_file "bvf_progress" ".txt" in
    let out = open_out out_path in
    let progress = Progress.create ~out ~every_s:0.0 ~jobs:1 () in
    let on_step =
      if observe then Some (fun c -> Progress.update progress ~shard:0 c)
      else None
    in
    let stats =
      Campaign.run ~telemetry:sink ?on_step ~seed:23 ~iterations:150
        strategy (config ())
    in
    Progress.finish progress;
    Telemetry.close sink;
    close_out out;
    let trace = read_all path and printed = read_all out_path in
    Sys.remove path;
    Sys.remove out_path;
    (trace, printed, Campaign.digest stats)
  in
  let t1, printed, d1 = trace_with ~observe:true in
  let t2, silent, d2 = trace_with ~observe:false in
  Alcotest.(check string) "trace byte-identical with --progress" t1 t2;
  Alcotest.(check string) "digest unchanged by --progress" d1 d2;
  Alcotest.(check bool) "observer printed status lines" true
    (String.length printed > 0);
  Alcotest.(check bool) "no observer, no output (finish only)" true
    (String.length silent > 0 && String.length silent < String.length printed)

(* -- Plateau report ------------------------------------------------------------ *)

let test_plateau_matches_curve () =
  let stats =
    Campaign.run ~sample_every:20 ~seed:29 ~iterations:400 strategy
      (config ())
  in
  match Campaign.plateau stats with
  | None -> Alcotest.fail "sampled campaign must report a plateau"
  | Some (last_gain, stalled) ->
    let curve = stats.Campaign.st_curve in
    let final =
      match curve with
      | s :: _ -> s.Campaign.sa_edges
      | [] -> Alcotest.fail "empty curve"
    in
    (* last_gain is the earliest sampled iteration already at the final
       edge count; every earlier sample is strictly below it *)
    let at_gain =
      List.find
        (fun s -> s.Campaign.sa_iteration = last_gain)
        curve
    in
    Alcotest.(check int) "plateau sample holds the final count" final
      at_gain.Campaign.sa_edges;
    List.iter
      (fun s ->
         if s.Campaign.sa_iteration < last_gain then
           Alcotest.(check bool) "earlier samples below the final count"
             true
             (s.Campaign.sa_edges < final))
      curve;
    let newest =
      match curve with s :: _ -> s.Campaign.sa_iteration | [] -> 0
    in
    Alcotest.(check int) "stalled = newest sample - last gain"
      (newest - last_gain) stalled

let () =
  Alcotest.run "observability"
    [
      ( "mclock",
        [ Alcotest.test_case "monotone" `Quick test_mclock_monotone ] );
      ( "vstats",
        [
          Alcotest.test_case "deterministic and consistent" `Quick
            test_vstats_deterministic_and_consistent;
          Alcotest.test_case "campaign aggregation" `Quick
            test_campaign_aggregates_vstats;
          Alcotest.test_case "part of the digest" `Quick
            test_vstats_in_digest;
          Alcotest.test_case "parallel merge" `Quick
            test_parallel_merges_vstats;
        ] );
      ( "veristat",
        [
          Alcotest.test_case "deterministic tables" `Quick
            test_veristat_deterministic;
          Alcotest.test_case "JSONL round trip" `Quick
            test_veristat_json_round_trip;
          Alcotest.test_case "regression gate" `Quick test_veristat_gate;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "grouped by site prefix" `Quick
            test_coverage_grouped;
          Alcotest.test_case "diff is exact" `Quick
            test_coverage_diff_exact;
          Alcotest.test_case "absorb/union round trips" `Quick
            test_coverage_absorb_round_trip;
        ] );
      ( "progress",
        [
          Alcotest.test_case "pure observer" `Quick
            test_progress_does_not_perturb_traces;
        ] );
      ( "plateau",
        [
          Alcotest.test_case "matches the sampled curve" `Quick
            test_plateau_matches_curve;
        ] );
    ]
