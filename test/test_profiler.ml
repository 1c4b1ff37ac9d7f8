(* Span-profiler tests: the purity contract (a profiled run's digest
   and telemetry trace are byte-identical to an unprofiled one, both
   sequential and sharded), the per-name totals (equal to the span
   sums, allocation-free to update, and the source of the trace's
   closing profile line under every executor), the Chrome trace-event
   round trip (parses back, nests correctly, malformed or hostile input
   is reported not swallowed), non-negative GC attribution, the shared
   percentile helper and fixed-bucket histogram, and the serve loop's
   metrics request. *)

module Version = Bvf_ebpf.Version
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Kconfig = Bvf_kernel.Kconfig
module Verifier = Bvf_verifier.Verifier
module Campaign = Bvf_core.Campaign
module Parallel = Bvf_core.Parallel
module Supervisor = Bvf_core.Supervisor
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

(* -- Hist (the fixed-bucket histogram) ----------------------------------- *)

module Hist = Bvf_util.Hist
module Vstats = Bvf_verifier.Vstats

let log2_hist (samples : int list) : Hist.t =
  let h = Hist.create Vstats.log2_ladder in
  List.iter (Hist.add h) samples;
  h

(* samples spread over every bucket of the power-of-two ladder *)
let gen_samples : int list QCheck2.Gen.t =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (let* bits = int_range 0 31 in
       int_bound ((1 lsl bits) - 1)))

let prop_hist_quantile =
  QCheck2.Test.make ~count:300 ~name:"quantile = bound of the exact bucket"
    QCheck2.Gen.(pair gen_samples (int_range 0 100))
    (fun (samples, p) ->
       let h = log2_hist samples in
       let sorted = Array.of_list samples in
       Array.sort compare sorted;
       let exact = Percentile.of_sorted_int sorted p in
       Hist.quantile h p = Hist.upper h (Hist.index h exact))

let prop_hist_absorb =
  QCheck2.Test.make ~count:300 ~name:"absorb = adding every sample"
    QCheck2.Gen.(pair gen_samples gen_samples)
    (fun (a, b) ->
       let into = log2_hist a in
       Hist.absorb into (log2_hist b);
       Hist.buckets into = Hist.buckets (log2_hist (a @ b)))

(* the bucket function the ladder replaced *)
let old_bucket (v : int) : int =
  if v <= 0 then 0
  else begin
    let rec go b n = if n = 0 then b else go (b + 1) (n lsr 1) in
    min 30 (go 0 v)
  end

let test_hist_vstats_ladder () =
  let h = Hist.create Vstats.log2_ladder in
  let values =
    [ 0; 1; 1 lsl 30; max_int ]
    @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k ])
        (List.init 61 (fun k -> k + 1))
  in
  List.iter
    (fun v ->
       Alcotest.(check int) (Printf.sprintf "bucket of %d" v) (old_bucket v)
         (Hist.index h v))
    values;
  Alcotest.(check int) "max_int in the last of 31 buckets" 30
    (Hist.index h max_int)

let test_hist_add_allocation_free () =
  let h = Hist.create Vstats.log2_ladder in
  let w0 = Gc.minor_words () in
  for v = 1 to 10_000 do
    Hist.add h v
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "counted" 10_000 (Hist.total h);
  if words > 100. then Alcotest.failf "add allocated %.0f words" words

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
  (* the shared disabled handle records nothing but still times the
     work *)
  let fr = Prof.start Prof.disabled "x" in
  let dur, minor = Prof.stop Prof.disabled fr in
  Alcotest.(check bool) "disabled stop still measures" true
    (dur >= 0.0 && minor >= 0.0);
  Alcotest.(check int) "disabled accumulates no totals" 0
    (List.length (Prof.totals Prof.disabled))

(* -- Totals ------------------------------------------------------------ *)

(* Sum of one span name's durations / minor words over a span list. *)
let span_sum ?(f = fun sp -> sp.Prof.sp_dur_s) spans name =
  List.fold_left
    (fun acc sp -> if sp.Prof.sp_name = name then acc +. f sp else acc)
    0.0 spans

let find_total totals name =
  match List.find_opt (fun t -> t.Prof.tt_name = name) totals with
  | Some t -> t
  | None -> Alcotest.failf "no total for %s" name

let test_totals_match_spans () =
  let work h =
    for _ = 1 to 5 do
      Prof.span h "outer" (fun () ->
          Prof.span h "inner" (fun () ->
              ignore (Sys.opaque_identity (Array.make 20 0)));
          Prof.record h ~name:"tail" ~dur_s:1e-6 ~minor_w:10.0 ())
    done
  in
  let s = Prof.session () in
  let h = Prof.track s 0 in
  work h;
  let spans = Prof.spans s in
  List.iter
    (fun name ->
       let t = find_total (Prof.totals h) name in
       Alcotest.(check int) (name ^ " count") 5 t.Prof.tt_count;
       Alcotest.(check (float 1e-9)) (name ^ " seconds = span sum")
         (span_sum spans name) t.Prof.tt_s;
       Alcotest.(check (float 1e-9)) (name ^ " words = span sum")
         (span_sum ~f:(fun sp -> sp.Prof.sp_minor_w) spans name)
         t.Prof.tt_minor_w)
    [ "outer"; "inner"; "tail" ];
  Alcotest.(check (list string)) "first-seen order"
    [ "inner"; "tail"; "outer" ]
    (List.map (fun t -> t.Prof.tt_name) (Prof.totals h));
  (* a session without spans keeps the same totals and no spans; every
     [track] call hands out a fresh handle *)
  let quiet = Prof.session ~spans:false () in
  let q0 = Prof.track quiet 0 in
  let q1 = Prof.track quiet 0 in
  Alcotest.(check bool) "fresh handle per track call" true (q0 != q1);
  work q0;
  Prof.span q1 "outer" (fun () -> ());
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Prof.spans quiet));
  Alcotest.(check int) "track totals sum the track's handles" 6
    (find_total (Prof.session_totals ~trk:0 quiet) "outer")
      .Prof.tt_count;
  Alcotest.(check (float 1e-12)) "records count their words" 50.0
    (find_total (Prof.session_totals quiet) "tail").Prof.tt_minor_w

let test_totals_allocation_free () =
  let loop h n =
    let m0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Prof.stop h (Prof.start h "a")))
    done;
    Gc.minor_words () -. m0
  in
  let h = Prof.track (Prof.session ~spans:false ()) 0 in
  ignore (loop h 1);   (* the name's first stop allocates its entry *)
  ignore (loop Prof.disabled 1);
  let n = 10_000 in
  let with_totals = loop h n in
  let without = loop Prof.disabled n in
  (* the smallest heap block is two words, so any allocation per update
     would add >= 2n; the clock's boxed high-water mark makes both
     loops wobble by a few dozen words *)
  Alcotest.(check bool)
    (Printf.sprintf "totals update allocates nothing (%.0f vs %.0f words)"
       with_totals without)
    true
    (with_totals -. without < float_of_int n /. 2.);
  Alcotest.(check int) "every stop counted" (n + 1)
    (find_total (Prof.totals h) "a").Prof.tt_count

(* -- The closing profile line, per executor ---------------------------- *)

(* The CLI's closing line for a session: its phase seconds must equal
   the span sums across every track (verify net of its sanitize
   child). *)
let check_line_matches_spans label (s : Prof.session) ~programs =
  let spans = Prof.spans s in
  match Telemetry.profile_of_totals ~wall_s:1.0 (Prof.session_totals s) with
  | Telemetry.Profile p ->
    Alcotest.(check int) (label ^ ": programs") programs p.programs;
    List.iter
      (fun (name, got, want) ->
         Alcotest.(check (float 1e-6))
           (Printf.sprintf "%s: %s_s = span sum" label name) want got)
      [ ("gen", p.gen_s, span_sum spans "gen");
        ("verify", p.verify_s,
         span_sum spans "verify" -. span_sum spans "sanitize");
        ("sanitize", p.sanitize_s, span_sum spans "sanitize");
        ("exec", p.exec_s, span_sum spans "exec") ];
    Alcotest.(check bool) (label ^ ": phases measured") true
      (p.gen_s > 0. && p.verify_s > 0. && p.gen_w > 0.)
  | _ -> Alcotest.fail "profile_of_totals built no Profile event"

(* Runs first: OCaml 5 forbids [Unix.fork] once a domain was spawned. *)
let test_line_workers () =
  let dir = Filename.temp_file "bvf_prof_sv" "" in
  Sys.remove dir;
  let s = Prof.session () in
  (match
     Supervisor.run ~poll_s:0.02 ~prof:s ~workers:2 ~seed:31
       ~iterations:150 ~dir strategy (config ())
   with
   | Supervisor.Completed _ -> ()
   | Supervisor.Interrupted _ -> Alcotest.fail "unexpected interruption");
  Alcotest.(check (list int)) "worker and supervisor tracks" [ 0; 1; 2 ]
    (List.map fst (Prof.tracks s));
  Alcotest.(check bool) "each worker's totals absorbed" true
    (List.for_all
       (fun trk -> (find_total (Prof.session_totals ~trk s) "gen").tt_count = 75)
       [ 0; 1 ]);
  check_line_matches_spans "--workers 2" s ~programs:150

let test_line_sequential () =
  let s = Prof.session () in
  let h = Prof.track s ~name:"shard0" 0 in
  Prof.span h "iterate" (fun () ->
      ignore
        (Campaign.run ~prof:h ~seed:31 ~iterations:150 strategy (config ())
         : Campaign.stats));
  check_line_matches_spans "sequential" s ~programs:150

let test_line_jobs () =
  let s = Prof.session () in
  ignore
    (Parallel.run ~jobs:2 ~prof:s ~seed:31 ~iterations:150 strategy
       (config ())
     : Parallel.result);
  check_line_matches_spans "--jobs 2" s ~programs:150

(* A resumed campaign's line covers this process only: its programs are
   the iterations run here, and its phases fit inside its wall time. *)
let test_line_resumed () =
  let first = Campaign.run_t ~seed:3 ~iterations:200 strategy (config ()) in
  let s = Prof.session ~spans:false () in
  let h = Prof.track s 0 in
  let t0 = Bvf_util.Mclock.now_s () in
  let stats =
    Campaign.run ~prof:h ~resume_from:(Campaign.snapshot first) ~seed:3
      ~iterations:100 strategy (config ())
  in
  let wall_s = Bvf_util.Mclock.elapsed_s ~since:t0 in
  Alcotest.(check int) "the campaign's total" 300
    stats.Campaign.st_generated;
  match Telemetry.profile_of_totals ~wall_s (Prof.session_totals s) with
  | Telemetry.Profile p ->
    Alcotest.(check int) "programs: this process only" 100 p.programs;
    Alcotest.(check bool) "phase seconds within wall_s" true
      (p.gen_s +. p.verify_s +. p.sanitize_s +. p.exec_s
       <= wall_s +. 1e-6)
  | _ -> Alcotest.fail "profile_of_totals built no Profile event"

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
  let s = Prof.session ~spans:profiled () in
  let h = Prof.track s ~name:"shard0" 0 in
  let stats =
    Prof.span h "iterate" (fun () ->
        Campaign.run ~telemetry:sink ~prof:h ~seed:31 ~iterations:150
          strategy (config ()))
  in
  Telemetry.close sink;
  let trace = read_all path in
  Sys.remove path;
  (Campaign.digest stats, trace, Prof.session_totals s, Prof.spans s)

let test_sequential_profile_pure () =
  let d1, t1, totals, spans = campaign_run ~profiled:true in
  let d2, t2, bare, no_spans = campaign_run ~profiled:false in
  Alcotest.(check string) "digest unchanged by --profile" d1 d2;
  Alcotest.(check string) "trace byte-identical with --profile" t1 t2;
  (* the enabled profiler excludes its own allocations from the
     always-on per-name totals; what remains is Gc.minor_words'
     native-code batching noise — a few words per run, where an
     unexcluded recorder would drift by tens of words per iteration *)
  List.iter
    (fun name ->
       Alcotest.(check bool)
         (name ^ " minor words within noise of --profile off") true
         (abs_float
            ((find_total totals name).Prof.tt_minor_w
             -. (find_total bare name).Prof.tt_minor_w)
          <= 150.0))
    [ "gen"; "verify"; "sanitize"; "exec" ];
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
  (* the spans and the totals agree: stop feeds both from the same
     clock reads *)
  Alcotest.(check bool) "span sum tracks the gen total" true
    (abs_float (span_sum spans "gen" -. (find_total totals "gen").Prof.tt_s)
     < 1e-6);
  Alcotest.(check bool) "phase minor words populated" true
    ((find_total totals "gen").Prof.tt_minor_w > 0.0
     && (find_total bare "verify").Prof.tt_minor_w > 0.0)

let parallel_run ~profiled =
  let path = Filename.temp_file "bvf_prof_par" ".jsonl" in
  let s = Prof.session ~spans:profiled () in
  let r =
    Parallel.run ~jobs:2 ~trace:path ~prof:s ~seed:31 ~iterations:150
      strategy (config ())
  in
  let trace = read_all path in
  Sys.remove path;
  (Parallel.digest r, trace, s)

let test_parallel_profile_pure () =
  let d1, t1, s = parallel_run ~profiled:true in
  let d2, t2, _ = parallel_run ~profiled:false in
  let spans = Prof.spans s in
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
  let coord = Prof.session_totals ~trk:2 s in
  List.iter
    (fun n ->
       Alcotest.(check bool) ("coordinator " ^ n ^ " present") true
         (List.exists (fun t -> t.Prof.tt_name = n) coord))
    [ "spawn"; "join"; "absorb"; "merge" ]

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
  Alcotest.(check int) "requests" 3 stats.Service.tl_requests;
  Alcotest.(check int) "invalid" 1 stats.Service.tl_invalid;
  Alcotest.(check int) "hits" 1 stats.Service.tl_hits;
  Alcotest.(check int) "misses" 2 stats.Service.tl_misses;
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
  Alcotest.(check (float 0.0)) "histogram covers every verification"
    (field m "verify_count")
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
      ( "hist",
        [
          QCheck_alcotest.to_alcotest prop_hist_quantile;
          QCheck_alcotest.to_alcotest prop_hist_absorb;
          Alcotest.test_case "vstats ladder = log2 buckets" `Quick
            test_hist_vstats_ladder;
          Alcotest.test_case "allocation-free add" `Quick
            test_hist_add_allocation_free;
        ] );
      ( "recording",
        [
          Alcotest.test_case "nesting and attribution" `Quick
            test_recording_nests_and_attributes;
        ] );
      ( "totals",
        [
          Alcotest.test_case "equal the span sums" `Quick
            test_totals_match_spans;
          Alcotest.test_case "allocation-free update" `Quick
            test_totals_allocation_free;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "round trip" `Quick test_chrome_round_trip;
          Alcotest.test_case "malformed reported" `Quick
            test_chrome_malformed_reported;
          Alcotest.test_case "deep nesting reported" `Quick
            test_chrome_deep_nesting;
        ] );
      (* --workers first: it forks, so no domain may have run yet *)
      ( "profile line",
        [
          Alcotest.test_case "--workers 2" `Quick test_line_workers;
          Alcotest.test_case "sequential" `Quick test_line_sequential;
          Alcotest.test_case "--jobs 2" `Quick test_line_jobs;
          Alcotest.test_case "resumed campaign" `Quick test_line_resumed;
        ] );
      ( "purity",
        [
          Alcotest.test_case "sequential --profile identical" `Quick
            test_sequential_profile_pure;
          Alcotest.test_case "jobs=2 --profile identical" `Quick
            test_parallel_profile_pure;
        ] );
      ( "serve",
        [
          Alcotest.test_case "metrics round trip" `Quick
            test_serve_metrics_round_trip;
        ] );
    ]
