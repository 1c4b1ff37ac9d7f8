(* Service-layer tests (docs/SERVICE.md): the verdict cache returns
   byte-identical results to a cold verification (including log and
   counters), evicts strictly LRU, survives the disk round trip and
   treats damaged files as errors; batches are deterministic across
   --jobs; the JSONL codec round-trips and echoes non-ASCII ids as
   UTF-8; the service telemetry events round-trip and aggregate. *)

module Version = Bvf_ebpf.Version
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Kconfig = Bvf_kernel.Kconfig
module Verifier = Bvf_verifier.Verifier
module Reject_reason = Bvf_verifier.Reject_reason
module Checkpoint = Bvf_core.Checkpoint
module Telemetry = Bvf_core.Telemetry
module Selftests = Bvf_core.Selftests
module Service = Bvf_core.Service
module Vcache = Bvf_core.Vcache
module Json = Bvf_util.Json

let version = Version.Bpf_next
let config = Kconfig.fixed version

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* Render a verdict the way batch output does (no cache field): the
   byte-identity the service contract promises. *)
let render (v : Vcache.verdict) : string =
  Service.response_to_json ~id:"x" ~key:"k" v

let corpus ?(n = 24) () : Verifier.request list =
  let suite = Selftests.build ~count:n version in
  List.filteri (fun i _ -> i < n) suite.Selftests.requests

let inputs_of (reqs : Verifier.request list) : Service.input list =
  List.mapi
    (fun i req ->
       { Service.in_id = Printf.sprintf "p%03d" i; in_req = Ok req })
    reqs

(* a program the fixed verifier rejects: r0 never initialized *)
let rejected_req : Verifier.request =
  { Verifier.r_prog_type = Prog.Socket_filter; r_attach = None;
    r_offload = false; r_insns = Asm.prog [ [ Asm.exit_ ] ] }

(* -- cache semantics ------------------------------------------------------ *)

let test_hit_equals_cold_verify () =
  (* the cached verdict is byte-identical to a cold verification, log
     and counters included, and cold verification is itself a pure
     function of the request *)
  let session = Service.create_session config in
  let config_fp, maps_fp = Service.fingerprints session in
  let cache = Vcache.create ~cap:64 in
  List.iter
    (fun req ->
       let key = Vcache.key ~config_fp ~maps_fp req in
       let cold = Service.verify_request ~log_level:2 session req in
       Vcache.insert cache key cold;
       (match Vcache.find cache key with
        | None -> Alcotest.fail "inserted verdict not found"
        | Some hit ->
          Alcotest.(check string) "hit == cold" (render cold) (render hit);
          Alcotest.(check bool) "vstats survive the cache" true
            (cold.Vcache.cv_vstats = hit.Vcache.cv_vstats));
       (* a second cold verify, in a *fresh* session, is identical:
          verdicts never depend on session history *)
       let again =
         Service.verify_request ~log_level:2
           (Service.create_session config) req
       in
       Alcotest.(check string) "cold is pure" (render cold) (render again))
    (rejected_req :: corpus ~n:8 ())

let test_rejected_verdict_fields () =
  let session = Service.create_session config in
  let v = Service.verify_request ~log_level:1 session rejected_req in
  Alcotest.(check bool) "rejected" false v.Vcache.cv_accepted;
  Alcotest.(check bool) "has a reason" true (v.Vcache.cv_reason <> None);
  Alcotest.(check bool) "has an errno" true (v.Vcache.cv_errno <> "");
  Alcotest.(check bool) "has a message" true (v.Vcache.cv_msg <> "");
  Alcotest.(check bool) "has a log" true (v.Vcache.cv_vlog <> "")

let dummy (tag : int) : Vcache.verdict =
  { Vcache.cv_accepted = true; cv_insns = tag; cv_insn_processed = tag;
    cv_errno = ""; cv_reason = None; cv_pc = 0; cv_msg = "";
    cv_vlog = ""; cv_vstats = None }

let test_lru_eviction () =
  let c = Vcache.create ~cap:2 in
  Vcache.insert c "k1" (dummy 1);
  Vcache.insert c "k2" (dummy 2);
  (* touch k1 so k2 becomes the eviction victim *)
  Alcotest.(check bool) "k1 hits" true (Vcache.find c "k1" <> None);
  Vcache.insert c "k3" (dummy 3);
  Alcotest.(check int) "bounded" 2 (Vcache.length c);
  Alcotest.(check bool) "k2 evicted" true (Vcache.find c "k2" = None);
  Alcotest.(check bool) "k1 kept" true (Vcache.find c "k1" <> None);
  Alcotest.(check bool) "k3 kept" true (Vcache.find c "k3" <> None);
  let s = Vcache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Vcache.cs_evictions;
  (* replacing an existing key is a refresh, not an eviction *)
  Vcache.insert c "k3" (dummy 33);
  Alcotest.(check int) "still bounded" 2 (Vcache.length c);
  Alcotest.(check int) "no extra eviction" 1
    (Vcache.stats c).Vcache.cs_evictions;
  (match Vcache.find c "k3" with
   | Some v -> Alcotest.(check int) "refreshed" 33 v.Vcache.cv_insns
   | None -> Alcotest.fail "refreshed entry missing");
  Alcotest.(check bool) "cap 0 refused" true
    (match Vcache.create ~cap:0 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_disk_round_trip () =
  let path = tmp "bvf-test-vcache.bin" in
  let c = Vcache.create ~cap:8 in
  List.iter (fun i -> Vcache.insert c (string_of_int i) (dummy i))
    [ 1; 2; 3; 4 ];
  ignore (Vcache.find c "2" : Vcache.verdict option); (* 2 becomes MRU *)
  (match Vcache.save c ~path with
   | Ok () -> ()
   | Error e ->
     Alcotest.failf "save: %s" (Checkpoint.error_to_string e));
  (match Vcache.load ~path ~cap:8 with
   | Error e -> Alcotest.failf "load: %s" (Checkpoint.error_to_string e)
   | Ok c' ->
     Alcotest.(check (list string)) "entries and recency survive"
       (List.map fst (Vcache.entries c))
       (List.map fst (Vcache.entries c'));
     Alcotest.(check int) "counters reset" 0
       (Vcache.stats c').Vcache.cs_insertions);
  (* a smaller cap keeps only the most recently used entries *)
  (match Vcache.load ~path ~cap:2 with
   | Error e -> Alcotest.failf "load: %s" (Checkpoint.error_to_string e)
   | Ok c2 ->
     Alcotest.(check (list string)) "MRU entries survive a smaller cap"
       [ "2"; "4" ]
       (List.map fst (Vcache.entries c2)));
  Sys.remove path

let test_disk_damage_is_error () =
  let path = tmp "bvf-test-vcache-damage.bin" in
  let c = Vcache.create ~cap:4 in
  Vcache.insert c "k" (dummy 1);
  (match Vcache.save c ~path with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" (Checkpoint.error_to_string e));
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let write s = Out_channel.with_open_bin path
      (fun oc -> Out_channel.output_string oc s) in
  let expect_error what =
    match Vcache.load ~path ~cap:4 with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s loaded as Ok" what
  in
  (* bit flip in the payload *)
  let flipped = Bytes.of_string bytes in
  let mid = Bytes.length flipped - 3 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xff));
  write (Bytes.to_string flipped);
  expect_error "bit-flipped cache";
  (* truncation *)
  write (String.sub bytes 0 (String.length bytes / 2));
  expect_error "truncated cache";
  (* foreign container: right magic, wrong tag *)
  (match Checkpoint.save ~path ~tag:"not-a-vcache/1" [ ("k", 1) ] with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" (Checkpoint.error_to_string e));
  (match Vcache.load ~path ~cap:4 with
   | Error (Checkpoint.Tag_mismatch _) -> ()
   | Error e ->
     Alcotest.failf "expected Tag_mismatch, got %s"
       (Checkpoint.error_to_string e)
   | Ok _ -> Alcotest.fail "foreign tag loaded as Ok");
  Sys.remove path;
  (* missing file *)
  expect_error "missing cache"

(* -- batch ---------------------------------------------------------------- *)

let batch_lines ?(jobs = 1) ?(cache = Vcache.create ~cap:4096)
    (inputs : Service.input list) : string list * Service.summary =
  let items, summary = Service.run_batch ~jobs ~cache config inputs in
  (List.map Service.item_to_json items, summary)

(* drop the one history-dependent field, as the CI gate does with sed *)
let strip_cache_field (line : string) : string =
  let marker = {|,"cache":"|} in
  let ml = String.length marker and n = String.length line in
  let rec find i =
    if i + ml > n then None
    else if String.sub line i ml = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
    let j = String.index_from line (i + ml) '"' in
    String.sub line 0 i ^ String.sub line (j + 1) (n - j - 1)

let test_batch_jobs_deterministic () =
  let inputs =
    inputs_of (corpus ~n:24 ())
    @ [ { Service.in_id = "rej"; in_req = Ok rejected_req };
        { Service.in_id = "bad"; in_req = Error "no parse" } ]
  in
  let lines1, s1 = batch_lines ~jobs:1 inputs in
  let lines4, s4 = batch_lines ~jobs:4 inputs in
  Alcotest.(check (list string)) "jobs 1 == jobs 4" lines1 lines4;
  Alcotest.(check int) "admitted agree" s1.Service.bs_admitted
    s4.Service.bs_admitted;
  Alcotest.(check int) "one rejection" 1 s1.Service.bs_rejected;
  Alcotest.(check int) "one invalid" 1 s1.Service.bs_invalid

let test_batch_warm_rerun_hits () =
  let inputs = inputs_of (corpus ~n:24 ()) in
  let cache = Vcache.create ~cap:4096 in
  let cold, sc = batch_lines ~jobs:2 ~cache inputs in
  let warm, sw = batch_lines ~jobs:2 ~cache inputs in
  Alcotest.(check int) "cold misses all" 24 sc.Service.bs_misses;
  Alcotest.(check int) "warm hits all" 24 sw.Service.bs_hits;
  Alcotest.(check int) "warm verifies nothing" 0 sw.Service.bs_misses;
  (* stripped of the one history-dependent field, warm == cold *)
  Alcotest.(check (list string)) "warm == cold up to the cache field"
    (List.map strip_cache_field cold)
    (List.map strip_cache_field warm)

let test_batch_cache_off_identity () =
  (* the cache changes nothing: a cached batch and an uncached batch
     produce the same verdict lines *)
  let inputs = inputs_of (rejected_req :: corpus ~n:12 ()) in
  let cache = Vcache.create ~cap:4096 in
  let with_cache, _ = batch_lines ~jobs:2 ~cache inputs in
  let _, _ = batch_lines ~jobs:2 ~cache inputs in
  let warm, _ = batch_lines ~jobs:2 ~cache inputs in
  let no_cache, _ =
    (* cap 1 with 13 distinct programs: every probe misses, the cache
       never answers *)
    batch_lines ~jobs:2 ~cache:(Vcache.create ~cap:1) inputs
  in
  Alcotest.(check (list string)) "cache on == cache off"
    (List.map strip_cache_field with_cache)
    (List.map strip_cache_field no_cache);
  Alcotest.(check (list string)) "warm == cache off"
    (List.map strip_cache_field warm)
    (List.map strip_cache_field no_cache)

let test_batch_telemetry_events () =
  let inputs = inputs_of (rejected_req :: corpus ~n:4 ()) in
  let path = tmp "bvf-test-service-trace.jsonl" in
  let sink = Telemetry.create path in
  let cache = Vcache.create ~cap:64 in
  let _ = Service.run_batch ~sink ~jobs:1 ~cache config inputs in
  let _ = Service.run_batch ~sink ~jobs:1 ~cache config inputs in
  Telemetry.close sink;
  let events = Telemetry.read_file path in
  let summary = Telemetry.summarize events in
  (match summary.Telemetry.su_service with
   | None -> Alcotest.fail "no service summary"
   | Some sv ->
     Alcotest.(check int) "requests" 10 sv.Telemetry.ssu_requests;
     Alcotest.(check int) "misses (cold pass)" 5 sv.Telemetry.ssu_misses;
     Alcotest.(check int) "hits (warm pass)" 5 sv.Telemetry.ssu_hits;
     Alcotest.(check int) "admitted" 8 sv.Telemetry.ssu_admitted;
     Alcotest.(check int) "rejected" 2 sv.Telemetry.ssu_rejected);
  Sys.remove path

(* -- JSONL codec ---------------------------------------------------------- *)

let test_request_round_trip () =
  List.iteri
    (fun i req ->
       let r = { Service.q_id = Printf.sprintf "req-%d" i; q_req = req } in
       let line = Service.request_to_json r in
       match Service.request_of_json line with
       | Error msg -> Alcotest.failf "round trip failed: %s" msg
       | Ok r' ->
         Alcotest.(check string) "id" r.Service.q_id r'.Service.q_id;
         Alcotest.(check bool) "request" true
           (r.Service.q_req = r'.Service.q_req))
    (corpus ~n:12 ())

let test_request_errors () =
  let err line =
    match Service.request_of_json line with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "parsed: %s" line
  in
  Alcotest.(check string) "not json" "malformed JSON" (err "nope");
  Alcotest.(check string) "nested values are not requests"
    "malformed JSON"
    (err {|{"id":"r1","prog_type":"xdp","prog":["9500000000000000"]}|});
  Alcotest.(check string) "missing id" "missing id"
    (err {|{"prog_type":"xdp","prog":"9500000000000000"}|});
  Alcotest.(check bool) "bad hex names the request" true
    (err {|{"id":"r1","prog_type":"xdp","prog":"zz"}|} = "r1: prog is not hex");
  Alcotest.(check bool) "odd digits" true
    (err {|{"id":"r1","prog_type":"xdp","prog":"950"}|}
     = "r1: prog hex has an odd digit count");
  Alcotest.(check bool) "unknown prog_type" true
    (err {|{"id":"r1","prog_type":"nope","prog":"00"}|}
     = {|r1: unknown prog_type "nope"|});
  (* an input keeps its id even when the payload fails *)
  let input =
    Service.input_of_json ~fallback_id:"line9"
      {|{"id":"r7","prog_type":"xdp","prog":"zz"}|}
  in
  Alcotest.(check string) "error input id" "r7" input.Service.in_id;
  let input = Service.input_of_json ~fallback_id:"line9" "garbage" in
  Alcotest.(check string) "fallback id" "line9" input.Service.in_id

(* [\u] escapes decode to UTF-8 (a surrogate pair to one code point, a
   lone surrogate to U+FFFD), so the serve loop echoes the caller's id
   byte-exact instead of a Latin-1 byte or a placeholder. *)
let test_unicode_ids_echoed () =
  let in_path = tmp "bvf_svc_unicode_in.jsonl" in
  let out_path = tmp "bvf_svc_unicode_out.jsonl" in
  let cases =
    [ ({|\u00e9|}, "\xc3\xa9");
      ({|\u20ac|}, "\xe2\x82\xac");
      ({|\ud83d\ude00|}, "\xf0\x9f\x98\x80");
      ({|\ud800x|}, "\xef\xbf\xbdx") ]
  in
  Out_channel.with_open_bin in_path (fun oc ->
      List.iter
        (fun (esc, _) -> Printf.fprintf oc "{\"id\":\"%s\"}\n" esc)
        cases);
  let ic = open_in_bin in_path and oc = open_out_bin out_path in
  ignore
    (Service.serve ~cache:(Vcache.create ~cap:4)
       ~session:(Service.create_session config) ~stop:(fun () -> false)
       ic oc : Service.serve_stats);
  close_in ic;
  close_out oc;
  let lines = In_channel.with_open_bin out_path In_channel.input_lines in
  Sys.remove in_path;
  Sys.remove out_path;
  Alcotest.(check int) "one response per request" (List.length cases)
    (List.length lines);
  List.iter2
    (fun (esc, utf8) line ->
       Alcotest.(check (option string)) esc (Some utf8)
         (Json.str (Json.parse_object line) "id"))
    cases lines

let test_service_events_round_trip () =
  List.iter
    (fun ev ->
       let line = Telemetry.to_json ev in
       match Telemetry.of_json line with
       | Some ev' ->
         Alcotest.(check string) "round trip" line (Telemetry.to_json ev')
       | None -> Alcotest.failf "unparsable: %s" line)
    [ Telemetry.Service_hit { seq = 0; key = "abc" };
      Telemetry.Service_miss { seq = 1; key = "def" };
      Telemetry.Service_admitted
        { seq = 2; key = "abc"; insns = 7; insn_processed = 9 };
      Telemetry.Service_rejected
        { seq = 3; key = "def"; reason = Reject_reason.Unknown } ]

let test_vlog_cap () =
  let long = String.make (Vcache.vlog_cap + 100) 'x' in
  let capped = Vcache.cap_vlog long in
  Alcotest.(check bool) "capped" true
    (String.length capped < String.length long);
  Alcotest.(check string) "short logs untouched" "short"
    (Vcache.cap_vlog "short")

let () =
  Alcotest.run "service"
    [
      ( "vcache",
        [
          Alcotest.test_case "hit equals cold verify" `Quick
            test_hit_equals_cold_verify;
          Alcotest.test_case "rejected verdict fields" `Quick
            test_rejected_verdict_fields;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "disk round trip" `Quick
            test_disk_round_trip;
          Alcotest.test_case "disk damage is an error" `Quick
            test_disk_damage_is_error;
          Alcotest.test_case "vlog cap" `Quick test_vlog_cap;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs 1 == jobs N" `Quick
            test_batch_jobs_deterministic;
          Alcotest.test_case "warm rerun hits" `Quick
            test_batch_warm_rerun_hits;
          Alcotest.test_case "cache on == cache off" `Quick
            test_batch_cache_off_identity;
          Alcotest.test_case "telemetry events" `Quick
            test_batch_telemetry_events;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request round trip" `Quick
            test_request_round_trip;
          Alcotest.test_case "request errors" `Quick test_request_errors;
          Alcotest.test_case "unicode ids echoed as UTF-8" `Quick
            test_unicode_ids_echoed;
          Alcotest.test_case "service events round trip" `Quick
            test_service_events_round_trip;
        ] );
    ]
