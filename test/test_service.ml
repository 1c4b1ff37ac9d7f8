(* Service-layer tests (docs/SERVICE.md): the verdict cache returns
   byte-identical results to a cold verification (including log and
   counters), evicts strictly LRU, survives the disk round trip and
   treats damaged files as errors, and its keys are pinned; batches
   are deterministic across --jobs; the JSONL codec round-trips,
   decodes hex as a plain reference model does and echoes non-ASCII
   ids as UTF-8; the serve loop answers every kind of line once, and
   any line at all (mutated, random, truncated, deeply nested, raw
   NUL and non-UTF-8 bytes, oversized) with one id-carrying object, a
   line past the cap with an error naming it, and with the wire index
   exactly as a full parse, key and lookup would (non-canonical
   encodings, other ids, load attributes and eviction included); the
   service telemetry events round-trip and aggregate; an unreadable
   directory entry is an error line; the tally's size is fixed. *)

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
module Insn = Bvf_ebpf.Insn
module Encode = Bvf_ebpf.Encode

let version = Version.Bpf_next
let config = Kconfig.fixed version

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* Render a verdict the way batch output does (no cache field): the
   byte-identity the service contract promises. *)
let render (v : Vcache.verdict) : string =
  Service.response_to_json ~id:"x" ~key:"k" v

let corpus ?(n = 24) () : Verifier.request list =
  (Selftests.build ~count:n version).Selftests.requests

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

(* Changing a key orphans every saved --cache-file, which only a
   verifier_abi bump may do (docs/SERVICE.md): these values pin the
   key formula. *)
let test_cache_key_pinned () =
  let config_fp, maps_fp =
    Service.fingerprints (Service.create_session config)
  in
  let key = Vcache.key ~config_fp ~maps_fp in
  let requests = (Selftests.build version).Selftests.requests in
  Alcotest.(check string) "lone exit" "3a80c69b94768bce973f0c238b6fff23"
    (key rejected_req);
  Alcotest.(check string) "selftest 0" "afdccc05e461223593a7ac9ff0a95e60"
    (key (List.nth requests 0));
  Alcotest.(check string) "selftest 1" "d33fed9265ea84dd5fb47e72e5394ecf"
    (key (List.nth requests 1))

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

(* The wire index: a bound identity finds its entry and counts as a
   [find] hit would; an entry keeps one identity; eviction drops it; a
   miss counts nothing. *)
let test_wire_index () =
  let wire prog =
    { Vcache.wi_prog_type = "xdp"; wi_attach = None; wi_offload = false;
      wi_prog = prog }
  in
  let found c w = Option.map fst (Vcache.find_wire c w) in
  let c = Vcache.create ~cap:2 in
  Vcache.insert c "k1" (dummy 1);
  Vcache.insert c "k2" (dummy 2);
  Vcache.bind_wire c "k1" (wire "aa");
  Vcache.bind_wire c "absent" (wire "bb");
  Alcotest.(check (option string)) "bound" (Some "k1") (found c (wire "aa"));
  Alcotest.(check (option string)) "no entry, no binding" None
    (found c (wire "bb"));
  let s = Vcache.stats c in
  Alcotest.(check (list int)) "one hit, no miss counted" [ 1; 0 ]
    [ s.Vcache.cs_hits; s.Vcache.cs_misses ];
  Alcotest.(check (list string)) "a hit is most recent" [ "k1"; "k2" ]
    (List.map fst (Vcache.entries c));
  List.iter
    (fun (name, w) ->
       Alcotest.(check (option string)) name None (found c w))
    [ ("another prog_type",
       { (wire "aa") with Vcache.wi_prog_type = "kprobe" });
      ("an attach point", { (wire "aa") with Vcache.wi_attach = Some "x" });
      ("offload", { (wire "aa") with Vcache.wi_offload = true });
      ("upper case", wire "AA") ];
  Vcache.bind_wire c "k1" (wire "AA");
  Alcotest.(check (list (option string))) "one identity per entry"
    [ None; Some "k1" ] [ found c (wire "aa"); found c (wire "AA") ];
  Vcache.insert c "k3" (dummy 3);
  Vcache.insert c "k4" (dummy 4);
  Alcotest.(check (option string)) "gone with its entry" None
    (found c (wire "AA"))

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

let batch_lines ?log_level ?(jobs = 1) ?(cache = Vcache.create ~cap:4096)
    (inputs : Service.input list) : string list * Service.tally =
  let items, summary =
    Service.run_batch ?log_level ~jobs ~cache config inputs
  in
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
  let lines3, _ = batch_lines ~jobs:3 inputs in
  let lines4, s4 = batch_lines ~jobs:4 inputs in
  (* on a 2-core machine jobs 3 puts workers 0 and 2 on the caller's
     lane, one after the other *)
  Alcotest.(check (list string)) "jobs 1 == jobs 3" lines1 lines3;
  Alcotest.(check (list string)) "jobs 1 == jobs 4" lines1 lines4;
  Alcotest.(check int) "admitted agree" s1.Service.tl_admitted
    s4.Service.tl_admitted;
  Alcotest.(check int) "one rejection" 1 s1.Service.tl_rejected;
  Alcotest.(check int) "one invalid" 1 s1.Service.tl_invalid

let test_batch_warm_rerun_hits () =
  let inputs = inputs_of (corpus ~n:24 ()) in
  let cache = Vcache.create ~cap:4096 in
  let cold, sc = batch_lines ~jobs:2 ~cache inputs in
  let warm, sw = batch_lines ~jobs:2 ~cache inputs in
  Alcotest.(check int) "cold misses all" 24 sc.Service.tl_misses;
  Alcotest.(check int) "warm hits all" 24 sw.Service.tl_hits;
  Alcotest.(check int) "warm verifies nothing" 0 sw.Service.tl_misses;
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

(* A verdict cached at log level 2 holds its log: a level-0 pass
   through the same cache must answer as a cold level-0 pass does, with
   no vlog. *)
let test_batch_log_level_keyed () =
  let inputs = inputs_of (rejected_req :: corpus ~n:6 ()) in
  let cache = Vcache.create ~cap:4096 in
  ignore (batch_lines ~log_level:2 ~cache inputs);
  Alcotest.(check bool) "level-2 verdicts hold logs" true
    (List.for_all (fun (_, v) -> v.Vcache.cv_vlog <> "")
       (Vcache.entries cache));
  let level0, s0 = batch_lines ~cache inputs in
  let cold0, _ = batch_lines inputs in
  Alcotest.(check int) "level 0 misses every level-2 entry"
    (List.length inputs) s0.Service.tl_misses;
  Alcotest.(check (list string)) "level 0 after level 2 == cold level 0"
    (List.map strip_cache_field cold0)
    (List.map strip_cache_field level0)

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

let test_batch_unreadable_entry () =
  (* a directory named like a program is that entry's error line *)
  let dir = tmp "bvf-test-service-dir" in
  let bin =
    match corpus ~n:1 () with
    | req :: _ -> Encode.encode req.Verifier.r_insns
    | [] -> Alcotest.fail "empty selftest corpus"
  in
  let good = Filename.concat dir "a.bin" and bad = Filename.concat dir "x.bin" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  (try Sys.mkdir bad 0o755 with Sys_error _ -> ());
  Out_channel.with_open_bin good (fun oc -> Out_channel.output_bytes oc bin);
  let lines, t = batch_lines (Service.read_dir dir) in
  Sys.remove good;
  Sys.rmdir bad;
  Sys.rmdir dir;
  Alcotest.(check int) "one verdict" 1 t.Service.tl_requests;
  Alcotest.(check int) "one error" 1 t.Service.tl_invalid;
  match List.map Json.parse_object lines with
  | [ a; x ] ->
    Alcotest.(check (option string)) "verdict id" (Some "a.bin")
      (Json.str a "id");
    Alcotest.(check (option string)) "error id" (Some "x.bin")
      (Json.str x "id");
    Alcotest.(check (option string)) "error line" (Some "error")
      (Json.str x "verdict");
    Alcotest.(check bool) "names the entry" true
      (match Json.str x "msg" with
       | Some m -> String.starts_with ~prefix:"cannot read x.bin: " m
       | None -> false)
  | _ -> Alcotest.failf "%d result lines" (List.length lines)

(* -- tally ---------------------------------------------------------------- *)

let test_tally_fixed_size () =
  (* a long-lived serve counts into fixed memory *)
  let t = Service.tally () in
  let cache = Vcache.create ~cap:1 in
  let v = Service.verify_request (Service.create_session config) rejected_req in
  let miss i =
    Service.record t ~sink:Telemetry.null ~cache
      ~key:(string_of_int i) ~verify_s:(float_of_int (i mod 5000) *. 1e-6) v
  in
  List.iter
    (fun b ->
       Alcotest.(check bool) (Printf.sprintf "%d ns is a bound" b) true
         (Array.mem b Service.verify_ladder))
    [ 100_000; 1_000_000; 10_000_000 ];
  for i = 1 to 10 do miss i done;
  let words = Obj.reachable_words (Obj.repr t) in
  for i = 11 to 100_000 do miss i done;
  Alcotest.(check int) "misses" 100_000 t.Service.tl_misses;
  Alcotest.(check int) "latencies" 100_000
    (Bvf_util.Hist.total t.Service.tl_verify_ns);
  Alcotest.(check int) "same words after 100000 misses" words
    (Obj.reachable_words (Obj.repr t))

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

(* -- hex decoding ---------------------------------------------------------- *)

let is_hex c =
  match c with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let is_skipped c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* The decoding rules, written plainly: any byte that is neither a hex
   digit nor skipped whitespace fails first, then an odd digit count;
   the bytes then go through the wire decoder. *)
let model_insns (prog : string) : (Insn.t array, string) result =
  if String.exists (fun c -> not (is_hex c || is_skipped c)) prog then
    Error "q: prog is not hex"
  else
    let digits = String.of_seq (Seq.filter is_hex (String.to_seq prog)) in
    let n = String.length digits in
    if n mod 2 <> 0 then Error "q: prog hex has an odd digit count"
    else
      let bytes =
        Bytes.init (n / 2) (fun i ->
            Char.chr (int_of_string ("0x" ^ String.sub digits (2 * i) 2)))
      in
      match Encode.decode bytes with
      | Ok insns -> Ok insns
      | Error e ->
        Error
          (Printf.sprintf "q: bad program at slot %d: %s" e.Encode.pos
             e.Encode.reason)

(* Prog strings over both-case digits, the skipped whitespace and a few
   junk bytes.  Half start from a real program's hex, recased, with
   bytes of the same alphabet inserted, so whole programs decode too. *)
let gen_prog_text : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let digit = map (String.get "0123456789abcdefABCDEF") (int_bound 21) in
  let space = oneofl [ ' '; '\t'; '\n'; '\r' ] in
  let junk = oneofl [ 'g'; 'x'; '\000'; '\xff' ] in
  let any = frequency [ (12, digit); (3, space); (1, junk) ] in
  let programs =
    List.map
      (fun (r : Verifier.request) ->
         let line = Service.request_to_json { Service.q_id = "q"; q_req = r } in
         Option.get (Json.str (Json.parse_object line) "prog"))
      (rejected_req :: corpus ~n:6 ())
  in
  let edit prog =
    let* upper = bool and* inserts = list_size (int_bound 3) (pair nat any) in
    let prog = if upper then String.uppercase_ascii prog else prog in
    return
      (List.fold_left
         (fun p (at, c) ->
            let at = at mod (String.length p + 1) in
            String.sub p 0 at ^ String.make 1 c
            ^ String.sub p at (String.length p - at))
         prog inserts)
  in
  frequency
    [ (1, string_size ~gen:any (int_bound 40));
      (1, oneofl programs >>= edit) ]

let prop_hex_decoder =
  QCheck2.Test.make ~count:1000 ~name:"request_of_json hex = reference model"
    ~print:String.escaped gen_prog_text
    (fun prog ->
       let b = Buffer.create 64 in
       Buffer.add_string b {|{"id":"q","prog_type":"socket_filter","prog":"|};
       Json.escape b prog;
       Buffer.add_string b {|"}|};
       let got =
         Result.map
           (fun r -> r.Service.q_req.Verifier.r_insns)
           (Service.request_of_json (Buffer.contents b))
       in
       got = model_insns prog)

(* -- serve loop ------------------------------------------------------------ *)

(* One serve loop over [lines] on [cache]: its responses and tally. *)
let serve_run ?(sink = Telemetry.null) ~(cache : Vcache.t)
    (lines : string list) : string list * Service.tally =
  let in_path = tmp "bvf_svc_serve_in.jsonl" in
  let out_path = tmp "bvf_svc_serve_out.jsonl" in
  Out_channel.with_open_bin in_path (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines);
  let ic = open_in_bin in_path and oc = open_out_bin out_path in
  let t =
    Service.serve ~sink ~cache ~session:(Service.create_session config)
      ~stop:(fun () -> false) ic oc
  in
  close_in ic;
  close_out oc;
  let out = In_channel.with_open_bin out_path In_channel.input_lines in
  Sys.remove in_path;
  Sys.remove out_path;
  (out, t)

let serve_lines ?(cache = Vcache.create ~cap:64) (lines : string list) :
  string list =
  fst (serve_run ~cache lines)

let is_metrics (line : string) : bool =
  match Json.parse_object line with
  | f -> Json.bool f "metrics" = Some true
  | exception Json.Parse -> false

(* One stream with every kind of line: repeats (cache hits), metrics
   requests (one also carrying prog fields), malformed JSON after blank
   lines (the fallback id counts them), a missing id and bad hex. *)
let test_serve_mixed_stream () =
  let line id req =
    Service.request_to_json { Service.q_id = id; q_req = req }
  in
  let reqs = corpus ~n:2 () in
  let a = line "a" (List.nth reqs 0) and b = line "b" (List.nth reqs 1) in
  let c = line "c" rejected_req in
  let lines =
    [ a; b; a; {|{"metrics":true}|}; c; ""; "  "; "nope"; b;
      {|{"prog_type":"xdp","prog":"9500000000000000"}|};
      {|{"id":"h","prog_type":"xdp","prog":"zz"}|};
      {|{"id":"m2","metrics":true,"prog_type":"xdp","prog":"9500000000000000"}|};
      c; "{" ]
  in
  (* the expected responses, built from the codec's own pieces *)
  let session = Service.create_session config in
  let config_fp, maps_fp = Service.fingerprints session in
  let seen = Hashtbl.create 8 in
  let expected =
    List.concat
      (List.mapi
         (fun i l ->
            if String.trim l = "" then []
            else if is_metrics l then [ None ]
            else
              let input =
                Service.input_of_json
                  ~fallback_id:(Printf.sprintf "line%d" (i + 1)) l
              in
              match input.Service.in_req with
              | Error msg ->
                [ Some (Service.error_to_json ~id:input.Service.in_id msg) ]
              | Ok req ->
                let key = Vcache.key ~config_fp ~maps_fp req in
                let hit = Hashtbl.mem seen key in
                Hashtbl.replace seen key ();
                [ Some
                    (Service.response_to_json ~id:input.Service.in_id ~key
                       ~hit (Service.verify_request session req)) ])
         lines)
  in
  let got = serve_lines lines in
  Alcotest.(check int) "one response per non-blank line"
    (List.length expected) (List.length got);
  let metrics =
    List.concat
      (List.map2
         (fun exp line ->
            match exp with
            | Some exp -> Alcotest.(check string) "response" exp line; []
            | None -> [ Json.parse_object line ])
         expected got)
  in
  let counters f =
    List.map
      (fun k -> Option.get (Json.int f k))
      [ "requests"; "invalid"; "cache_hits"; "cache_misses" ]
  in
  (match metrics with
   | [ m1; m2 ] ->
     Alcotest.(check (option string)) "default id" (Some "metrics")
       (Json.str m1 "id");
     Alcotest.(check (list int)) "counters at the first metrics line"
       [ 3; 0; 1; 2 ] (counters m1);
     Alcotest.(check (option string)) "echoed id" (Some "m2")
       (Json.str m2 "id");
     Alcotest.(check (list int)) "counters at the second metrics line"
       [ 5; 3; 2; 3 ] (counters m2)
   | _ -> Alcotest.fail "expected two metrics responses");
  Alcotest.(check bool) "malformed line named by its line number" true
    (List.mem {|{"id":"line8","verdict":"error","msg":"malformed JSON"}|} got)

(* A line longer than the cap is answered with an error naming its line
   number, and its bytes never become a request; the next line is
   served.  The same for serve and read_jsonl. *)
let test_line_cap () =
  let long =
    {|{"id":"long","prog_type":"xdp","prog":"|}
    ^ String.make (2 * Json.max_line) 'f' ^ {|"}|}
  in
  let valid =
    Service.request_to_json { Service.q_id = "after"; q_req = rejected_req }
  in
  let error =
    Service.error_to_json ~id:"line1"
      (Printf.sprintf "request line longer than %d bytes" Json.max_line)
  in
  (match serve_lines [ long; valid ] with
   | [ first; second ] ->
     Alcotest.(check string) "serve: the long line" error first;
     Alcotest.(check (option string)) "serve: the next line" (Some "after")
       (Json.str (Json.parse_object second) "id")
   | out -> Alcotest.failf "serve: %d responses to two lines" (List.length out));
  let path = tmp "bvf_svc_line_cap.jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n')
        [ long; valid ]);
  let inputs = Service.read_jsonl path in
  Sys.remove path;
  Alcotest.(check (list string)) "read_jsonl: two inputs"
    [ "line1"; "after" ]
    (List.map (fun i -> i.Service.in_id) inputs);
  Alcotest.(check bool) "read_jsonl: the long line is an error" true
    (Result.is_error (List.hd inputs).Service.in_req)

(* [\u] escapes decode to UTF-8 (a surrogate pair to one code point, a
   lone surrogate to U+FFFD), so the serve loop echoes the caller's id
   byte-exact instead of a Latin-1 byte or a placeholder. *)
let test_unicode_ids_echoed () =
  let cases =
    [ ({|\u00e9|}, "\xc3\xa9");
      ({|\u20ac|}, "\xe2\x82\xac");
      ({|\ud83d\ude00|}, "\xf0\x9f\x98\x80");
      ({|\ud800x|}, "\xef\xbf\xbdx") ]
  in
  let lines =
    serve_lines ~cache:(Vcache.create ~cap:4)
      (List.map (fun (esc, _) -> Printf.sprintf "{\"id\":\"%s\"}" esc) cases)
  in
  Alcotest.(check int) "one response per request" (List.length cases)
    (List.length lines);
  List.iter2
    (fun (esc, utf8) line ->
       Alcotest.(check (option string)) esc (Some utf8)
         (Json.str (Json.parse_object line) "id"))
    cases lines

(* -- request-path property ------------------------------------------------- *)

let hex_of_string (s : string) : string =
  String.to_seq s
  |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

let string_of_hex (h : string) : string =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let request_line ~(id : string) ~(prog_type : string) (hex : string) : string =
  Printf.sprintf {|{"id":"%s","prog_type":"%s","prog":"%s"}|} id prog_type hex

(* Wire bytes of the corpus programs the mutations start from. *)
let corpus_wire : string list =
  List.map
    (fun (r : Verifier.request) ->
       let line = Service.request_to_json { Service.q_id = "q"; q_req = r } in
       string_of_hex (Option.get (Json.str (Json.parse_object line) "prog")))
    (rejected_req :: corpus ~n:24 ())

let gen_prog_type : string QCheck2.Gen.t =
  QCheck2.Gen.oneofl (List.map Prog.prog_type_to_string Prog.all_prog_types)

(* One input line of every shape a client can send: mutated and random
   programs, truncated and deeply nested lines, raw NUL and non-UTF-8
   bytes, an oversized prog, blanks.  No line holds a newline, so each
   is one line of the serve input. *)
let gen_request_line : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let prog_type = gen_prog_type in
  let valid =
    let* wire = oneofl corpus_wire and* prog_type = prog_type in
    return (request_line ~id:"v" ~prog_type (hex_of_string wire))
  in
  let mutated =
    let* wire = oneofl corpus_wire
    and* edits = list_size (int_range 1 4) (pair nat (int_bound 255))
    and* prog_type = prog_type in
    let b = Bytes.of_string wire in
    List.iter
      (fun (at, v) -> Bytes.set b (at mod Bytes.length b) (Char.chr v))
      edits;
    return
      (request_line ~id:"mut" ~prog_type (hex_of_string (Bytes.to_string b)))
  in
  let random_prog =
    let* wire = string_size ~gen:char (int_range 8 96)
    and* prog_type = prog_type in
    return (request_line ~id:"rand" ~prog_type (hex_of_string wire))
  in
  let truncated =
    let* line = valid and* at = nat in
    return (String.sub line 0 (at mod String.length line))
  in
  let deep =
    oneofl
      [ {|{"id":"deep","x":|} ^ String.concat "" (List.init 600 (fun _ -> {|{"a":|}))
        ^ "1" ^ String.make 601 '}';
        {|{"id":"arr","prog":|} ^ String.make 600 '[' ^ String.make 600 ']'
        ^ "}";
        String.make 600 '{' ]
  in
  let raw_bytes =
    let* line = valid
    and* inserts =
      list_size (int_range 1 3)
        (pair nat (oneofl [ '\000'; '\xff'; '\xfe'; '\xc3'; '\x80' ]))
    in
    return
      (List.fold_left
         (fun l (at, c) ->
            let at = at mod (String.length l + 1) in
            String.sub l 0 at ^ String.make 1 c
            ^ String.sub l at (String.length l - at))
         line inserts)
  in
  let oversized =
    let* prog_type = prog_type in
    oneofl
      [ (* a valid 4401-insn program: 70 416 hex digits *)
        request_line ~id:"big" ~prog_type
          (String.concat "" (List.init 4400 (fun _ -> "b700000000000000"))
           ^ "9500000000000000");
        request_line ~id:"bigjunk" ~prog_type (String.make 70_000 'f') ]
  in
  frequency
    [ (4, mutated); (2, random_prog); (2, truncated); (1, valid);
      (1, deep); (2, raw_bytes); (1, oversized);
      (1, oneofl [ ""; "  "; "\t" ]) ]

(* Whatever the lines, serve returns normally and answers each non-blank
   one with exactly one JSON object carrying an id. *)
let prop_request_path =
  QCheck2.Test.make ~count:150
    ~name:"serve answers every line once, with an id"
    ~print:(fun lines ->
        String.concat "\n"
          (List.map
             (fun l ->
                String.escaped
                  (if String.length l > 160 then String.sub l 0 160 ^ "..."
                   else l))
             lines))
    QCheck2.Gen.(list_size (int_range 1 10) gen_request_line)
    (fun lines ->
       let got = serve_lines lines in
       let expected =
         List.length (List.filter (fun l -> String.trim l <> "") lines)
       in
       let has_id line =
         match Json.parse_object line with
         | f -> Json.str f "id" <> None
         | exception Json.Parse -> false
       in
       if List.length got <> expected then
         QCheck2.Test.fail_reportf "%d responses to %d non-blank lines"
           (List.length got) expected;
       match List.find_opt (fun l -> not (has_id l)) got with
       | Some bad -> QCheck2.Test.fail_reportf "response without id: %S" bad
       | None -> true)

(* -- wire index ---------------------------------------------------------------- *)

(* The request path without the wire index: each line parsed and
   decoded in full ([input_of_json], which is [request_of_json] keeping
   the id), keyed with [Vcache.key], looked up with [Vcache.find],
   verified on a miss and answered with [response_to_json]. *)
let reference_run ?(sink = Telemetry.null) ~(cache : Vcache.t)
    (lines : string list) : string list * Service.tally =
  let session = Service.create_session config in
  let config_fp, maps_fp = Service.fingerprints session in
  let t = Service.tally () in
  let answer i line =
    let input =
      Service.input_of_json ~fallback_id:(Printf.sprintf "line%d" (i + 1))
        line
    in
    match input.Service.in_req with
    | Error msg ->
      t.Service.tl_invalid <- t.Service.tl_invalid + 1;
      Service.error_to_json ~id:input.Service.in_id msg
    | Ok req ->
      let key = Vcache.key ~config_fp ~maps_fp req in
      let v, verify_s =
        match Vcache.find cache key with
        | Some v -> (v, None)
        | None -> (Service.verify_request session req, Some 0.)
      in
      Service.record t ~sink ~cache ~key ?verify_s v;
      Service.response_to_json ~id:input.Service.in_id ~key
        ~hit:(verify_s = None) v
  in
  let out =
    List.concat
      (List.mapi
         (fun i l -> if String.trim l = "" then [] else [ answer i l ])
         lines)
  in
  (out, t)

(* A line with every request field under the caller's control. *)
let wire_line ~(id : string) ?(prog_type = "socket_filter") ?attach
    ?(offload = false) (wire : string) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b {|{"id":"%s","prog_type":"%s"|} id prog_type;
  Option.iter
    (fun a ->
       Buffer.add_string b {|,"attach":"|};
       Json.escape b a;
       Buffer.add_char b '"')
    attach;
  if offload then Buffer.add_string b {|,"offload":true|};
  Printf.bprintf b {|,"prog":"%s"}|} (hex_of_string wire);
  Buffer.contents b

(* [wire] with the [off] of its last exit slot set to 1, a field the
   decoder ignores (9500000000000000 -> 9500010000000000): the same
   program, not canonically encoded. *)
let noncanonical (wire : string) : string option =
  let exit_slot = "\x95\000\000\000\000\000\000\000" in
  let rec last k =
    if k < 0 then None
    else if String.sub wire (8 * k) 8 = exit_slot then Some k
    else last (k - 1)
  in
  Option.map
    (fun k ->
       let b = Bytes.of_string wire in
       Bytes.set b ((8 * k) + 2) '\001';
       Bytes.to_string b)
    (last ((String.length wire / 8) - 1))

(* A program Encode.encode rejects: its jump escapes the array. *)
let unencodable_req : Verifier.request =
  { Verifier.r_prog_type = Prog.Socket_filter; r_attach = None;
    r_offload = false; r_insns = [| Insn.Ja 5; Insn.Exit |] }

(* Lines whose wire bytes could pass for another entry's key text if
   the key's lines did not split one way only, and lines whose wire
   identity is one field away from another's. *)
let adversarial_lines : string list =
  let c = List.nth corpus_wire 1 in
  let marshalled = Marshal.to_string unencodable_req.Verifier.r_insns [] in
  [ (* the stand-in of the program encode rejects, bare and behind the
       tag it once carried as its bytes *)
    wire_line ~id:"unenc" marshalled;
    wire_line ~id:"unenc-tag" ("unencodable:" ^ marshalled);
    (* an attach name with a line break, then bytes that borrow its
       second line: undecodable, and decodable as a different program *)
    wire_line ~id:"inj-host" ~attach:"x\nhost" c;
    wire_line ~id:"inj-host-probe" ~attach:"x" ("host\n" ^ c);
    wire_line ~id:"inj-off" ~attach:"x\noffload" ~offload:true c;
    wire_line ~id:"inj-off-probe" ~attach:"x" ~offload:true ("offload\n" ^ c);
    (* "-" is the line of an absent attach point; '\\' the escape mark *)
    wire_line ~id:"no-attach" c;
    wire_line ~id:"dash" ~attach:"-" c;
    wire_line ~id:"escaped-dash" ~attach:"\\-" c;
    (* the wire index: one line under two ids; its hex under another
       prog_type, attach point or offload flag, which must not share
       its entry; the same bytes in upper case and spaced *)
    wire_line ~id:"twice-a" c;
    wire_line ~id:"twice-b" c;
    wire_line ~id:"as-xdp" ~prog_type:"xdp" c;
    wire_line ~id:"as-kprobe" ~prog_type:"kprobe" c;
    wire_line ~id:"at-tp" ~attach:"sys_enter" c;
    wire_line ~id:"offloaded" ~offload:true c;
    request_line ~id:"upper" ~prog_type:"socket_filter"
      (String.uppercase_ascii (hex_of_string c));
    request_line ~id:"spaced" ~prog_type:"socket_filter"
      (String.concat " "
         (List.init (String.length c) (fun i ->
              hex_of_string (String.sub c i 1))));
    wire_line ~id:"twice-c" c ]

(* Serve and the reference over [lines] twice (cold, then warm) on
   equal caches of [cap] entries that both start with the verdict of
   [unencodable_req].  Each side's record: responses, tally counters,
   cache counters and LRU order after each pass, then its telemetry. *)
let differential ?(cap = 6) (lines : string list) : string list * string list
  =
  let side name run =
    let session = Service.create_session config in
    let config_fp, maps_fp = Service.fingerprints session in
    let cache = Vcache.create ~cap in
    Vcache.insert cache
      (Vcache.key ~config_fp ~maps_fp unencodable_req)
      (Service.verify_request session unencodable_req);
    let path = tmp (Printf.sprintf "bvf_svc_differential_%s.jsonl" name) in
    let sink = Telemetry.create path in
    let pass () =
      let out, (t : Service.tally) = run ~sink ~cache lines in
      let s = Vcache.stats cache in
      out
      @ [ Printf.sprintf "tally %d %d %d %d %d %d" t.tl_requests
            t.tl_invalid t.tl_admitted t.tl_rejected t.tl_hits t.tl_misses;
          Printf.sprintf "cache %d %d %d %d" s.Vcache.cs_hits
            s.Vcache.cs_misses s.Vcache.cs_insertions s.Vcache.cs_evictions;
          "lru " ^ String.concat " " (List.map fst (Vcache.entries cache)) ]
    in
    let cold = pass () in
    let warm = pass () in
    Telemetry.close sink;
    let trace = In_channel.with_open_bin path In_channel.input_lines in
    Sys.remove path;
    cold @ warm @ trace
  in
  ( side "reference" (fun ~sink ~cache l -> reference_run ~sink ~cache l),
    side "serve" (fun ~sink ~cache l -> serve_run ~sink ~cache l) )

(* The first record line where serve and the reference part. *)
let differential_gap ?cap (lines : string list) : string option =
  let expected, got = differential ?cap lines in
  let rec gap i = function
    | e :: es, g :: gs ->
      if e = g then gap (i + 1) (es, gs)
      else
        Some (Printf.sprintf "record line %d:\n  reference %S\n  serve     %S"
                i e g)
    | e :: _, [] -> Some (Printf.sprintf "serve ends; reference has %S" e)
    | [], g :: _ -> Some (Printf.sprintf "reference ends; serve has %S" g)
    | [], [] -> None
  in
  gap 0 (expected, got)

(* Every line shape of [gen_request_line], corpus programs followed by
   their non-canonical encodings, and the adversarial lines, cold and
   warm: serve answers, counts, caches and traces exactly as the
   reference does. *)
let prop_wire_index =
  QCheck2.Test.make ~count:200
    ~name:"wire index = parse, key, find"
    ~print:(fun lines ->
        String.concat "\n"
          (List.map
             (fun l ->
                String.escaped
                  (if String.length l > 160 then String.sub l 0 160 ^ "..."
                   else l))
             lines))
    QCheck2.Gen.(
      let pair =
        let* wire = oneofl corpus_wire and* prog_type = gen_prog_type in
        let line id w = request_line ~id ~prog_type (hex_of_string w) in
        return
          (line "canon" wire
           :: (match noncanonical wire with
               | Some nc -> [ line "noncanon" nc ]
               | None -> []))
      in
      let piece =
        frequency
          [ (6, map (fun l -> [ l ]) gen_request_line);
            (3, pair);
            (2, map (fun l -> [ l ]) (oneofl adversarial_lines)) ]
      in
      map List.concat (list_size (int_range 1 8) piece))
    (fun lines ->
       match differential_gap lines with
       | None -> true
       | Some gap -> QCheck2.Test.fail_report gap)

let test_wire_cases () =
  let canon = List.nth corpus_wire 2 in
  let nc = Option.get (noncanonical canon) in
  Alcotest.(check bool) "the decoder ignores an exit's off" true
    (Result.map Array.to_list (Encode.decode (Bytes.of_string nc))
     = Result.map Array.to_list (Encode.decode (Bytes.of_string canon)));
  let lines =
    (wire_line ~id:"c" canon :: wire_line ~id:"n" nc :: adversarial_lines)
  in
  List.iter
    (fun cap ->
       Option.iter Alcotest.fail (differential_gap ~cap lines))
    [ 6; 64 ];
  let out = serve_lines ~cache:(Vcache.create ~cap:64) lines in
  let response id =
    List.find
      (fun l -> Json.str (Json.parse_object l) "id" = Some id) out
  in
  let field id k = Json.str (Json.parse_object (response id)) k in
  let body id =
    let line = response id and prefix = Printf.sprintf {|{"id":"%s"|} id in
    let n = String.length prefix in
    strip_cache_field (String.sub line n (String.length line - n))
  in
  (* a non-canonical encoding of a cached program is a hit under the
     canonical key *)
  Alcotest.(check (list (option string))) "canonical misses, then a hit"
    [ Some "miss"; Some "hit" ] [ field "c" "cache"; field "n" "cache" ];
  Alcotest.(check string) "same response but the id" (body "c") (body "n");
  Alcotest.(check (list (option string))) "bytes never reach another entry"
    [ Some "error"; Some "error"; Some "error"; Some "miss" ]
    [ field "unenc" "verdict"; field "unenc-tag" "verdict";
      field "inj-host-probe" "verdict"; field "inj-off-probe" "cache" ];
  Alcotest.(check (list (option string))) "attach \"-\" is not an absent one"
    [ Some "miss"; Some "unknown attach point -" ]
    [ field "dash" "cache"; field "dash" "msg" ];
  (* the wire index answers a line under any id, and nothing else *)
  Alcotest.(check string) "one line, two ids" (body "twice-a")
    (body "twice-b");
  Alcotest.(check (list (option string))) "another id hits"
    [ Some "hit"; Some "hit" ]
    [ field "twice-b" "cache"; field "twice-c" "cache" ];
  List.iter
    (fun id ->
       Alcotest.(check bool) (id ^ ": its own key") true
         (field id "key" <> field "twice-a" "key"))
    [ "as-xdp"; "as-kprobe"; "at-tp"; "offloaded" ];
  List.iter
    (fun id ->
       Alcotest.(check (option string)) (id ^ ": the entry of its bytes")
         (field "twice-a" "key") (field id "key"))
    [ "upper"; "spaced" ];
  (* cap 2: a line re-sent after its entry was evicted misses again *)
  let a = List.nth corpus_wire 3 and b = List.nth corpus_wire 4
  and c = List.nth corpus_wire 5 in
  let evicting =
    [ wire_line ~id:"a" a; wire_line ~id:"b" b; wire_line ~id:"a2" a;
      wire_line ~id:"c" c; wire_line ~id:"b2" b; wire_line ~id:"a3" a;
      wire_line ~id:"a4" a ]
  in
  Option.iter Alcotest.fail (differential_gap ~cap:2 evicting);
  let out = serve_lines ~cache:(Vcache.create ~cap:2) evicting in
  Alcotest.(check (list (option string))) "evicted, then missed"
    [ Some "miss"; Some "miss"; Some "hit"; Some "miss"; Some "miss";
      Some "miss"; Some "hit" ]
    (List.map (fun l -> Json.str (Json.parse_object l) "cache") out)

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
          Alcotest.test_case "wire index" `Quick test_wire_index;
          Alcotest.test_case "disk round trip" `Quick
            test_disk_round_trip;
          Alcotest.test_case "disk damage is an error" `Quick
            test_disk_damage_is_error;
          Alcotest.test_case "vlog cap" `Quick test_vlog_cap;
          Alcotest.test_case "cache key pinned" `Quick
            test_cache_key_pinned;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs 1 == jobs N" `Quick
            test_batch_jobs_deterministic;
          Alcotest.test_case "warm rerun hits" `Quick
            test_batch_warm_rerun_hits;
          Alcotest.test_case "cache on == cache off" `Quick
            test_batch_cache_off_identity;
          Alcotest.test_case "log level keys apart" `Quick
            test_batch_log_level_keyed;
          Alcotest.test_case "telemetry events" `Quick
            test_batch_telemetry_events;
          Alcotest.test_case "unreadable dir entry" `Quick
            test_batch_unreadable_entry;
        ] );
      ( "tally",
        [ Alcotest.test_case "fixed size" `Quick test_tally_fixed_size ] );
      ( "codec",
        [
          Alcotest.test_case "request round trip" `Quick
            test_request_round_trip;
          Alcotest.test_case "request errors" `Quick test_request_errors;
          Alcotest.test_case "unicode ids echoed as UTF-8" `Quick
            test_unicode_ids_echoed;
          Alcotest.test_case "service events round trip" `Quick
            test_service_events_round_trip;
          QCheck_alcotest.to_alcotest prop_hex_decoder;
          Alcotest.test_case "serve mixed stream" `Quick
            test_serve_mixed_stream;
          Alcotest.test_case "line cap" `Quick test_line_cap;
          QCheck_alcotest.to_alcotest prop_request_path;
        ] );
      ( "wire",
        [
          Alcotest.test_case "non-canonical and adversarial lines" `Quick
            test_wire_cases;
          QCheck_alcotest.to_alcotest prop_wire_index;
        ] );
    ]
