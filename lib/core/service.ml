open Cimport

(* Verification as a service (docs/SERVICE.md): JSONL in, verdicts out,
   a content-addressed Vcache in front of the deterministic verifier.

   Determinism discipline: everything emitted per program is a pure
   function of (request, config, maps) — the single exception is the
   trailing "cache":"hit"|"miss" field, which depends on cache history
   and is defined out of the byte-identity contract.  Times appear only
   in the tally, never in a per-program line. *)

module Vstats = Bvf_verifier.Vstats

type request = {
  q_id : string;
  q_req : Verifier.request;
}

type input = {
  in_id : string;
  in_req : (Verifier.request, string) result;
}

(* The Selftests session population, replicated so corpus exports
   verify identically under the service (array -> fd 3, hash -> fd 4;
   Kstate.next_fd starts at 3). *)
let standard_maps : Map.def list =
  [ Map.array_def ~value_size:48 ();
    Map.hash_def ~key_size:8 ~value_size:48 () ]

let create_session (config : Kconfig.t) : Loader.t =
  let session = Loader.create config in
  List.iter
    (fun def -> ignore (Loader.create_map session def : int))
    standard_maps;
  session

let fingerprints (session : Loader.t) : string * string =
  let kst = session.Loader.kst in
  let defs =
    List.map (fun (fd, m) -> (fd, m.Map.def)) kst.Kstate.maps
  in
  (Verifier.config_fingerprint kst.Kstate.config,
   Verifier.maps_fingerprint defs)

let verify_request ?(log_level = 0) (session : Loader.t)
    (req : Verifier.request) : Vcache.verdict =
  let verdict, vlog, vstats =
    Verifier.load_with_stats session.Loader.kst ~cov:session.Loader.cov
      ~log_level req
  in
  match verdict with
  | Ok l ->
    { Vcache.cv_accepted = true;
      cv_insns = Array.length l.Verifier.l_insns;
      cv_insn_processed = l.Verifier.l_insn_processed;
      cv_errno = ""; cv_reason = None; cv_pc = 0; cv_msg = "";
      cv_vlog = Vcache.cap_vlog vlog; cv_vstats = vstats }
  | Error e ->
    { Vcache.cv_accepted = false;
      cv_insns = Array.length req.Verifier.r_insns;
      cv_insn_processed =
        (match vstats with
         | Some s -> s.Vstats.vs_insn_processed
         | None -> 0);
      cv_errno = Venv.errno_to_string e.Venv.errno;
      cv_reason = Some e.Venv.vreason;
      cv_pc = e.Venv.vpc;
      cv_msg = e.Venv.vmsg;
      cv_vlog = Vcache.cap_vlog vlog; cv_vstats = vstats }

(* -- JSONL codec ----------------------------------------------------- *)

let hex_digits = "0123456789abcdef"

let hex_of_bytes (b : Bytes.t) : string =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Bytes.get_uint8 b i in
    Bytes.unsafe_set out (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set out (2 * i + 1) hex_digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

(* The value of every byte as a hex digit: 0-15 for a digit of either
   case, [skip] for the whitespace allowed between digits, [bad] for
   anything else. *)
let skip = 16
let bad = 17

let nibble : string =
  String.init 256 (fun i ->
      Char.chr
        (match Char.chr i with
         | '0' .. '9' -> i - Char.code '0'
         | 'a' .. 'f' -> i - Char.code 'a' + 10
         | 'A' .. 'F' -> i - Char.code 'A' + 10
         | ' ' | '\t' | '\n' | '\r' -> skip
         | _ -> bad))

(* Two passes: count the digits (any bad byte wins over an odd count),
   then fill one buffer of exactly the right size. *)
let bytes_of_hex (s : string) : (Bytes.t, string) result =
  let n = String.length s in
  let nib i = Char.code (String.unsafe_get nibble (Char.code s.[i])) in
  let rec count i digits =
    if i = n then digits
    else
      let v = nib i in
      if v = bad then -1
      else count (i + 1) (if v = skip then digits else digits + 1)
  in
  let digits = count 0 0 in
  if digits < 0 then Error "prog is not hex"
  else if digits land 1 <> 0 then Error "prog hex has an odd digit count"
  else begin
    let out = Bytes.create (digits / 2) in
    (* [hi] holds the pending high nibble, -1 when there is none *)
    let rec fill i j hi =
      if i < n then
        let v = nib i in
        if v = skip then fill (i + 1) j hi
        else if hi < 0 then fill (i + 1) j v
        else begin
          Bytes.unsafe_set out j (Char.unsafe_chr ((hi lsl 4) lor v));
          fill (i + 1) (j + 1) (-1)
        end
    in
    fill 0 0 (-1);
    Ok out
  end

let decode_prog (bytes : Bytes.t) :
  (Insn.t array, string) result =
  match Encode.decode bytes with
  | Ok insns -> Ok insns
  | Error { Encode.pos; reason } ->
    Error (Printf.sprintf "bad program at slot %d: %s" pos reason)

(* A request from the fields of one parsed line; on failure, the id
   when the line carried one, so the error response still names the
   caller's request. *)
let parse_request (f : (string * Json.t) list) :
  (request, string option * string) result =
  let id = Json.str f "id" in
  let ( let* ) = Result.bind in
  let req =
    let* pt =
      match Json.str f "prog_type" with
      | None -> Error "missing prog_type"
      | Some s ->
        (match Prog.prog_type_of_string s with
         | Some pt -> Ok pt
         | None -> Error (Printf.sprintf "unknown prog_type %S" s))
    in
    let* hex =
      match Json.str f "prog" with
      | Some h -> Ok h
      | None -> Error "missing prog"
    in
    let* bytes = bytes_of_hex hex in
    let* insns = decode_prog bytes in
    Ok
      { Verifier.r_prog_type = pt;
        r_attach = Json.str f "attach";
        r_offload = Json.bool f "offload" = Some true;
        r_insns = insns }
  in
  match id, req with
  | Some q_id, Ok q_req -> Ok { q_id; q_req }
  | None, Ok _ -> Error (None, "missing id")
  | _, Error e -> Error (id, e)

let malformed = "malformed JSON"

let parse_line (line : string) : (request, string option * string) result =
  match Json.parse_object (String.trim line) with
  | exception Json.Parse -> Error (None, malformed)
  | f -> parse_request f

let request_of_json (line : string) : (request, string) result =
  match parse_line line with
  | Ok r -> Ok r
  | Error (Some id, msg) -> Error (Printf.sprintf "%s: %s" id msg)
  | Error (None, msg) -> Error msg

let input_of_json ~(fallback_id : string) (line : string) : input =
  match parse_line line with
  | Ok r -> { in_id = r.q_id; in_req = Ok r.q_req }
  | Error (id, msg) ->
    { in_id = Option.value id ~default:fallback_id; in_req = Error msg }

let request_to_json (r : request) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"id\":\"";
  Json.escape b r.q_id;
  Printf.bprintf b "\",\"prog_type\":\"%s\""
    (Prog.prog_type_to_string r.q_req.Verifier.r_prog_type);
  (match r.q_req.Verifier.r_attach with
   | None -> ()
   | Some a ->
     Buffer.add_string b ",\"attach\":\"";
     Json.escape b a;
     Buffer.add_char b '"');
  if r.q_req.Verifier.r_offload then
    Buffer.add_string b ",\"offload\":true";
  Buffer.add_string b ",\"prog\":\"";
  Buffer.add_string b (hex_of_bytes (Encode.encode r.q_req.Verifier.r_insns));
  Buffer.add_string b "\"}";
  Buffer.contents b

let response_to_json ~(id : string) ~(key : string) ?hit
    (v : Vcache.verdict) : string =
  let b = Buffer.create 160 in
  let str k s =
    Printf.bprintf b ",\"%s\":\"" k;
    Json.escape b s;
    Buffer.add_char b '"'
  in
  Buffer.add_string b "{\"id\":\"";
  Json.escape b id;
  Printf.bprintf b "\",\"key\":\"%s\"" key;
  if v.Vcache.cv_accepted then begin
    Buffer.add_string b ",\"verdict\":\"accepted\"";
    Printf.bprintf b ",\"insns\":%d,\"insn_processed\":%d"
      v.Vcache.cv_insns v.Vcache.cv_insn_processed;
    match v.Vcache.cv_vstats with
    | Some s ->
      Printf.bprintf b ",\"total_states\":%d,\"peak_states\":%d"
        s.Vstats.vs_total_states s.Vstats.vs_peak_states
    | None -> ()
  end
  else begin
    Buffer.add_string b ",\"verdict\":\"rejected\"";
    str "reason"
      (match v.Vcache.cv_reason with
       | Some r -> Reject_reason.to_string r
       | None -> Reject_reason.to_string Reject_reason.Unknown);
    str "errno" v.Vcache.cv_errno;
    Printf.bprintf b ",\"pc\":%d" v.Vcache.cv_pc;
    str "msg" v.Vcache.cv_msg;
    Printf.bprintf b ",\"insn_processed\":%d" v.Vcache.cv_insn_processed
  end;
  if v.Vcache.cv_vlog <> "" then str "vlog" v.Vcache.cv_vlog;
  (* the one history-dependent field, kept last so the determinism
     gates can strip it textually *)
  (match hit with
   | Some h -> Printf.bprintf b ",\"cache\":\"%s\"" (if h then "hit" else "miss")
   | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let error_to_json ~(id : string) (msg : string) : string =
  let b = Buffer.create 64 in
  Buffer.add_string b "{\"id\":\"";
  Json.escape b id;
  Buffer.add_string b "\",\"verdict\":\"error\",\"msg\":\"";
  Json.escape b msg;
  Buffer.add_string b "\"}";
  Buffer.contents b

(* -- Input sources --------------------------------------------------- *)

let read_jsonl (path : string) : input list =
  let ic = open_in path in
  let inputs = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         inputs :=
           input_of_json ~fallback_id:(Printf.sprintf "line%d" !lineno)
             line
           :: !inputs
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !inputs

(* NAME.<prog_type>.bin selects the program type; everything else is a
   socket filter, the least-privileged default. *)
let prog_type_of_filename (name : string) : Prog.prog_type =
  match String.split_on_char '.' name with
  | _ :: _ :: _ :: _ as parts ->
    let infix = List.nth parts (List.length parts - 2) in
    Option.value (Prog.prog_type_of_string infix)
      ~default:Prog.Socket_filter
  | _ -> Prog.Socket_filter

let read_dir (dir : string) : input list =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.to_list entries
  |> List.filter_map (fun name ->
      let read () =
        match
          In_channel.with_open_bin (Filename.concat dir name)
            In_channel.input_all
        with
        | text -> Ok text
        | exception Sys_error msg ->
          Error (Printf.sprintf "cannot read %s: %s" name msg)
      in
      let wire =
        if Filename.check_suffix name ".bin" then
          Some (Result.map Bytes.of_string (read ()))
        else if Filename.check_suffix name ".hex" then
          Some (Result.bind (read ()) bytes_of_hex)
        else None
      in
      match wire with
      | None -> None
      | Some (Error msg) -> Some { in_id = name; in_req = Error msg }
      | Some (Ok bytes) ->
        let req =
          match decode_prog bytes with
          | Error msg -> Error msg
          | Ok insns ->
            Ok
              { Verifier.r_prog_type = prog_type_of_filename name;
                r_attach = None; r_offload = false; r_insns = insns }
        in
        Some { in_id = name; in_req = req })

(* -- Tally ----------------------------------------------------------- *)

(* Cold-verify latency ladder in nanoseconds: ten geometric steps per
   decade from 1 us to 10 s.  A decade's exponent is a whole number,
   which [**] raises exactly, so 100 us, 1 ms and 10 ms are bounds. *)
let verify_ladder : int array =
  Array.init 71 (fun k ->
      int_of_float (Float.round (1e3 *. (10. ** (float_of_int k /. 10.)))))

type tally = {
  mutable tl_requests : int;
  mutable tl_invalid : int;
  mutable tl_admitted : int;
  mutable tl_rejected : int;
  mutable tl_hits : int;
  mutable tl_misses : int;
  tl_verify_ns : Bvf_util.Hist.t;
}

let tally () : tally =
  { tl_requests = 0; tl_invalid = 0; tl_admitted = 0; tl_rejected = 0;
    tl_hits = 0; tl_misses = 0;
    tl_verify_ns = Bvf_util.Hist.create verify_ladder }

(* One answered request: its counters, its cold-verify time when it
   missed the cache, its two telemetry events (seq = the valid-request
   index), and a miss's verdict into the cache. *)
let record (t : tally) ~(sink : Telemetry.sink) ~(cache : Vcache.t)
    ~(key : string) ?verify_s (v : Vcache.verdict) : unit =
  let seq = t.tl_requests in
  (match verify_s with
   | None ->
     t.tl_hits <- t.tl_hits + 1;
     Telemetry.emit sink (Telemetry.Service_hit { seq; key })
   | Some s ->
     t.tl_misses <- t.tl_misses + 1;
     Bvf_util.Hist.add t.tl_verify_ns (int_of_float (s *. 1e9));
     Vcache.insert cache key v;
     Telemetry.emit sink (Telemetry.Service_miss { seq; key }));
  if v.Vcache.cv_accepted then begin
    t.tl_admitted <- t.tl_admitted + 1;
    Telemetry.emit sink
      (Telemetry.Service_admitted
         { seq; key; insns = v.Vcache.cv_insns;
           insn_processed = v.Vcache.cv_insn_processed })
  end
  else begin
    t.tl_rejected <- t.tl_rejected + 1;
    Telemetry.emit sink
      (Telemetry.Service_rejected
         { seq; key;
           reason =
             Option.value v.Vcache.cv_reason
               ~default:Reject_reason.Unknown })
  end;
  t.tl_requests <- seq + 1

let tally_to_json ?id ?wall_s (t : tally) : string =
  let b = Buffer.create 320 in
  Buffer.add_char b '{';
  Option.iter
    (fun id ->
       Buffer.add_string b "\"id\":\"";
       Json.escape b id;
       Buffer.add_string b "\",\"metrics\":true,")
    id;
  let h = t.tl_verify_ns in
  let le = Bvf_util.Hist.count_le h and n = Bvf_util.Hist.total h in
  let q p = float_of_int (Bvf_util.Hist.quantile h p) /. 1e9 in
  Printf.bprintf b
    "\"requests\":%d,\"invalid\":%d,\"admitted\":%d,\"rejected\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"verify_count\":%d,\"verify_p50_s\":%.6f,\"verify_p95_s\":%.6f,\"verify_le_100us\":%d,\"verify_le_1ms\":%d,\"verify_le_10ms\":%d,\"verify_gt_10ms\":%d"
    t.tl_requests t.tl_invalid t.tl_admitted t.tl_rejected t.tl_hits
    t.tl_misses n (q 50) (q 95) (le 100_000)
    (le 1_000_000 - le 100_000)
    (le 10_000_000 - le 1_000_000)
    (n - le 10_000_000);
  Option.iter (Printf.bprintf b ",\"wall_s\":%.6f") wall_s;
  Buffer.add_char b '}';
  Buffer.contents b

(* -- Batch ----------------------------------------------------------- *)

type outcome =
  | Verdict of { o_key : string; o_hit : bool; o_verdict : Vcache.verdict }
  | Invalid of string

type item = { it_id : string; it_outcome : outcome }

let item_to_json (it : item) : string =
  match it.it_outcome with
  | Verdict { o_key; o_hit; o_verdict } ->
    response_to_json ~id:it.it_id ~key:o_key ~hit:o_hit o_verdict
  | Invalid msg -> error_to_json ~id:it.it_id msg

let run_batch ?(log_level = 0) ?(sink = Telemetry.null)
    ?(prof = Bvf_util.Prof.session ~spans:false ()) ~(jobs : int)
    ~(cache : Vcache.t)
    (config : Kconfig.t) (inputs : input list) : item list * tally =
  if jobs < 1 then invalid_arg "Service.run_batch: jobs must be >= 1";
  (* coordinator track = jobs, one verifier track per worker domain —
     the same layout as Parallel.run's shard/coordinator split *)
  let main_prof = Bvf_util.Prof.track prof ~name:"batch" jobs in
  let session0 = create_session config in
  let config_fp, maps_fp = fingerprints session0 in
  let items = Array.of_list inputs in
  let n = Array.length items in
  let keys = Array.make n "" in
  let verdicts = Array.make n None in
  (* a miss's cold-verify seconds; None for a cache hit *)
  let verify_s = Array.make n None in
  let miss_list = ref [] in
  (* probe pass: cache traffic stays in the calling domain, so a
     program seen twice in one batch misses twice *)
  Bvf_util.Prof.span main_prof "probe" (fun () ->
      Array.iteri
        (fun i input ->
           match input.in_req with
           | Error _ -> ()
           | Ok req ->
             let k = Vcache.key ~config_fp ~maps_fp req in
             keys.(i) <- k;
             (match Vcache.find cache k with
              | Some v -> verdicts.(i) <- Some v
              | None -> miss_list := (i, req) :: !miss_list))
        items);
  let misses = Array.of_list (List.rev !miss_list) in
  let m = Array.length misses in
  (* verify pass: round-robin striding gives each domain disjoint
     slots, and each domain verifies in its own fresh session *)
  let worker (wprof : Bvf_util.Prof.t) (session : Loader.t)
      (first : int) (step : int) : unit =
    let j = ref first in
    while !j < m do
      let slot, req = misses.(!j) in
      let fr = Bvf_util.Prof.start wprof "verify" in
      verdicts.(slot) <- Some (verify_request ~log_level session req);
      let dur, _ = Bvf_util.Prof.stop wprof fr in
      verify_s.(slot) <- Some dur;
      j := !j + step
    done
  in
  let jobs = max 1 (min jobs m) in
  let wprof =
    Array.init jobs (fun d ->
        Bvf_util.Prof.track prof ~name:(Printf.sprintf "verifier%d" d) d)
  in
  if jobs <= 1 then worker wprof.(0) session0 0 1
  else
    List.init jobs (fun d ->
        Domain.spawn (fun () ->
            worker wprof.(d) (create_session config) d jobs))
    |> List.iter Domain.join;
  (* fill pass: count, emit and insert in input order, back in the
     calling domain *)
  Bvf_util.Prof.span main_prof "join" (fun () ->
      let t = tally () in
      let out =
        Array.to_list
          (Array.mapi
             (fun i input ->
                match input.in_req with
                | Error msg ->
                  t.tl_invalid <- t.tl_invalid + 1;
                  { it_id = input.in_id; it_outcome = Invalid msg }
                | Ok _ ->
                  let v = Option.get verdicts.(i) in
                  record t ~sink ~cache ~key:keys.(i) ?verify_s:verify_s.(i) v;
                  { it_id = input.in_id;
                    it_outcome =
                      Verdict
                        { o_key = keys.(i); o_hit = (verify_s.(i) = None);
                          o_verdict = v } })
             items)
      in
      (out, t))

(* -- Serve ----------------------------------------------------------- *)

let serve ?(log_level = 0) ?(sink = Telemetry.null)
    ?(prof = Bvf_util.Prof.disabled) ~(cache : Vcache.t)
    ~(session : Loader.t) ~(stop : unit -> bool) (ic : in_channel)
    (oc : out_channel) : tally =
  let config_fp, maps_fp = fingerprints session in
  let t = tally () in
  let lineno = ref 0 in
  let reply (line : string) : unit =
    output_string oc line;
    output_char oc '\n'
  in
  let answer (parsed : (request, string option * string) result) : unit =
    match parsed with
    | Error (id, msg) ->
      t.tl_invalid <- t.tl_invalid + 1;
      let id =
        match id with
        | Some id -> id
        | None -> Printf.sprintf "line%d" !lineno
      in
      reply (error_to_json ~id msg)
    | Ok { q_id; q_req } ->
      let key, found =
        Bvf_util.Prof.span prof "probe" (fun () ->
            let k = Vcache.key ~config_fp ~maps_fp q_req in
            (k, Vcache.find cache k))
      in
      let v, verify_s =
        match found with
        | Some v -> (v, None)
        | None ->
          let fr = Bvf_util.Prof.start prof "verify" in
          let v = verify_request ~log_level session q_req in
          let dur, _ = Bvf_util.Prof.stop prof fr in
          (v, Some dur)
      in
      record t ~sink ~cache ~key ?verify_s v;
      reply (response_to_json ~id:q_id ~key ~hit:(verify_s = None) v)
  in
  (* One parse decides the request kind: a metrics request is any
     object with "metrics":true, whatever else it carries. *)
  let respond (line : string) : unit =
    match Json.parse_object (String.trim line) with
    | exception Json.Parse -> answer (Error (None, malformed))
    | f when Json.bool f "metrics" = Some true ->
      reply
        (tally_to_json
           ~id:(Option.value (Json.str f "id") ~default:"metrics") t)
    | f -> answer (parse_request f)
  in
  (try
     while not (stop ()) do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         respond line;
         Stdlib.flush oc;
         Telemetry.flush sink
       end
     done
   with
   | End_of_file -> ()
   | Sys_error _ -> ()  (* interrupted read during a drain *));
  Stdlib.flush oc;
  t
