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

(* The Selftests session population, so corpus exports verify
   identically under the service. *)
let create_session (config : Kconfig.t) : Loader.t =
  let session = Loader.create config in
  ignore (Selftests.install_maps session : int * int);
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

(* One pass into a buffer of half the input's length, the most its
   digits can fill, two digits a step while both bytes are digits and
   one at a time around whitespace.  Whitespace between digits leaves
   the buffer longer than the bytes, which are then copied out.  A bad
   byte ends the pass, so it is reported before an odd digit count. *)
let bytes_of_hex (s : string) : (Bytes.t, string) result =
  let n = String.length s in
  let out = Bytes.create (n / 2) in
  let digit i =
    Char.code (String.unsafe_get nibble (Char.code (String.unsafe_get s i)))
  in
  (* [j] bytes filled, no nibble pending *)
  let rec pairs i j =
    if i + 1 < n then begin
      let hi = digit i and lo = digit (i + 1) in
      (* both below 16: [skip] and [bad] have bit 4 set *)
      if hi lor lo < skip then begin
        Bytes.unsafe_set out j (Char.unsafe_chr ((hi lsl 4) lor lo));
        pairs (i + 2) (j + 1)
      end
      else single i j (-1)
    end
    else single i j (-1)
  (* [hi] the pending high nibble, -1 when none *)
  and single i j hi =
    if i = n then
      if hi >= 0 then Error "prog hex has an odd digit count"
      else if j = Bytes.length out then Ok out
      else Ok (Bytes.sub out 0 j)
    else
      let v = digit i in
      if v < skip then
        if hi < 0 then single (i + 1) j v
        else begin
          Bytes.unsafe_set out j (Char.unsafe_chr ((hi lsl 4) lor v));
          pairs (i + 1) (j + 1)
        end
      else if v = skip then single (i + 1) j hi
      else Error "prog is not hex"
  in
  pairs 0 0

let decode_prog (bytes : Bytes.t) :
  (Insn.t array, string) result =
  match Encode.decode bytes with
  | Ok insns -> Ok insns
  | Error { Encode.pos; reason } ->
    Error (Printf.sprintf "bad program at slot %d: %s" pos reason)

(* The request in the fields of one parsed line; on failure, the id
   when the line carried one, so the error response still names the
   caller's request.  A bad program is reported before a missing id. *)
let request_of_fields (f : (string * Json.t) list) :
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
      { Verifier.r_prog_type = pt; r_attach = Json.str f "attach";
        r_offload = Json.bool f "offload" = Some true; r_insns = insns }
  in
  match id, req with
  | _, Error e -> Error (id, e)
  | Some q_id, Ok q_req -> Ok { q_id; q_req }
  | None, Ok _ -> Error (None, "missing id")

(* The id and wire identity of a line with the three string fields a
   program request needs: what {!request_of_fields} reads, undecoded.
   Equal identities decode to equal requests, so to one key. *)
let wire_id (f : (string * Json.t) list) : (string * Vcache.wire_id) option =
  match Json.str f "id", Json.str f "prog_type", Json.str f "prog" with
  | Some id, Some wi_prog_type, Some wi_prog ->
    Some
      ( id,
        { Vcache.wi_prog_type; wi_attach = Json.str f "attach";
          wi_offload = Json.bool f "offload" = Some true; wi_prog } )
  | _ -> None

let malformed = "malformed JSON"

let parse_line (line : string) : (request, string option * string) result =
  match Json.parse_object (String.trim line) with
  | exception Json.Parse -> Error (None, malformed)
  | f -> request_of_fields f

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

(* A count digit by digit; [string_of_int] for a negative one. *)
let rec add_int (b : Buffer.t) (i : int) : unit =
  if i < 0 then Buffer.add_string b (string_of_int i)
  else begin
    if i >= 10 then add_int b (i / 10);
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (i mod 10)))
  end

let add_response (b : Buffer.t) ~(id : string) ~(key : string) ?hit
    (v : Vcache.verdict) : unit =
  let name k =
    Buffer.add_string b ",\"";
    Buffer.add_string b k;
    Buffer.add_string b "\":"
  in
  let str k s =
    name k;
    Buffer.add_char b '"';
    Json.escape b s;
    Buffer.add_char b '"'
  in
  let int k i = name k; add_int b i in
  Buffer.add_string b "{\"id\":\"";
  Json.escape b id;
  Buffer.add_string b "\",\"key\":\"";
  Buffer.add_string b key;
  Buffer.add_char b '"';
  if v.Vcache.cv_accepted then begin
    Buffer.add_string b ",\"verdict\":\"accepted\"";
    int "insns" v.Vcache.cv_insns;
    int "insn_processed" v.Vcache.cv_insn_processed;
    match v.Vcache.cv_vstats with
    | Some s ->
      int "total_states" s.Vstats.vs_total_states;
      int "peak_states" s.Vstats.vs_peak_states
    | None -> ()
  end
  else begin
    Buffer.add_string b ",\"verdict\":\"rejected\"";
    str "reason"
      (Reject_reason.to_string
         (Option.value v.Vcache.cv_reason ~default:Reject_reason.Unknown));
    str "errno" v.Vcache.cv_errno;
    int "pc" v.Vcache.cv_pc;
    str "msg" v.Vcache.cv_msg;
    int "insn_processed" v.Vcache.cv_insn_processed
  end;
  if v.Vcache.cv_vlog <> "" then str "vlog" v.Vcache.cv_vlog;
  (* the one history-dependent field, kept last so the determinism
     gates can strip it textually *)
  (match hit with
   | Some true -> Buffer.add_string b ",\"cache\":\"hit\""
   | Some false -> Buffer.add_string b ",\"cache\":\"miss\""
   | None -> ());
  Buffer.add_char b '}'

let response_to_json ~(id : string) ~(key : string) ?hit
    (v : Vcache.verdict) : string =
  let b = Buffer.create 256 in
  add_response b ~id ~key ?hit v;
  Buffer.contents b

let add_error (b : Buffer.t) ~(id : string) (msg : string) : unit =
  Buffer.add_string b "{\"id\":\"";
  Json.escape b id;
  Buffer.add_string b "\",\"verdict\":\"error\",\"msg\":\"";
  Json.escape b msg;
  Buffer.add_string b "\"}"

let error_to_json ~(id : string) (msg : string) : string =
  let b = Buffer.create 64 in
  add_error b ~id msg;
  Buffer.contents b

(* -- Input sources --------------------------------------------------- *)

let line_too_long =
  Printf.sprintf "request line longer than %d bytes" Json.max_line

let read_jsonl (path : string) : input list =
  let ic = open_in path in
  let r = Json.reader ic in
  let rec go lineno acc =
    match Json.read_line r with
    | None -> List.rev acc
    | Some (Json.Line l) when String.trim l = "" -> go (lineno + 1) acc
    | Some line ->
      let fallback_id = Printf.sprintf "line%d" lineno in
      let input =
        match line with
        | Json.Line l -> input_of_json ~fallback_id l
        | Json.Too_long -> { in_id = fallback_id; in_req = Error line_too_long }
      in
      go (lineno + 1) (input :: acc)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 1 [])

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

let tally_to_json ?id ?wall_s ~(cache : Vcache.t) (t : tally) : string =
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
    "\"requests\":%d,\"invalid\":%d,\"admitted\":%d,\"rejected\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"cache_entries\":%d,\"cache_evictions\":%d,\"verify_count\":%d,\"verify_p50_s\":%.6f,\"verify_p95_s\":%.6f,\"verify_le_100us\":%d,\"verify_le_1ms\":%d,\"verify_le_10ms\":%d,\"verify_gt_10ms\":%d"
    t.tl_requests t.tl_invalid t.tl_admitted t.tl_rejected t.tl_hits
    t.tl_misses (Vcache.length cache)
    (Vcache.stats cache).Vcache.cs_evictions n (q 50) (q 95) (le 100_000)
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
  (* coordinator track = jobs, one verifier track per worker —
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
             let k = Vcache.key ~log_level ~config_fp ~maps_fp req in
             keys.(i) <- k;
             (match Vcache.find cache k with
              | Some v -> verdicts.(i) <- Some v
              | None -> miss_list := (i, req) :: !miss_list))
        items);
  let misses = Array.of_list (List.rev !miss_list) in
  let m = Array.length misses in
  (* verify pass: round-robin striding gives each worker disjoint
     slots, and each worker verifies in its own session; the workers
     run on at most one domain per core *)
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
  (* worker 0 runs in the calling domain with the probe's session *)
  Bvf_util.Lanes.run ~tasks:jobs (fun d ->
      worker wprof.(d)
        (if d = 0 then session0 else create_session config)
        d jobs)
  |> Array.iter (function Ok () -> () | Error e -> raise e);
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
  (* one buffer renders every reply *)
  let out = Buffer.create 1024 in
  let send () =
    Buffer.add_char out '\n';
    Buffer.output_buffer oc out;
    Buffer.clear out
  in
  let invalid (id : string option) (msg : string) : unit =
    t.tl_invalid <- t.tl_invalid + 1;
    let id =
      match id with
      | Some id -> id
      | None -> Printf.sprintf "line%d" !lineno
    in
    add_error out ~id msg;
    send ()
  in
  let answer ~(id : string) ~(key : string) ?verify_s (v : Vcache.verdict) :
    unit =
    record t ~sink ~cache ~key ?verify_s v;
    add_response out ~id ~key ~hit:(verify_s = None) v;
    send ()
  in
  (* A program line whose wire identity names no entry: decoded, keyed
     and looked up in full, verified on a miss.  Its identity then names
     the entry that answered it. *)
  let serve_fields f (wire : Vcache.wire_id option) : unit =
    match request_of_fields f with
    | Error (id, msg) -> invalid id msg
    | Ok { q_id; q_req } ->
      let key = Vcache.key ~log_level ~config_fp ~maps_fp q_req in
      (match Vcache.find cache key with
       | Some v -> answer ~id:q_id ~key v
       | None ->
         let fr = Bvf_util.Prof.start prof "verify" in
         let v = verify_request ~log_level session q_req in
         let verify_s, _ = Bvf_util.Prof.stop prof fr in
         answer ~id:q_id ~key ~verify_s v);
      Option.iter (Vcache.bind_wire cache key) wire
  in
  (* One parse decides the request kind: a metrics request is any
     object with "metrics":true, whatever else it carries.  A program
     line whose wire identity is bound is answered from its entry with
     nothing decoded or keyed. *)
  let respond (line : string) : unit =
    match Json.parse_object (String.trim line) with
    | exception Json.Parse -> invalid None malformed
    | f when Json.bool f "metrics" = Some true ->
      Buffer.add_string out
        (tally_to_json ~cache
           ~id:(Option.value (Json.str f "id") ~default:"metrics") t);
      send ()
    | f ->
      match wire_id f with
      | None -> serve_fields f None
      | Some (id, w) ->
        match Vcache.find_wire cache w with
        | Some (key, v) -> answer ~id ~key v
        | None -> serve_fields f (Some w)
  in
  let flush () =
    Stdlib.flush oc;
    Telemetry.flush sink
  in
  let r = Json.reader ic in
  let rec loop () =
    if not (stop ()) then
      match Json.read_line r with
      | None -> ()
      | Some line ->
        incr lineno;
        (match line with
         | Json.Line l when String.trim l = "" -> ()
         | Json.Line l -> respond l; flush ()
         | Json.Too_long -> invalid None line_too_long; flush ());
        loop ()
  in
  (try loop () with Sys_error _ -> ()  (* interrupted read during a drain *));
  Stdlib.flush oc;
  t
