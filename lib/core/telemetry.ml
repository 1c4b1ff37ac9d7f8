(* Campaign telemetry: JSONL event stream + the bvf stats aggregation.

   The schema is flat (string / int / float / bool fields, one object
   per line), read and escaped by the repository's one codec,
   [Bvf_util.Json].  Any whitespace and field order parse, so traces
   survive hand-editing and foreign tooling; lines that do not parse
   are skipped, not fatal.

   Determinism contract (tested by test_telemetry): campaign-emitted
   events carry no wall-clock times, so same-seed traces are
   byte-identical; the only timed record, Profile, is appended by the
   CLI after the run. *)

module Reject_reason = Bvf_verifier.Reject_reason
module Json = Bvf_util.Json

type event =
  | Generated of { iter : int; prog_type : string; insns : int }
  | Accepted of {
      iter : int;
      prog_type : string;
      insns : int;
      insn_processed : int;
    }
  | Rejected of {
      iter : int;
      prog_type : string;
      reason : Reject_reason.t;
      errno : string;
      pc : int;
      msg : string;
    }
  | Finding of {
      iter : int;
      fingerprint : string;
      bug : string option;
      correctness : bool;
    }
  | Vstats of {
      iter : int;
      insn_processed : int;
      total_states : int;
      peak_states : int;
      max_states_per_insn : int;
      prune_hits : int;
      prune_misses : int;
      loops_detected : int;
      branch_hwm : int;
      widen_rounds : int;
      loop_heads : int;
    }
  | Checkpoint of { iter : int }
  | Quarantined of { iter : int }
  | Shard_merge of { shards : int; events : int }
  | Profile of {
      programs : int;
      gen_s : float;
      verify_s : float;
      sanitize_s : float;
      exec_s : float;
      wall_s : float;
      (* per-phase minor-words attribution; zero in traces written
         before the fields existed *)
      gen_w : float;
      verify_w : float;
      sanitize_w : float;
      exec_w : float;
    }
  (* service (bvf batch / bvf serve) admission events: one cache event
     and one verdict event per request, keyed by the request's verdict
     cache key.  Deterministic except for the hit/miss split, which
     depends on what the cache has seen — which is why batch results
     carry the verdicts, and only traces carry the cache traffic. *)
  | Service_hit of { seq : int; key : string }
  | Service_miss of { seq : int; key : string }
  | Service_admitted of {
      seq : int;
      key : string;
      insns : int;
      insn_processed : int;
    }
  | Service_rejected of {
      seq : int;
      key : string;
      reason : Bvf_verifier.Reject_reason.t;
    }

let iter_of = function
  | Generated { iter; _ } | Accepted { iter; _ } | Rejected { iter; _ }
  | Finding { iter; _ } | Vstats { iter; _ } | Checkpoint { iter }
  | Quarantined { iter } ->
    Some iter
  | Service_hit { seq; _ } | Service_miss { seq; _ }
  | Service_admitted { seq; _ } | Service_rejected { seq; _ } ->
    Some seq
  | Shard_merge _ | Profile _ -> None

(* -- JSON encoding -------------------------------------------------- *)

(* Floats as %.6f: sub-microsecond precision is noise for phase timers,
   and the fixed format round-trips through the parser losslessly
   enough for aggregation. *)
let to_json (ev : event) : string =
  let b = Buffer.create 96 in
  let str k v =
    Printf.bprintf b ",\"%s\":\"" k; Json.escape b v; Buffer.add_char b '"'
  in
  let int k v = Printf.bprintf b ",\"%s\":%d" k v in
  let flt k v = Printf.bprintf b ",\"%s\":%.6f" k v in
  let bol k v = Printf.bprintf b ",\"%s\":%b" k v in
  let tag name = Printf.bprintf b "{\"ev\":\"%s\"" name in
  (match ev with
   | Generated { iter; prog_type; insns } ->
     tag "generated"; int "iter" iter; str "prog_type" prog_type;
     int "insns" insns
   | Accepted { iter; prog_type; insns; insn_processed } ->
     tag "accepted"; int "iter" iter; str "prog_type" prog_type;
     int "insns" insns; int "insn_processed" insn_processed
   | Rejected { iter; prog_type; reason; errno; pc; msg } ->
     tag "rejected"; int "iter" iter; str "prog_type" prog_type;
     str "reason" (Reject_reason.to_string reason); str "errno" errno;
     int "pc" pc; str "msg" msg
   | Finding { iter; fingerprint; bug; correctness } ->
     tag "finding"; int "iter" iter; str "fingerprint" fingerprint;
     (match bug with Some bug -> str "bug" bug | None -> ());
     bol "correctness" correctness
   | Vstats { iter; insn_processed; total_states; peak_states;
              max_states_per_insn; prune_hits; prune_misses;
              loops_detected; branch_hwm; widen_rounds; loop_heads } ->
     tag "vstats"; int "iter" iter; int "insn_processed" insn_processed;
     int "total_states" total_states; int "peak_states" peak_states;
     int "max_states_per_insn" max_states_per_insn;
     int "prune_hits" prune_hits; int "prune_misses" prune_misses;
     int "loops_detected" loops_detected; int "branch_hwm" branch_hwm;
     int "widen_rounds" widen_rounds; int "loop_heads" loop_heads
   | Checkpoint { iter } -> tag "checkpoint"; int "iter" iter
   | Quarantined { iter } -> tag "quarantined"; int "iter" iter
   | Service_hit { seq; key } ->
     tag "cache_hit"; int "seq" seq; str "key" key
   | Service_miss { seq; key } ->
     tag "cache_miss"; int "seq" seq; str "key" key
   | Service_admitted { seq; key; insns; insn_processed } ->
     tag "service_admitted"; int "seq" seq; str "key" key;
     int "insns" insns; int "insn_processed" insn_processed
   | Service_rejected { seq; key; reason } ->
     tag "service_rejected"; int "seq" seq; str "key" key;
     str "reason" (Reject_reason.to_string reason)
   | Shard_merge { shards; events } ->
     tag "shard_merge"; int "shards" shards; int "events" events
   | Profile { programs; gen_s; verify_s; sanitize_s; exec_s; wall_s;
               gen_w; verify_w; sanitize_w; exec_w } ->
     (* minor words are whole counts: %.0f keeps the lines short *)
     let wrd k v = Printf.bprintf b ",\"%s\":%.0f" k v in
     tag "profile"; int "programs" programs; flt "gen_s" gen_s;
     flt "verify_s" verify_s; flt "sanitize_s" sanitize_s;
     flt "exec_s" exec_s; flt "wall_s" wall_s;
     wrd "gen_w" gen_w; wrd "verify_w" verify_w;
     wrd "sanitize_w" sanitize_w; wrd "exec_w" exec_w);
  Buffer.add_char b '}';
  Buffer.contents b

(* -- JSON parsing --------------------------------------------------- *)

(* Aliases of [Json] names kept only because perfbench/ uses them. *)
type jvalue = Json.t =
  | Jstr of string
  | Jnum of float
  | Jbool of bool
  | Jnull
  | Jarr of jvalue list
  | Jobj of (string * jvalue) list

exception Parse = Json.Parse

let parse_object = Json.parse_object

(* A missing or mistyped required field raises [Json.Parse]: the line
   is skipped like any other unparsable one. *)
let of_json (line : string) : event option =
  match
    let f = Json.parse_object (String.trim line) in
    let open Json in
    let reason () =
      Option.value (Reject_reason.of_string (get (str f "reason")))
        ~default:Reject_reason.Unknown
    in
    match get (str f "ev") with
    | "generated" ->
      Some (Generated { iter = get (int f "iter");
                        prog_type = get (str f "prog_type");
                        insns = get (int f "insns") })
    | "accepted" ->
      Some (Accepted { iter = get (int f "iter");
                       prog_type = get (str f "prog_type");
                       insns = get (int f "insns");
                       insn_processed = get (int f "insn_processed") })
    | "rejected" ->
      Some (Rejected { iter = get (int f "iter");
                       prog_type = get (str f "prog_type");
                       reason = reason (); errno = get (str f "errno");
                       pc = get (int f "pc"); msg = get (str f "msg") })
    | "finding" ->
      Some (Finding { iter = get (int f "iter");
                      fingerprint = get (str f "fingerprint");
                      bug = str f "bug";
                      correctness = get (bool f "correctness") })
    | "vstats" ->
      (* the widening counters postdate the vstats schema: traces
         written before them parse with the counters at zero *)
      Some (Vstats { iter = get (int f "iter");
                     insn_processed = get (int f "insn_processed");
                     total_states = get (int f "total_states");
                     peak_states = get (int f "peak_states");
                     max_states_per_insn = get (int f "max_states_per_insn");
                     prune_hits = get (int f "prune_hits");
                     prune_misses = get (int f "prune_misses");
                     loops_detected = get (int f "loops_detected");
                     branch_hwm = get (int f "branch_hwm");
                     widen_rounds =
                       Option.value (int f "widen_rounds") ~default:0;
                     loop_heads =
                       Option.value (int f "loop_heads") ~default:0 })
    | "checkpoint" -> Some (Checkpoint { iter = get (int f "iter") })
    | "quarantined" -> Some (Quarantined { iter = get (int f "iter") })
    | "cache_hit" ->
      Some (Service_hit { seq = get (int f "seq"); key = get (str f "key") })
    | "cache_miss" ->
      Some (Service_miss { seq = get (int f "seq"); key = get (str f "key") })
    | "service_admitted" ->
      Some (Service_admitted { seq = get (int f "seq");
                               key = get (str f "key");
                               insns = get (int f "insns");
                               insn_processed = get (int f "insn_processed") })
    | "service_rejected" ->
      Some (Service_rejected { seq = get (int f "seq");
                               key = get (str f "key"); reason = reason () })
    | "shard_merge" ->
      Some (Shard_merge { shards = get (int f "shards");
                          events = get (int f "events") })
    | "profile" ->
      (* the minor-words fields postdate the profile schema: traces
         written before them parse with the attribution at zero *)
      let w k = Option.value (num f k) ~default:0. in
      Some (Profile { programs = get (int f "programs");
                      gen_s = get (num f "gen_s");
                      verify_s = get (num f "verify_s");
                      sanitize_s = get (num f "sanitize_s");
                      exec_s = get (num f "exec_s");
                      wall_s = get (num f "wall_s");
                      gen_w = w "gen_w"; verify_w = w "verify_w";
                      sanitize_w = w "sanitize_w"; exec_w = w "exec_w" })
    | _ -> None
  with
  | ev -> ev
  | exception Json.Parse -> None

(* -- Sinks ---------------------------------------------------------- *)

type sink = {
  oc : out_channel option;
  iter_map : int -> int;
  mutable closed : bool;
}

let null = { oc = None; iter_map = (fun i -> i); closed = false }

let create ?(iter_map = fun i -> i) (path : string) : sink =
  { oc = Some (open_out path); iter_map; closed = false }

let map_iter (f : int -> int) (ev : event) : event =
  match ev with
  | Generated e -> Generated { e with iter = f e.iter }
  | Accepted e -> Accepted { e with iter = f e.iter }
  | Rejected e -> Rejected { e with iter = f e.iter }
  | Finding e -> Finding { e with iter = f e.iter }
  | Vstats e -> Vstats { e with iter = f e.iter }
  | Checkpoint { iter } -> Checkpoint { iter = f iter }
  | Quarantined { iter } -> Quarantined { iter = f iter }
  (* service traces are never sharded: the sequence number is already
     global *)
  | Service_hit _ | Service_miss _ | Service_admitted _
  | Service_rejected _
  | Shard_merge _ | Profile _ -> ev

let emit (t : sink) (ev : event) : unit =
  match t.oc with
  | None -> ()
  | Some oc ->
    if not t.closed then begin
      output_string oc (to_json (map_iter t.iter_map ev));
      output_char oc '\n'
    end

let flush (t : sink) : unit =
  match t.oc with
  | Some oc when not t.closed -> Stdlib.flush oc
  | Some _ | None -> ()

let pos (t : sink) : int =
  match t.oc with
  | Some oc when not t.closed -> Stdlib.flush oc; pos_out oc
  | Some _ | None -> 0

(* Reopen an existing trace for appending from [pos], discarding
   whatever a crashed writer managed to append past it.  Restarted
   supervisor workers use this: the worker checkpoint records the trace
   offset at the barrier, so replayed iterations never appear twice. *)
let reopen ?(iter_map = fun i -> i) (path : string) ~(pos : int) : sink =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  Unix.ftruncate fd pos;
  ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
  { oc = Some (Unix.out_channel_of_descr fd); iter_map; closed = false }

let close (t : sink) : unit =
  match t.oc with
  | None -> ()
  | Some oc ->
    if not t.closed then begin
      t.closed <- true;
      close_out oc
    end

let read_file (path : string) : event list =
  let ic = open_in path in
  let events = ref [] in
  (try
     while true do
       match of_json (input_line ic) with
       | Some ev -> events := ev :: !events
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !events

(* Merge per-shard traces into one global trace.  Events already carry
   global iteration numbers (the shard sinks' [iter_map]), so a stable
   sort by iteration reconstructs the sequential order; records without
   an iteration sink to the end. *)
let merge_shards ~(into : string) (shard_paths : string list) : int =
  let events =
    List.concat_map
      (fun p -> if Sys.file_exists p then read_file p else [])
      shard_paths
  in
  let events =
    List.stable_sort
      (fun a b ->
         compare
           (Option.value (iter_of a) ~default:max_int)
           (Option.value (iter_of b) ~default:max_int))
      events
  in
  let sink = create into in
  List.iter (emit sink) events;
  emit sink
    (Shard_merge
       { shards = List.length shard_paths; events = List.length events });
  close sink;
  List.length events

(* -- Aggregation ---------------------------------------------------- *)

(* Distribution of one deterministic counter over the trace's vstats
   events: total plus the p50/p95 order statistics (nearest-rank on the
   sorted samples, index (p * (n-1)) / 100). *)
type dist = { d_total : int; d_p50 : int; d_p95 : int }

type vstats_summary = {
  vsu_count : int;            (* vstats events seen *)
  vsu_insn_processed : dist;
  vsu_peak_states : dist;
  vsu_widen_rounds : dist;
  vsu_loop_heads : int;       (* loop heads across all analyses *)
}

type service_summary = {
  ssu_requests : int;   (* verdict events: admitted + rejected *)
  ssu_hits : int;
  ssu_misses : int;
  ssu_admitted : int;
  ssu_rejected : int;
}

type summary = {
  su_events : int;
  su_generated : int;
  su_accepted : int;
  su_rejected : int;
  su_findings : int;
  su_checkpoints : int;
  su_quarantined : int;
  su_by_type : (string * (int * int)) list;
  su_reasons : (Reject_reason.t * int) list;
  su_vstats : vstats_summary option;
  su_service : service_summary option;
  su_profile : event option;
}

let dist_of (samples : int list) : dist =
  let a = Array.of_list samples in
  Array.sort compare a;
  { d_total = Array.fold_left ( + ) 0 a;
    d_p50 = Bvf_util.Percentile.of_sorted_int a 50;
    d_p95 = Bvf_util.Percentile.of_sorted_int a 95 }

let summarize (events : event list) : summary =
  let by_type : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  let reasons : (Reject_reason.t, int) Hashtbl.t = Hashtbl.create 8 in
  let generated = ref 0 and accepted = ref 0 and rejected = ref 0 in
  let findings = ref 0 and checkpoints = ref 0 and quarantined = ref 0 in
  let profile = ref None in
  let vs_insn = ref [] and vs_peak = ref [] and vs_count = ref 0 in
  let vs_widen = ref [] and vs_heads = ref 0 in
  let sv_hits = ref 0 and sv_misses = ref 0 in
  let sv_admitted = ref 0 and sv_rejected = ref 0 in
  let bump_type pt ~acc =
    let g, a = Option.value (Hashtbl.find_opt by_type pt) ~default:(0, 0)
    in
    Hashtbl.replace by_type pt (if acc then (g, a + 1) else (g + 1, a))
  in
  List.iter
    (fun ev ->
       match ev with
       | Generated { prog_type; _ } ->
         incr generated; bump_type prog_type ~acc:false
       | Accepted { prog_type; _ } ->
         incr accepted; bump_type prog_type ~acc:true
       | Rejected { reason; _ } ->
         incr rejected;
         Hashtbl.replace reasons reason
           (1 + Option.value (Hashtbl.find_opt reasons reason) ~default:0)
       | Finding _ -> incr findings
       | Vstats { insn_processed; peak_states; widen_rounds; loop_heads;
                  _ } ->
         incr vs_count;
         vs_insn := insn_processed :: !vs_insn;
         vs_peak := peak_states :: !vs_peak;
         vs_widen := widen_rounds :: !vs_widen;
         vs_heads := !vs_heads + loop_heads
       | Checkpoint _ -> incr checkpoints
       | Quarantined _ -> incr quarantined
       | Service_hit _ -> incr sv_hits
       | Service_miss _ -> incr sv_misses
       | Service_admitted _ -> incr sv_admitted
       | Service_rejected { reason; _ } ->
         incr sv_rejected;
         Hashtbl.replace reasons reason
           (1 + Option.value (Hashtbl.find_opt reasons reason) ~default:0)
       | Shard_merge _ -> ()
       | Profile _ -> profile := Some ev)
    events;
  {
    su_events = List.length events;
    su_generated = !generated;
    su_accepted = !accepted;
    su_rejected = !rejected;
    su_findings = !findings;
    su_checkpoints = !checkpoints;
    su_quarantined = !quarantined;
    su_by_type =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_type []
      |> List.sort compare;
    su_reasons =
      Hashtbl.fold (fun r n acc -> (r, n) :: acc) reasons []
      |> List.sort (fun (ra, na) (rb, nb) ->
          match compare nb na with
          | 0 -> compare (Reject_reason.to_string ra)
                   (Reject_reason.to_string rb)
          | c -> c);
    su_vstats =
      (if !vs_count = 0 then None
       else
         Some
           { vsu_count = !vs_count;
             vsu_insn_processed = dist_of !vs_insn;
             vsu_peak_states = dist_of !vs_peak;
             vsu_widen_rounds = dist_of !vs_widen;
             vsu_loop_heads = !vs_heads });
    su_service =
      (if !sv_hits + !sv_misses + !sv_admitted + !sv_rejected = 0 then None
       else
         Some
           { ssu_requests = !sv_admitted + !sv_rejected;
             ssu_hits = !sv_hits;
             ssu_misses = !sv_misses;
             ssu_admitted = !sv_admitted;
             ssu_rejected = !sv_rejected });
    su_profile = !profile;
  }

let unknown_rejections (s : summary) : int =
  Option.value
    (List.assoc_opt Reject_reason.Unknown s.su_reasons)
    ~default:0

let pp_summary fmt (s : summary) : unit =
  let pct a b =
    if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b
  in
  Format.fprintf fmt
    "%d events: %d generated, %d accepted (%.1f%%), %d rejected, %d findings, %d checkpoints@."
    s.su_events s.su_generated s.su_accepted
    (pct s.su_accepted s.su_generated)
    s.su_rejected s.su_findings s.su_checkpoints;
  if s.su_quarantined > 0 then
    Format.fprintf fmt "  %d iterations quarantined by the supervisor@."
      s.su_quarantined;
  if s.su_by_type <> [] then begin
    Format.fprintf fmt "@.  %-16s %10s %10s %8s@." "prog type" "generated"
      "accepted" "rate";
    List.iter
      (fun (pt, (g, a)) ->
         Format.fprintf fmt "  %-16s %10d %10d %7.1f%%@." pt g a (pct a g))
      s.su_by_type
  end;
  if s.su_reasons <> [] then begin
    Format.fprintf fmt "@.  %-20s %10s %8s@." "rejection reason" "count"
      "share";
    List.iter
      (fun (r, n) ->
         Format.fprintf fmt "  %-20s %10d %7.1f%%  (%s)@."
           (Reject_reason.to_string r) n (pct n s.su_rejected)
           (Reject_reason.describe r))
      s.su_reasons
  end;
  (match s.su_service with
   | Some sv ->
     Format.fprintf fmt
       "@.  service: %d requests, %d admitted, %d rejected; cache %d hits / %d misses (%.1f%% hit rate)@."
       sv.ssu_requests sv.ssu_admitted sv.ssu_rejected sv.ssu_hits
       sv.ssu_misses
       (pct sv.ssu_hits (sv.ssu_hits + sv.ssu_misses))
   | None -> ());
  (match s.su_vstats with
   | Some v ->
     Format.fprintf fmt
       "@.  verifier over %d analyses: insn_processed total %d (p50 %d, p95 %d), peak_states total %d (p50 %d, p95 %d)@."
       v.vsu_count v.vsu_insn_processed.d_total v.vsu_insn_processed.d_p50
       v.vsu_insn_processed.d_p95 v.vsu_peak_states.d_total
       v.vsu_peak_states.d_p50 v.vsu_peak_states.d_p95;
     if v.vsu_loop_heads > 0 || v.vsu_widen_rounds.d_total > 0 then
       Format.fprintf fmt
         "  loops: %d heads, widen rounds total %d (p50 %d, p95 %d)@."
         v.vsu_loop_heads v.vsu_widen_rounds.d_total
         v.vsu_widen_rounds.d_p50 v.vsu_widen_rounds.d_p95
   | None -> ());
  match s.su_profile with
  | Some (Profile { programs; gen_s; verify_s; sanitize_s; exec_s;
                    wall_s; gen_w; verify_w; sanitize_w; exec_w }) ->
    Format.fprintf fmt
      "@.  phases over %d programs: gen %.3fs, verify %.3fs, sanitize %.3fs, exec %.3fs (wall %.3fs)@."
      programs gen_s verify_s sanitize_s exec_s wall_s;
    let total_w = gen_w +. verify_w +. sanitize_w +. exec_w in
    if total_w > 0. && programs > 0 then begin
      let per w = w /. float_of_int programs in
      Format.fprintf fmt
        "  alloc per program: gen %.0fw, verify %.0fw, sanitize %.0fw, exec %.0fw (%.0fw minor total)@."
        (per gen_w) (per verify_w) (per sanitize_w) (per exec_w)
        (per total_w)
    end
  | Some _ | None -> ()
