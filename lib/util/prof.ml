(* Span profiler: nested named spans with allocation attribution.

   One [t] handle per domain/shard/worker — a handle is plain mutable
   state owned by exactly one domain, so instrumented code never takes a
   lock and never contends.  A [session] groups the handles of one run
   (one per shard plus one for the coordinating domain) and is the unit
   the CLI turns into a Chrome trace-event file.

   Every session handle keeps always-on per-name totals (count,
   seconds, minor words), the one accounting path for phase time and
   allocation; span recording is the opt-in part.

   Purity contract (same discipline as [--progress]): span recording is
   off by default, the shared [disabled] handle reduces every operation
   to the clock/counter reads the caller needs anyway, nothing here
   ever touches a campaign's RNG, telemetry sink or digest, and a
   profiled run is byte-identical in digest and trace to an unprofiled
   one.  Times and allocation counts are observations, not behavior. *)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

type span = {
  sp_track : int;        (* shard/worker index; the trace's [pid] *)
  sp_name : string;
  sp_depth : int;        (* nesting depth at open time; 0 = top level *)
  sp_start_s : float;    (* absolute Mclock seconds *)
  sp_dur_s : float;      (* inclusive wall time *)
  sp_self_s : float;     (* dur minus direct children *)
  sp_minor_w : float;    (* minor words allocated during the span *)
  sp_major_w : float;    (* major words allocated during the span *)
}

(* A frame's counters live in their own all-float record: stores to an
   all-float record compile to unboxed float writes, so the baseline
   adjustment loop below allocates nothing — which is exactly what
   makes it a fixed point. *)
type counters = {
  mutable c_t0 : float;
  mutable c_minor0 : float;
  mutable c_major0 : float;
  mutable c_child_s : float;   (* direct children's inclusive time *)
}

type frame = { f_name : string; f_c : counters }

(* One name's totals; all-float like [counters], so adding is unboxed. *)
type sums = { mutable u_n : float; mutable u_s : float; mutable u_w : float }

type total = {
  tt_name : string;
  tt_count : int;
  tt_s : float;
  tt_minor_w : float;
}

type t = {
  h_track : int;
  h_enabled : bool;             (* records spans *)
  mutable h_stack : frame list;
  mutable h_spans : span list;  (* completed, reverse order *)
  mutable h_sums : (string * sums) list;  (* per name, newest first *)
}

(* Shared, so it keeps no totals: [add_total] skips it. *)
let disabled : t =
  { h_track = 0; h_enabled = false; h_stack = []; h_spans = [];
    h_sums = [] }

(* Self-exclusion: shift every open frame's minor-words baseline
   forward past whatever the enabled path allocated since [m0], so the
   profiler's own garbage (span records, stack conses, [Gc.quick_stat]
   results) never shows up in a span's minor-words attribution.  The
   per-name totals are fed from {!stop}; without this, profiling would
   systematically inflate them by tens of words per span.  What remains
   is only the inherent imprecision of [Gc.minor_words] in native code
   (allocations are batched per code path, so enabled and disabled
   branches can read a few words apart) — a run-level rounding error,
   not a bias.  Re-reading the counter at each store keeps the loop
   honest: the store itself is an unboxed float write into an all-float
   record, so nothing is allocated after the read it compensates for. *)
let rec exclude_since (frames : frame list) (m0 : float) : unit =
  match frames with
  | [] -> ()
  | fr :: tl ->
    fr.f_c.c_minor0 <- fr.f_c.c_minor0 +. (Gc.minor_words () -. m0);
    exclude_since tl m0

(* Add [n] stops to [name]'s entry; [false] when it has none yet.  A
   handful of names per handle, so a list scan beats hashing, and it
   allocates nothing (the floats arrive already boxed). *)
let rec bump l name n (dur : float) (w : float) : bool =
  match l with
  | [] -> false
  | (k, u) :: _ when String.equal k name ->
    u.u_n <- u.u_n +. float_of_int n;
    u.u_s <- u.u_s +. dur;
    u.u_w <- u.u_w +. w;
    true
  | _ :: tl -> bump tl name n dur w

let add_total (h : t) name n dur w : unit =
  if h != disabled && not (bump h.h_sums name n dur w) then
    h.h_sums <-
      (name, { u_n = float_of_int n; u_s = dur; u_w = w }) :: h.h_sums

(* Opening a frame always reads the clock and the minor-allocation
   counter: {!stop} returns both deltas and feeds the handle's totals
   from them, so the disabled path costs exactly what the pre-profiler
   ad-hoc timers cost.  The major-words counter lives in
   [Gc.quick_stat], which allocates, so it is read only when the handle
   records spans.  The enabled-only work runs *before* the baseline
   reads (and is excluded from enclosing frames), so both paths leave
   the same allocations inside the new span's window, up to native-code
   allocation batching. *)
let start (h : t) (name : string) : frame =
  let fr =
    { f_name = name;
      f_c = { c_t0 = 0.; c_minor0 = 0.; c_major0 = 0.; c_child_s = 0. } }
  in
  if h.h_enabled then begin
    let m0 = Gc.minor_words () in
    fr.f_c.c_major0 <- (Gc.quick_stat ()).Gc.major_words;
    h.h_stack <- fr :: h.h_stack;
    exclude_since h.h_stack m0
  end;
  fr.f_c.c_t0 <- Mclock.now_s ();
  fr.f_c.c_minor0 <- Gc.minor_words ();
  fr

(* Close a frame: returns (inclusive seconds, minor words), the same
   reads that feed the handle's totals.  A name's first entry is
   charged to the open parents with or without spans alike. *)
let stop (h : t) (fr : frame) : float * float =
  let dur = Mclock.elapsed_s ~since:fr.f_c.c_t0 in
  let minor = Float.max 0. (Gc.minor_words () -. fr.f_c.c_minor0) in
  add_total h fr.f_name 1 dur minor;
  if h.h_enabled then begin
    let m0 = Gc.minor_words () in
    (match h.h_stack with
     | top :: rest when top == fr ->
       h.h_stack <- rest;
       (match rest with
        | parent :: _ ->
          parent.f_c.c_child_s <- parent.f_c.c_child_s +. dur
        | [] -> ())
     | _ -> ());    (* mismatched stop: drop silently, keep the stack *)
    let major =
      Float.max 0. ((Gc.quick_stat ()).Gc.major_words -. fr.f_c.c_major0)
    in
    h.h_spans <-
      { sp_track = h.h_track; sp_name = fr.f_name;
        sp_depth = List.length h.h_stack;
        sp_start_s = fr.f_c.c_t0; sp_dur_s = dur;
        sp_self_s = Float.max 0. (dur -. fr.f_c.c_child_s);
        sp_minor_w = minor; sp_major_w = major }
      :: h.h_spans;
    exclude_since h.h_stack m0
  end;
  (dur, minor)

let span (h : t) (name : string) (f : unit -> 'a) : 'a =
  if h == disabled then f ()
  else begin
    let fr = start h name in
    Fun.protect ~finally:(fun () -> ignore (stop h fr)) f
  end

(* Post-hoc span: a section whose duration was measured elsewhere (the
   verifier reports sanitation time without exposing its interior).
   Charged as a child of the currently open frame, ending now.  A
   record lands mid-window of its parent (the loader records "sanitize"
   inside the open "verify" frame), so its allocations are excluded
   from the open baselines like any other profiler garbage.  Every
   record is a span, a zero-duration one included: a span count that
   depended on whether the clock ticked would differ between identical
   runs. *)
let record (h : t) ~(name : string) ~(dur_s : float)
    ?(minor_w = 0.) ?(major_w = 0.) () : unit =
  if not h.h_enabled then add_total h name 1 dur_s minor_w
  else begin
    let m0 = Gc.minor_words () in
    (* Absolute timestamps are ~1e9 s, where a double's ulp is a few
       hundred ns: [now -. dur_s] rounds, and keeping the requested
       duration would push the span's end past [now] — and past the
       enclosing span's end, tripping the nesting check on perfectly
       good traces.  Anchor the end at [now] exactly by re-deriving
       the duration from the rounded start (the difference of two
       nearby doubles is exact); the totals take the same duration, so
       they equal the span sums. *)
    let now = Mclock.now_s () in
    let start_s = now -. Float.max 0. dur_s in
    let dur_s = now -. start_s in
    add_total h name 1 dur_s minor_w;
    (match h.h_stack with
     | parent :: _ -> parent.f_c.c_child_s <- parent.f_c.c_child_s +. dur_s
     | [] -> ());
    h.h_spans <-
      { sp_track = h.h_track; sp_name = name;
        sp_depth = List.length h.h_stack;
        sp_start_s = start_s; sp_dur_s = dur_s;
        sp_self_s = dur_s; sp_minor_w = minor_w; sp_major_w = major_w }
      :: h.h_spans;
    exclude_since h.h_stack m0
  end

let totals (h : t) : total list =
  List.rev_map
    (fun (k, u) ->
       { tt_name = k; tt_count = int_of_float u.u_n; tt_s = u.u_s;
         tt_minor_w = u.u_w })
    h.h_sums

(* ------------------------------------------------------------------ *)
(* Sessions                                                           *)

type session = {
  s_spans : bool;
  s_mu : Mutex.t;
  mutable s_tracks : (int * string) list;  (* track id -> display name *)
  mutable s_handles : t list;              (* newest first *)
}

let session ?(spans = true) () : session =
  { s_spans = spans; s_mu = Mutex.create (); s_tracks = [];
    s_handles = [] }

let active (s : session) : bool = s.s_spans

(* Every call returns a fresh handle, so each domain owns its own
   totals.  Handles should be created before the domains that use them
   spawn; the mutex only guards registration, never recording. *)
let track (s : session) ?(name = "") (i : int) : t =
  let h =
    { h_track = i; h_enabled = s.s_spans; h_stack = []; h_spans = [];
      h_sums = [] }
  in
  Mutex.lock s.s_mu;
  if not (List.mem_assoc i s.s_tracks) then
    s.s_tracks <- (i, if name = "" then Printf.sprintf "track%d" i
                      else name) :: s.s_tracks;
  s.s_handles <- h :: s.s_handles;
  Mutex.unlock s.s_mu;
  h

let add_totals (h : t) (ts : total list) : unit =
  List.iter (fun t -> add_total h t.tt_name t.tt_count t.tt_s t.tt_minor_w) ts

(* Foreign totals and spans enter as one more handle of track [trk]. *)
let absorb (s : session) ?name ~(trk : int) ~(totals : total list)
    (spans : span list) : unit =
  let h = track s ?name trk in
  add_totals h totals;
  if s.s_spans then h.h_spans <- List.rev spans

(* All recorded spans, sorted by (track, start time) for stable output.
   Call after every domain using a handle has been joined. *)
let spans (s : session) : span list =
  let all =
    List.fold_left (fun acc h -> List.rev_append h.h_spans acc) []
      s.s_handles
  in
  List.stable_sort
    (fun a b ->
       match compare a.sp_track b.sp_track with
       | 0 -> compare a.sp_start_s b.sp_start_s
       | c -> c)
    all

let tracks (s : session) : (int * string) list =
  List.sort compare s.s_tracks

(* Summed by name over the handles (of track [trk]) in creation order. *)
let session_totals ?trk (s : session) : total list =
  let acc = { disabled with h_sums = [] } in
  List.iter
    (fun h ->
       if trk = None || trk = Some h.h_track then add_totals acc (totals h))
    (List.rev s.s_handles);
  totals acc

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (Perfetto-loadable)                        *)

(* One complete event ("ph":"X") per span, one JSON object per line so
   diffs and greps stay usable; [pid] is the track (shard/worker),
   [tid] the nesting depth.  [sdur] (self time, us) is a nonstandard
   field Perfetto ignores; allocation deltas ride in [args]. *)
let write_chrome (path : string) ~(tracks : (int * string) list)
    (spans : span list) : unit =
  let epoch =
    List.fold_left (fun m sp -> Float.min m sp.sp_start_s) infinity spans
  in
  let epoch = if epoch = infinity then 0. else epoch in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let b = Buffer.create 256 in
  let first = ref true in
  (* write out the event line built in [b] *)
  let emit () =
    output_string oc (if !first then "\n" else ",\n");
    first := false;
    Buffer.output_buffer oc b;
    Buffer.clear b
  in
  List.iter
    (fun (trk, name) ->
       Printf.bprintf b
         "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\
          \"args\":{\"name\":\"%a\"}}"
         trk Json.escape name;
       emit ())
    tracks;
  List.iter
    (fun sp ->
       Printf.bprintf b
         "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"name\":\"%a\",\
          \"ts\":%.3f,\"dur\":%.3f,\"sdur\":%.3f,\
          \"args\":{\"minor_words\":%.0f,\"major_words\":%.0f}}"
         sp.sp_track sp.sp_depth Json.escape sp.sp_name
         ((sp.sp_start_s -. epoch) *. 1e6) (sp.sp_dur_s *. 1e6)
         (sp.sp_self_s *. 1e6) sp.sp_minor_w sp.sp_major_w;
       emit ())
    spans;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* ---- reading it back (the [bvf profile] aggregator) ---- *)

(* Containment slack: endpoints round-trip through %.3f microseconds,
   so two rounded endpoints can disagree by 1ns each. *)
let nest_eps_s = 5e-9

(* Validate that the spans of each track nest properly: sorted by start
   (ties broken longest-first), every span must lie inside the
   innermost still-open ancestor or after it — partial overlap is
   malformed. *)
let check_nesting (spans : span list) : string list =
  let errors = ref [] in
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun sp ->
       let l = try Hashtbl.find by_track sp.sp_track with Not_found -> [] in
       Hashtbl.replace by_track sp.sp_track (sp :: l))
    spans;
  Hashtbl.iter
    (fun trk l ->
       let sorted =
         List.sort
           (fun a b ->
              match compare a.sp_start_s b.sp_start_s with
              | 0 -> compare b.sp_dur_s a.sp_dur_s
              | c -> c)
           l
       in
       let stack = ref [] in
       List.iter
         (fun sp ->
            let e = sp.sp_start_s +. sp.sp_dur_s in
            let rec pop () =
              match !stack with
              | (_, pe) :: rest when sp.sp_start_s >= pe -. nest_eps_s ->
                stack := rest; pop ()
              | _ -> ()
            in
            pop ();
            (match !stack with
             | (pn, pe) :: _ when e > pe +. nest_eps_s ->
               errors :=
                 Printf.sprintf
                   "track %d: span %s overlaps enclosing %s" trk
                   sp.sp_name pn
                 :: !errors
             | _ -> ());
            stack := (sp.sp_name, e) :: !stack)
         sorted)
    by_track;
  List.rev !errors

(* Read a Chrome trace back: returns spans, track names and a list of
   malformedness complaints (empty = clean).  A complaint does not
   discard the events that did parse, so the aggregator can stay
   useful on partial traces unless the caller opts into strictness. *)
let read_chrome (path : string) :
  span list * (int * string) list * string list =
  let errors = ref [] in
  let contents =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  match Json.parse contents with
  | exception Json.Parse -> ([], [], [ "not valid JSON" ])
  | Json.Jobj fields ->
    let events =
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Jarr l) -> l
      | Some _ -> errors := "traceEvents is not an array" :: !errors; []
      | None -> errors := "missing traceEvents" :: !errors; []
    in
    let tracks = ref [] in
    let spans = ref [] in
    List.iteri
      (fun i ev ->
         match ev with
         | Json.Jobj f ->
           let args =
             match List.assoc_opt "args" f with
             | Some (Json.Jobj a) -> a
             | _ -> []
           in
           (match Json.str f "ph" with
            | Some "M" -> begin
                match Json.str f "name", Json.num f "pid",
                      Json.str args "name" with
                | Some "process_name", Some pid, Some nm ->
                  tracks := (int_of_float pid, nm) :: !tracks
                | _ -> ()
              end
            | Some "X" -> begin
                match Json.str f "name", Json.num f "pid", Json.num f "ts",
                      Json.num f "dur" with
                | Some name, Some pid, Some ts, Some dur ->
                  if dur < 0. then
                    errors :=
                      Printf.sprintf "event %d: negative dur" i :: !errors
                  else
                    spans :=
                      { sp_track = int_of_float pid; sp_name = name;
                        sp_depth =
                          Option.value (Json.int f "tid") ~default:0;
                        sp_start_s = ts /. 1e6; sp_dur_s = dur /. 1e6;
                        sp_self_s =
                          Option.value (Json.num f "sdur") ~default:dur
                          /. 1e6;
                        sp_minor_w =
                          Option.value (Json.num args "minor_words")
                            ~default:0.;
                        sp_major_w =
                          Option.value (Json.num args "major_words")
                            ~default:0. }
                      :: !spans
                | _ ->
                  errors :=
                    Printf.sprintf
                      "event %d: X event missing name/pid/ts/dur" i
                    :: !errors
              end
            | Some _ -> ()   (* other phases: tolerated, ignored *)
            | None ->
              errors :=
                Printf.sprintf "event %d: missing ph" i :: !errors)
         | _ ->
           errors :=
             Printf.sprintf "event %d: not an object" i :: !errors)
      events;
    let spans = List.rev !spans in
    errors := List.rev_append (check_nesting spans) !errors;
    (spans, List.sort compare !tracks, List.rev !errors)
  | _ -> ([], [], [ "top level is not an object" ])

(* ------------------------------------------------------------------ *)
(* Aggregation                                                        *)

type agg = {
  ag_name : string;
  ag_count : int;
  ag_total_s : float;    (* inclusive *)
  ag_self_s : float;
  ag_p50_s : float;      (* per-span inclusive duration *)
  ag_p95_s : float;
  ag_minor_w : float;    (* inclusive allocation *)
  ag_major_w : float;
}

let aggregate (spans : span list) : agg list =
  let by_name : (string, span list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun sp ->
       match Hashtbl.find_opt by_name sp.sp_name with
       | Some l -> l := sp :: !l
       | None ->
         Hashtbl.add by_name sp.sp_name (ref [ sp ]);
         order := sp.sp_name :: !order)
    spans;
  let rows =
    List.rev_map
      (fun name ->
         let l = !(Hashtbl.find by_name name) in
         let durs = Array.of_list (List.map (fun sp -> sp.sp_dur_s) l) in
         Array.sort compare durs;
         let sum f = List.fold_left (fun a sp -> a +. f sp) 0. l in
         { ag_name = name;
           ag_count = List.length l;
           ag_total_s = sum (fun sp -> sp.sp_dur_s);
           ag_self_s = sum (fun sp -> sp.sp_self_s);
           ag_p50_s = Percentile.of_sorted durs 50;
           ag_p95_s = Percentile.of_sorted durs 95;
           ag_minor_w = sum (fun sp -> sp.sp_minor_w);
           ag_major_w = sum (fun sp -> sp.sp_major_w) })
      !order
  in
  List.sort (fun a b -> compare b.ag_self_s a.ag_self_s) rows

(* Per-track wall-time attribution: wall is first-start to last-end,
   attributed is the sum of top-level (depth 0) span durations.  The
   ">= 90% of each shard's wall time in named spans" acceptance check
   reads straight off this. *)
let track_attribution (spans : span list) : (int * float * float) list =
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun sp ->
       let prev =
         try Hashtbl.find by_track sp.sp_track
         with Not_found -> (infinity, neg_infinity, 0.)
       in
       let lo, hi, top = prev in
       Hashtbl.replace by_track sp.sp_track
         ( Float.min lo sp.sp_start_s,
           Float.max hi (sp.sp_start_s +. sp.sp_dur_s),
           if sp.sp_depth = 0 then top +. sp.sp_dur_s else top ))
    spans;
  Hashtbl.fold
    (fun trk (lo, hi, top) acc -> (trk, Float.max 0. (hi -. lo), top) :: acc)
    by_track []
  |> List.sort compare
