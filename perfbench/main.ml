(* The repository benchmark.  One workload per run:

   - campaign:       fixed-budget BVF campaigns (Campaign.run) on
                     Kconfig.default Bpf_next, one domain;
   - campaign-jobs2: the same streams through Parallel.run ~jobs:2;
   - serve-zipf:     a closed-loop client driving a `bvf serve` child
                     with a seeded Zipf draw over self-tests and
                     generator programs, cache capped below the pool.

   With --trace 0 the run prints the end-to-end metrics; with --trace 1
   it runs the traced analysis instead and prints the per-layer metrics.
   The last stdout line is one JSON object: correct, attempted, failed,
   metrics.  README.md in this directory explains the choices. *)

open Bvf_core
open Perfbench
module Prof = Bvf_util.Prof
module Mclock = Bvf_util.Mclock
module Percentile = Bvf_util.Percentile
module Verifier = Bvf_verifier.Verifier
module Vstats = Bvf_verifier.Vstats
module Coverage = Bvf_verifier.Coverage
module Loader = Bvf_runtime.Loader
module Kconfig = Bvf_kernel.Kconfig
module Kstate = Bvf_kernel.Kstate

let version = Bvf_ebpf.Version.Bpf_next

(* -- Fixed parameters ------------------------------------------------------ *)

let budget = 500        (* iterations per campaign stream *)
let window = 64         (* completions per throughput window *)
let warm_budget = 500    (* iterations of the set-up warm-up campaign *)
let warm_seed = 104729   (* fixed, so set-up cost does not vary with --seed *)
let setup_reps = 5       (* set-ups per run; setup_s is their median *)
let cache_cap = 256      (* serve cache entries, below the pool size *)
let zipf_s = 1.0

(* The generator programs of the serve pool: the first [gen_programs]
   encodable generator outputs whose verification processes fewer than
   [max_effort] instructions, in generator order, so the pool carries the
   generator's own mix of verifier effort below that cut-off.  Costlier
   programs are left to the campaign workloads, where their tail is
   measured; the run prints the share left out. *)
let gen_programs = 192
let max_effort = 10_000
let max_candidates = 2000

(* Set-up runs once before the first timed operation and then again
   [setup_reps - 1] times at evenly spaced points of the timed work
   (between campaign streams, between closed-loop segments), outside
   the timed sections.  The machine's speed drifts in phases of seconds
   (README.md), so set-ups taken back to back would all land in one. *)
let setup_points (total : int) : int list =
  List.init (setup_reps - 1) (fun i -> (i + 1) * total / setup_reps)

(* campaign stream [k] of a run: seeds are spaced so the two shards of a
   --jobs 2 stream (seed, seed+1) never coincide with another stream *)
let sub_seed (seed : int) (k : int) : int = (seed * 1_000_003) + (101 * k)

(* The work of a run is fixed by --seconds through these nominal rates,
   not by the clock, so a parent and a child commit measure the same
   iterations and requests: memory high-water marks grow with the work
   done (Parallel.run's domain spawns, serve's miss-latency list), and a
   time-bounded run would tie them to speed.  A run lasts about
   --seconds, longer on seeds with a heavy verifier tail; one that
   reaches [3 * seconds] stops early and says so. *)
let streams_for (seconds : float) : int =
  max 2 (int_of_float (Float.ceil (seconds *. 1600. /. float_of_int budget)))

let requests_for (seconds : float) : int =
  max 1000 (int_of_float (seconds *. 10000.))

let past_deadline ~(t0 : float) ~(seconds : float) : bool =
  let late = Mclock.elapsed_s ~since:t0 > 3. *. seconds in
  if late then Printf.printf "stopped early at 3 x %g s: work incomplete\n%!" seconds;
  late

(* -- Output ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let bad_values = ref 0

let metric ?(note = "") (name : string) (unit_ : string) (v : float) : unit =
  if not (Float.is_finite v) then incr bad_values;
  metrics := (name, v, unit_) :: !metrics;
  Printf.printf "  %-30s %16.6f %-6s %s\n%!" name v unit_ note

let info fmt = Printf.printf (fmt ^^ "\n%!")

let json_number (v : float) : string =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result (t : Pstats.tally) : unit =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{"
    (!bad_values = 0 && Pstats.failed t = 0)
    (max 1 (Pstats.attempted t)) (Pstats.failed t);
  List.iteri
    (fun i (name, v, u) ->
       Printf.bprintf b "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}"
         (if i = 0 then "" else ",") name (json_number v) u)
    (List.rev !metrics);
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let print_failures (tally : Pstats.tally) : unit =
  info "error_rate %.6f (%d failed of %d attempted%s)"
    (Pstats.error_rate tally) (Pstats.failed tally) (Pstats.attempted tally)
    (String.concat ""
       (List.filter_map
          (fun k ->
             match Pstats.count tally k with
             | 0 -> None
             | n -> Some (Printf.sprintf ", %s %d" (Pstats.failure_name k) n))
          Pstats.all_failures))

(* -- Samples ----------------------------------------------------------------- *)

(* growable float buffer *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add (b : t) (x : float) : unit =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array (b : t) : float array = Array.sub b.a 0 b.n

  let sorted (bs : t list) : float array =
    let a = Array.concat (List.map to_array bs) in
    Array.sort Float.compare a;
    a

  let sum (b : t) : float =
    let s = ref 0. in
    for i = 0 to b.n - 1 do s := !s +. b.a.(i) done;
    !s
end

(* What a timed loop leaves behind: per-operation latencies (ms) and the
   throughput of each window of [window] consecutive completions. *)
type samples = { lat : Fbuf.t; rates : Fbuf.t }

let samples () = { lat = Fbuf.create (); rates = Fbuf.create () }

let add_rates (s : samples) ~(t0 : float) (completions : float array) : unit =
  List.iter (Fbuf.add s.rates)
    (Pstats.window_rates ~w:window (Array.append [| t0 |] completions))

(* Fold one campaign stream (each shard's iteration completion times,
   the stream started at [t0]) into the samples: an iteration's latency
   runs from the previous completion on its shard. *)
let add_iterations (s : samples) ~(t0 : float) (shards : Fbuf.t list) : unit =
  List.iter
    (fun (b : Fbuf.t) ->
       let prev = ref t0 in
       for i = 0 to b.Fbuf.n - 1 do
         Fbuf.add s.lat ((b.Fbuf.a.(i) -. !prev) *. 1e3);
         prev := b.Fbuf.a.(i)
       done)
    shards;
  let all = Array.concat (List.map Fbuf.to_array shards) in
  Array.sort Float.compare all;
  add_rates s ~t0 all

(* percentile [p] of ascending samples, [scale]d to the metric's unit and
   printed with the sample count behind it *)
let pct_metric name unit_ scale (sorted : float array) (p : int) : unit =
  let n = Array.length sorted in
  metric name unit_ (Percentile.of_sorted sorted p *. scale)
    ~note:(Printf.sprintf "p%d of n=%d (%d beyond)" p n (Pstats.beyond n p))

(* the highest percentile with ten samples beyond it (the maximum when
   there are too few samples) *)
let tail_metric name unit_ scale (sorted : float array) : unit =
  pct_metric name unit_ scale sorted
    (Option.value (Pstats.tail_percentile (Array.length sorted)) ~default:100)

(* The end-to-end figures every workload reports from its samples.  The
   gated tail is p90: p99 moves by more than any allowed bound between
   seeds (README.md), so it is printed beside it for reference only. *)
let loop_metrics (s : samples) ~(ops : int) ~(wall : float) : unit =
  let rates = Fbuf.to_array s.rates in
  metric "progs_per_s" "1/s" (Pstats.median (Array.to_list rates))
    ~note:(Printf.sprintf "median of n=%d windows of %d" (Array.length rates)
             window);
  info "  mean throughput %.1f/s (%d in %.3f s, heavy-tailed, not gated)"
    (float_of_int ops /. wall) ops wall;
  let sorted = Fbuf.sorted [ s.lat ] in
  pct_metric "latency_p50_ms" "ms" 1. sorted 50;
  pct_metric "latency_p90_ms" "ms" 1. sorted 90;
  let n = Array.length sorted in
  Option.iter
    (fun p ->
       info "  latency tail p%d %.6f ms (n=%d, %d beyond, not gated)" p
         (Percentile.of_sorted sorted p) n (Pstats.beyond n p))
    (Pstats.tail_percentile n)

(* resident-set high-water mark of a process, from /proc *)
let vm_hwm_mb (pid : string) : float =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        let line = input_line ic in
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
      in
      scan ())

let gc_metrics ~(minor : int) ~(major : int) : unit =
  metric "gc.minor_collections" "count" (float_of_int minor);
  metric "gc.major_collections" "count" (float_of_int major);
  metric "gc.top_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
     /. 1048576.)

let gc_since (before : Gc.stat) : unit =
  let after = Gc.quick_stat () in
  gc_metrics
    ~minor:(after.Gc.minor_collections - before.Gc.minor_collections)
    ~major:(after.Gc.major_collections - before.Gc.major_collections)

(* -- Campaign streams ------------------------------------------------------ *)

let campaign_config = Kconfig.default version

type stream = {
  sr_seed : int;
  sr_wall : float;
  sr_iters : int;
  sr_edges : int;
  sr_bugs : int;
  sr_env : int;
  sr_accepted : int;
  sr_reboots : int;
  sr_insn_processed : int;
  sr_corpus : int;
  sr_digest : string;
}

(* One fixed-budget stream.  [on_step shard] runs after every iteration
   on the shard's domain ([jobs = 1]: shard 0, the calling domain). *)
let run_stream ?(strategy = Campaign.bvf_strategy) ?prof
    ?(on_step = fun (_ : int) (_ : Campaign.t) -> ()) ~(jobs : int)
    ~(iterations : int) (seed : int) : stream =
  let t0 = Mclock.now_s () in
  let st, corpus, digest =
    if jobs = 1 then
      let c =
        Campaign.run_t ?prof ~on_step:(on_step 0) ~seed ~iterations strategy
          campaign_config
      in
      (c.Campaign.stats, c.Campaign.corpus, Campaign.digest c.Campaign.stats)
    else
      let r =
        Parallel.run ~on_step ~jobs ~seed ~iterations strategy campaign_config
      in
      (r.Parallel.pr_stats, r.Parallel.pr_corpus, Parallel.digest r)
  in
  { sr_seed = seed; sr_wall = Mclock.elapsed_s ~since:t0;
    sr_iters = st.Campaign.st_generated; sr_edges = st.Campaign.st_edges;
    sr_bugs = List.length (Campaign.bugs_found st);
    sr_env = st.Campaign.st_env_errors; sr_accepted = st.Campaign.st_accepted;
    sr_reboots = st.Campaign.st_reboots;
    sr_insn_processed = st.Campaign.st_vstats.Vstats.ag_insn_processed;
    sr_corpus = Corpus.size corpus; sr_digest = digest }

(* One stream timed per completed iteration through the public on_step
   hook (each shard writes only its own buffer).  A stream that raises
   counts its whole budget as failed. *)
let timed_stream ?strategy ?prof ?(wrap = fun (f : unit -> stream) -> f ())
    ~(jobs : int) (s : samples) (tally : Pstats.tally) (sd : int) :
  stream option =
  Pstats.attempt tally budget;
  let shards = Array.init jobs (fun _ -> Fbuf.create ()) in
  let t0 = Mclock.now_s () in
  match
    wrap (fun () ->
        run_stream ?strategy ?prof
          ~on_step:(fun sh _ -> Fbuf.add shards.(sh) (Mclock.now_s ()))
          ~jobs ~iterations:budget sd)
  with
  | r ->
    add_iterations s ~t0 (Array.to_list shards);
    if r.sr_env > 0 then Pstats.fail tally ~count:r.sr_env Pstats.Env_error;
    Some r
  | exception e ->
    info "stream seed %d raised %s" sd (Printexc.to_string e);
    Pstats.fail tally ~count:budget Pstats.Exception;
    None

(* Streams 0 .. [streams_for seconds] - 1, with [between ()] run before
   each stream at a {!setup_points} position. *)
let timed_streams ?(between = ignore) ~(jobs : int) ~(seed : int)
    ~(seconds : float) (s : samples) (tally : Pstats.tally) : stream list =
  let total = streams_for seconds in
  let points = setup_points total in
  let t0 = Mclock.now_s () and acc = ref [] and k = ref 0 in
  while !k < total && not (past_deadline ~t0 ~seconds) do
    if List.mem !k points then between ();
    Option.iter (fun r -> acc := r :: !acc)
      (timed_stream ~jobs s tally (sub_seed seed !k));
    incr k
  done;
  List.rev !acc

let sum_by f l = List.fold_left (fun a x -> a +. f x) 0. l
let sum_int f l = List.fold_left (fun a x -> a + f x) 0 l
let mean_by f l = sum_by f l /. float_of_int (max 1 (List.length l))
let wall_of streams = sum_by (fun r -> r.sr_wall) streams
let rate streams = float_of_int (sum_int (fun r -> r.sr_iters) streams) /. wall_of streams

(* the determinism check: stream 0 again must reproduce its digest *)
let repeat_check ~(jobs : int) (first : stream) (tally : Pstats.tally) : unit =
  let again = run_stream ~jobs ~iterations:budget first.sr_seed in
  let ok = again.sr_digest = first.sr_digest in
  info "campaign digest (seed %d, budget %d, jobs %d): %s, repeat %s"
    first.sr_seed budget jobs first.sr_digest
    (if ok then "identical" else "MISMATCH " ^ again.sr_digest);
  if not ok then Pstats.fail tally ~count:budget Pstats.Digest_mismatch

let campaign_workload ~(jobs : int) ~(seed : int) ~(seconds : float)
    (tally : Pstats.tally) : unit =
  (* set-up: heap and lazy tables warmed by a short fixed campaign *)
  let setups = ref [] in
  let warm_up () =
    let t0 = Mclock.now_s () in
    ignore (run_stream ~jobs ~iterations:warm_budget warm_seed : stream);
    setups := Mclock.elapsed_s ~since:t0 :: !setups
  in
  warm_up ();
  let s = samples () in
  let streams = timed_streams ~between:warm_up ~jobs ~seed ~seconds s tally in
  info "streams: %d x %d iterations, sub-seeds %d + 101k, %d jobs"
    (List.length streams) budget (sub_seed seed 0) jobs;
  info "set-ups (s): %s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setups));
  metric "setup_s" "s" (Pstats.median !setups)
    ~note:(Printf.sprintf "median of %d warm-ups" (List.length !setups));
  loop_metrics s ~ops:(sum_int (fun r -> r.sr_iters) streams)
    ~wall:(wall_of streams);
  (* not gated: the high-water mark follows the single costliest
     program of the run, and moved by a quarter between seeds *)
  info "  peak_rss_mb %.3f MB (benchmark process, not gated)" (vm_hwm_mb "self");
  metric "edges" "count" (mean_by (fun r -> float_of_int r.sr_edges) streams)
    ~note:"mean per stream";
  info "  bugs_found %.3f (mean distinct injected bugs per stream, not gated)"
    (mean_by (fun r -> float_of_int r.sr_bugs) streams);
  match streams with
  | first :: _ -> repeat_check ~jobs first tally
  | [] -> ()

(* -- Serve pool -------------------------------------------------------------- *)

type entry = {
  e_line : string;          (* request line *)
  e_req : Verifier.request; (* as the server parses it *)
  e_expected : string;      (* reference response, no cache field *)
  e_selftest : bool;
}

type pool = {
  pl_entries : entry array; (* in Zipf rank order *)
  pl_seq : int array;       (* the requests sent, as indices into entries *)
  pl_hash : string;         (* md5 of the request file *)
  pl_edges : int;           (* verifier edges over the reference pass *)
}

let serve_config = Kconfig.fixed version

(* decade of verifier effort: insn_processed < 10, < 100, < 1000,
   < 10000 (= max_effort), and the rest *)
let decade (p : int) : int =
  if p < 10 then 0 else if p < 100 then 1 else if p < 1000 then 2
  else if p < max_effort then 3 else 4

(* The generator share of the pool, screened once per run before the
   first set-up: each encodable candidate is verified on a throwaway
   session to learn its effort. *)
type screened = {
  sc_reqs : Verifier.request list; (* picked, in generator order *)
  sc_decades : int array;          (* encodable candidates per decade *)
  sc_candidates : int;
  sc_unencodable : int;
  sc_rest : int64;                 (* the seed's stream after screening *)
}

let screen (seed : int) : screened =
  let rng = Rng.create seed in
  let session = Service.create_session serve_config in
  let maps =
    List.map (fun (fd, m) -> (fd, m.Bvf_kernel.Map.def))
      session.Loader.kst.Kstate.maps
  in
  let gcfg = { Gen.c_version = version; c_maps = maps } in
  let decades = Array.make 5 0 and picked = ref [] and n = ref 0 in
  let candidates = ref 0 and unencodable = ref 0 in
  while !n < gen_programs && !candidates < max_candidates do
    incr candidates;
    let req = Gen.generate rng gcfg in
    match Service.request_to_json { Service.q_id = "x"; q_req = req } with
    | exception Invalid_argument _ -> incr unencodable
    | _ ->
      let effort = (Service.verify_request session req).Vcache.cv_insn_processed in
      let d = decade effort in
      decades.(d) <- decades.(d) + 1;
      if effort < max_effort then (picked := req :: !picked; incr n)
  done;
  if !n < gen_programs then failwith "serve pool: too few generator programs";
  { sc_reqs = List.rev !picked; sc_decades = decades;
    sc_candidates = !candidates; sc_unencodable = !unencodable;
    sc_rest = Rng.state rng }

(* The timed part of the pool build: the reference verdicts, the rank
   order, the sequence and the request file (pool lines, then the
   sequence as pool indices) written to [out_dir].  The seed alone
   determines all of it, through [sc].  Ranks are stratified: the
   self-tests and each effort decade of the generator programs are
   spread evenly over the rank range, so the share of costly programs
   among hot and cold ranks does not hang on one shuffle. *)
let build_pool ~(seed : int) ~(requests : int) ~(out_dir : string)
    (sc : screened) : pool =
  let suite = Selftests.build version in
  (* references: the server's own parse of each line, verified on a
     fresh session *)
  let refs = Service.create_session serve_config in
  let config_fp, maps_fp = Service.fingerprints refs in
  let make ~id ~selftest (req : Verifier.request) : int * entry =
    let line = Service.request_to_json { Service.q_id = id; q_req = req } in
    let req =
      match Service.request_of_json line with
      | Ok q -> q.Service.q_req
      | Error msg -> failwith ("pool request does not parse: " ^ msg)
    in
    let key = Vcache.key ~config_fp ~maps_fp req in
    let v = Service.verify_request refs req in
    ( decade v.Vcache.cv_insn_processed,
      { e_line = line; e_req = req; e_selftest = selftest;
        e_expected = Service.response_to_json ~id ~key v } )
  in
  let selftests =
    List.mapi
      (fun i req -> snd (make ~id:(Printf.sprintf "st-%04d" i) ~selftest:true req))
      suite.Selftests.requests
  in
  let generated =
    List.mapi (fun i req -> make ~id:(Printf.sprintf "gen-%04d" i) ~selftest:false req)
      sc.sc_reqs
  in
  let classes =
    selftests
    :: List.init 4 (fun d ->
        List.filter_map (fun (d', e) -> if d' = d then Some e else None) generated)
  in
  let keyed =
    List.concat_map
      (fun members ->
         (* A class's members sorted by request length (what a hit costs
            to parse), taken in bit-reversal order from the median, so
            every stretch of ranks holds short and long requests alike
            and the hottest slot gets a median one; member j of the
            class lands at rank quantile (j + 1/2) / n.  The head of the
            Zipf draw then has the same make-up for every seed: with a
            random placement one 14 KB request at rank 1 halved a
            seed's throughput. *)
         let a =
           Array.of_list
             (List.stable_sort
                (fun x y -> compare (String.length x.e_line) (String.length y.e_line))
                members)
         in
         let n = Array.length a in
         Array.to_list
           (Array.mapi
              (fun j i ->
                 ((float_of_int j +. 0.5) /. float_of_int n, a.((i + (n / 2)) mod n)))
              (Pstats.spread_order n)))
      classes
  in
  let entries =
    keyed
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.map snd |> Array.of_list
  in
  let z = Pstats.zipf ~n:(Array.length entries) ~s:zipf_s in
  let rng = Rng.of_state sc.sc_rest in
  let seq = Array.init requests (fun _ -> Pstats.zipf_draw z rng) in
  let b = Buffer.create (1 lsl 20) in
  Array.iter (fun e -> Buffer.add_string b e.e_line; Buffer.add_char b '\n')
    entries;
  Array.iter (fun i -> Printf.bprintf b "%d\n" i) seq;
  let text = Buffer.contents b in
  let oc =
    open_out_bin (Filename.concat out_dir (Printf.sprintf "serve-%d.txt" seed))
  in
  output_string oc text;
  close_out oc;
  { pl_entries = entries; pl_seq = seq;
    pl_hash = Digest.to_hex (Digest.string text);
    pl_edges = Coverage.edge_count refs.Loader.cov }

let print_screening (sc : screened) : unit =
  let all = Array.fold_left ( + ) 0 sc.sc_decades in
  let share d = 100. *. float_of_int sc.sc_decades.(d) /. float_of_int (max 1 all) in
  info "serve screening: %d generator candidates, %d unencodable; effort decades <10 %.1f%%, <100 %.1f%%, <1000 %.1f%%, <10000 %.1f%%, >=10000 %.1f%% (left out: %d)"
    sc.sc_candidates sc.sc_unencodable (share 0) (share 1) (share 2) (share 3)
    (share 4) sc.sc_decades.(4)

(* -- The bvf serve child ----------------------------------------------------- *)

type server = { sv_pid : int; sv_oc : out_channel; sv_ic : in_channel }

let spawn_server (bvf : string) : server =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process bvf
      [| bvf; "serve"; "--cache-size"; string_of_int cache_cap |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { sv_pid = pid; sv_oc = Unix.out_channel_of_descr in_w;
    sv_ic = Unix.in_channel_of_descr out_r }

let ask (sv : server) (line : string) : string option =
  output_string sv.sv_oc line;
  output_char sv.sv_oc '\n';
  flush sv.sv_oc;
  try Some (input_line sv.sv_ic) with End_of_file -> None

(* close the request pipe and reap the child; true on a clean exit *)
let stop_server (sv : server) : bool =
  (try close_out sv.sv_oc with Sys_error _ -> ());
  (try while true do ignore (input_line sv.sv_ic) done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr sv.sv_ic;
  match Unix.waitpid [] sv.sv_pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let kill_server (sv : server) : unit =
  (try Unix.kill sv.sv_pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (stop_server sv : bool)

let stop_cleanly (sv : server) : unit =
  if not (stop_server sv) then failwith "bvf serve did not exit cleanly"

(* run [f] against a live server; the server is reaped either way *)
let using (sv : server) (f : server -> 'a) : 'a =
  match f sv with
  | v -> stop_cleanly sv; v
  | exception e -> kill_server sv; raise e

(* the server-side metrics snapshot *)
let server_metrics (sv : server) : (string * Telemetry.jvalue) list =
  match ask sv "{\"metrics\":true,\"id\":\"bench\"}" with
  | Some line -> (try Telemetry.parse_object line with Telemetry.Parse -> [])
  | None -> []

let num (fields : (string * Telemetry.jvalue) list) (k : string) : float =
  match List.assoc_opt k fields with
  | Some (Telemetry.Jnum f) -> f
  | _ -> nan

(* Closed loop through the first [requests_for seconds] requests of the
   sequence: one request in flight, the next written only after the
   previous response line was read.  Latency is client-side, write to
   read.  The loop runs in segments split at the {!setup_points}, with
   [between ()] run between two segments, untimed.  Returns the wall
   time of the segments. *)
let closed_loop ?(between = ignore) (sv : server) (pool : pool)
    ~(seconds : float) (s : samples) (tally : Pstats.tally) : float =
  let entries = pool.pl_entries in
  let first = Array.make (Array.length entries) None in
  let n = min (requests_for seconds) (Array.length pool.pl_seq) in
  let start = Mclock.now_s () in
  let i = ref 0 and stop = ref false and wall = ref 0. in
  let segment upto =
    let done_ = Fbuf.create () in
    let t0 = Mclock.now_s () in
    (try
       while !i < upto && not !stop do
         if !i land 1023 = 0 && past_deadline ~t0:start ~seconds then stop := true
         else begin
           let idx = pool.pl_seq.(!i) in
           incr i;
           let e = entries.(idx) in
           let sent = Mclock.now_s () in
           let resp = ask sv e.e_line in
           let now = Mclock.now_s () in
           Fbuf.add s.lat ((now -. sent) *. 1e3);
           Fbuf.add done_ now;
           Pstats.attempt tally 1;
           match
             Pstats.check_response ~expected:e.e_expected ~first:first.(idx)
               ~accepted:e.e_selftest resp
           with
           | Ok stripped -> if first.(idx) = None then first.(idx) <- Some stripped
           | Error Pstats.No_response ->
             Pstats.fail tally Pstats.No_response;
             raise Exit
           | Error k -> Pstats.fail tally k
         end
       done
     with Exit | Sys_error _ -> stop := true);
    add_rates s ~t0 (Fbuf.to_array done_);
    wall := !wall +. Mclock.elapsed_s ~since:t0
  in
  List.iter (fun p -> segment p; if not !stop then between ()) (setup_points n);
  segment n;
  !wall

let serve_workload ~(bvf : string) ~(seed : int) ~(seconds : float)
    ~(out_dir : string) (tally : Pstats.tally) : unit =
  let requests = requests_for seconds in
  let sc = screen seed in
  (* set-up: references, request file, then a server up to its first
     response; the first server is the measured one, later set-ups stop
     theirs *)
  let times = ref [] in
  let setup () =
    let t0 = Mclock.now_s () in
    let pool = build_pool ~seed ~requests ~out_dir sc in
    let sv = spawn_server bvf in
    match ask sv "{\"metrics\":true,\"id\":\"ping\"}" with
    | None -> kill_server sv; failwith "bvf serve gave no first response"
    | Some _ -> times := Mclock.elapsed_s ~since:t0 :: !times; (pool, sv)
  in
  let pool, sv = setup () in
  using sv (fun sv ->
      print_screening sc;
      info "serve pool: %d programs (%d self-tests, %d generator programs), cache cap %d, zipf s=%g, sequence of %d requests"
        (Array.length pool.pl_entries) (Array.length pool.pl_entries - gen_programs)
        gen_programs cache_cap zipf_s requests;
      info "serve request file md5 %s" pool.pl_hash;
      let s = samples () in
      let between () = stop_cleanly (snd (setup ())) in
      let wall = closed_loop ~between sv pool ~seconds s tally in
      let rss = vm_hwm_mb (string_of_int sv.sv_pid) in
      let m = server_metrics sv in
      info "server: %.0f requests, %.0f hits, %.0f misses, verify p50 %.3f ms p95 %.3f ms"
        (num m "requests") (num m "cache_hits") (num m "cache_misses")
        (num m "verify_p50_s" *. 1e3) (num m "verify_p95_s" *. 1e3);
      info "set-ups (s): %s"
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
      metric "setup_s" "s" (Pstats.median !times)
        ~note:(Printf.sprintf "median of %d set-ups" (List.length !times));
      loop_metrics s ~ops:s.lat.Fbuf.n ~wall;
      info "  req_per_s is progs_per_s here: one program per request";
      info "  peak_rss_mb %.3f MB (bvf serve child, not gated)" rss;
      metric "edges" "count" (float_of_int pool.pl_edges)
        ~note:"verifier edges over the pool")

(* -- Traced run ---------------------------------------------------------------- *)

(* Per-layer numbers, timed around calls into each layer's public
   functions.  Every layer is measured on every workload; the gc.*
   metrics cover the section that matches --workload. *)

let top_share (sorted : float array) : float =
  let n = Array.length sorted in
  let k = max 1 (n / 100) in
  let top = ref 0. and all = ref 0. in
  Array.iteri
    (fun i x -> all := !all +. x; if i >= n - k then top := !top +. x)
    sorted;
  if !all > 0. then !top /. !all else 0.

let per (total : float) (n : int) : float = total /. float_of_int (max 1 n)

(* Replay of a captured request stream through the load path exactly as
   Campaign.step drives it (fresh session with the campaign's standard
   maps, reboot on fatal reports), each layer call timed. *)
type replay = {
  mutable rp_calls : int;
  mutable rp_accepted : int;
  rp_verify : Fbuf.t;            (* seconds, sanitation excluded *)
  mutable rp_verify_w : float;
  mutable rp_insn_processed : int;
  mutable rp_total_states : int;
  mutable rp_peak_states : int;
  mutable rp_prune_hits : int;
  mutable rp_prune_misses : int;
  mutable rp_widen : int;
  mutable rp_san_s : float;
  mutable rp_san_w : float;
  mutable rp_insns_post : int;
  mutable rp_insns_pre : int;
  mutable rp_exec_s : float;
  mutable rp_exec_w : float;
  mutable rp_exec_insns : int;
  mutable rp_oracle_s : float;
  mutable rp_findings : int;
}

let new_replay () : replay =
  { rp_calls = 0; rp_accepted = 0; rp_verify = Fbuf.create ();
    rp_verify_w = 0.; rp_insn_processed = 0; rp_total_states = 0;
    rp_peak_states = 0; rp_prune_hits = 0; rp_prune_misses = 0;
    rp_widen = 0; rp_san_s = 0.; rp_san_w = 0.; rp_insns_post = 0;
    rp_insns_pre = 0; rp_exec_s = 0.; rp_exec_w = 0.; rp_exec_insns = 0;
    rp_oracle_s = 0.; rp_findings = 0 }

let replay_stream (r : replay) (tr : Prof.t) (reqs : Verifier.request list) :
  unit =
  let boot cov =
    let s = Loader.create ~cov campaign_config in
    ignore (Campaign.standard_maps s : (int * Bvf_kernel.Map.def) list);
    s
  in
  let one (session : Loader.t ref) (cov : Coverage.t) (req : Verifier.request) =
    let s = !session in
    let kst = s.Loader.kst in
    let baseline = Kstate.report_count kst in
    let fr = Prof.start tr "verify" in
    let verdict, vlog, vstats = Verifier.load_with_stats kst ~cov req in
    (match verdict with
     | Ok p ->
       Prof.record tr ~name:"sanitize" ~dur_s:p.Verifier.l_sanitize_s
         ~minor_w:p.Verifier.l_sanitize_w ()
     | Error _ -> ());
    let v_s, v_w = Prof.stop tr fr in
    r.rp_calls <- r.rp_calls + 1;
    (match vstats with
     | Some v ->
       r.rp_insn_processed <- r.rp_insn_processed + v.Vstats.vs_insn_processed;
       r.rp_total_states <- r.rp_total_states + v.Vstats.vs_total_states;
       r.rp_peak_states <- max r.rp_peak_states v.Vstats.vs_peak_states;
       r.rp_prune_hits <- r.rp_prune_hits + v.Vstats.vs_prune_hits;
       r.rp_prune_misses <- r.rp_prune_misses + v.Vstats.vs_prune_misses;
       r.rp_widen <- r.rp_widen + v.Vstats.vs_widen_rounds
     | None -> ());
    let reports () =
      List.filteri (fun i _ -> i >= baseline) (Kstate.peek_reports kst)
    in
    let result =
      match verdict with
      | Error e ->
        Fbuf.add r.rp_verify v_s;
        r.rp_verify_w <- r.rp_verify_w +. v_w;
        { Loader.verdict = Error e; status = None; reports = reports ();
          insns_executed = 0; witness = []; verify_s = v_s; sanitize_s = 0.;
          exec_s = 0.; verify_w = v_w; sanitize_w = 0.; exec_w = 0.; vlog;
          vstats }
      | Ok p ->
        let san_s = p.Verifier.l_sanitize_s and san_w = p.Verifier.l_sanitize_w in
        Fbuf.add r.rp_verify (v_s -. san_s);
        r.rp_verify_w <- r.rp_verify_w +. Float.max 0. (v_w -. san_w);
        r.rp_accepted <- r.rp_accepted + 1;
        r.rp_san_s <- r.rp_san_s +. san_s;
        r.rp_san_w <- r.rp_san_w +. san_w;
        r.rp_insns_post <- r.rp_insns_post + Array.length p.Verifier.l_insns;
        r.rp_insns_pre <- r.rp_insns_pre + p.Verifier.l_orig_len;
        Loader.attach s p;
        let fr = Prof.start tr "exec" in
        let x = Loader.execute s p in
        let e_s, e_w = Prof.stop tr fr in
        let executed = x.Bvf_runtime.Exec.insns_executed in
        r.rp_exec_s <- r.rp_exec_s +. e_s;
        r.rp_exec_w <- r.rp_exec_w +. e_w;
        r.rp_exec_insns <- r.rp_exec_insns + executed;
        { Loader.verdict = Ok p; status = Some x.Bvf_runtime.Exec.status;
          reports = reports (); insns_executed = executed;
          witness = x.Bvf_runtime.Exec.witness; verify_s = v_s -. san_s;
          sanitize_s = san_s; exec_s = e_s; verify_w = v_w;
          sanitize_w = san_w; exec_w = e_w; vlog; vstats }
    in
    let fr = Prof.start tr "oracle" in
    let findings = Oracle.classify campaign_config result in
    let o_s, _ = Prof.stop tr fr in
    r.rp_oracle_s <- r.rp_oracle_s +. o_s;
    r.rp_findings <- r.rp_findings + List.length findings;
    if List.exists Campaign.is_fatal result.Loader.reports then
      session := boot cov
    else Bvf_kernel.Kmem.compact kst.Kstate.mem
  in
  let cov = Coverage.create () in
  let session = ref (boot cov) in
  List.iter (one session cov) reqs

(* The serve sequence in process, under the same cache cap: every call
   the serve loop makes per request, timed. *)
type serve_replay = {
  mutable sr_n : int;
  mutable sr_parse : float;
  mutable sr_key : float;
  mutable sr_find : float;
  mutable sr_insert : float;
  mutable sr_inserts : int;
  mutable sr_encode : float;
  sr_cache : Vcache.t;
}

let replay_serve (pool : pool) (tally : Pstats.tally) :
  serve_replay =
  let r =
    { sr_n = 0; sr_parse = 0.; sr_key = 0.; sr_find = 0.; sr_insert = 0.;
      sr_inserts = 0; sr_encode = 0.; sr_cache = Vcache.create ~cap:cache_cap }
  in
  let session = Service.create_session serve_config in
  let config_fp, maps_fp = Service.fingerprints session in
  let replay_one idx =
    let e = pool.pl_entries.(idx) in
    Pstats.attempt tally 1;
    let t0 = Mclock.now_s () in
    let q =
      match Service.request_of_json e.e_line with
      | Ok q -> q
      | Error msg -> failwith msg
    in
    let t1 = Mclock.now_s () in
    let key = Vcache.key ~config_fp ~maps_fp q.Service.q_req in
    let t2 = Mclock.now_s () in
    let found = Vcache.find r.sr_cache key in
    let t3 = Mclock.now_s () in
    let v, hit =
      match found with
      | Some v -> (v, true)
      | None ->
        let v = Service.verify_request session q.Service.q_req in
        let t = Mclock.now_s () in
        Vcache.insert r.sr_cache key v;
        r.sr_insert <- r.sr_insert +. (Mclock.now_s () -. t);
        r.sr_inserts <- r.sr_inserts + 1;
        (v, false)
    in
    let t4 = Mclock.now_s () in
    let line = Service.response_to_json ~id:q.Service.q_id ~key ~hit v in
    r.sr_encode <- r.sr_encode +. (Mclock.now_s () -. t4);
    r.sr_parse <- r.sr_parse +. (t1 -. t0);
    r.sr_key <- r.sr_key +. (t2 -. t1);
    r.sr_find <- r.sr_find +. (t3 -. t2);
    r.sr_n <- r.sr_n + 1;
    if fst (Pstats.strip_cache line) <> e.e_expected then
      Pstats.fail tally Pstats.Wrong_verdict
  in
  Array.iter replay_one pool.pl_seq;
  r

let traced_run ~(workload : string) ~(bvf : string) ~(seed : int)
    ~(seconds : float) ~(out_dir : string) (tally : Pstats.tally) : unit =
  let ps = Prof.session () in
  let tr = Prof.track ps ~name:"bench" 0 in
  let tc = Prof.track ps ~name:"campaign" 1 in
  ignore (run_stream ~jobs:1 ~iterations:warm_budget warm_seed : stream);
  (* Campaign streams, each run three times back to back, so machine
     speed drifts alike for all three: untraced (the base of overhead and
     speedup) and traced (generation wrapped with the same RNG draws, so
     the digest must not move; Campaign.run handed a profiler track;
     requests captured), in alternating order since a stream's second run
     finds the heap grown, then the captured requests replayed layer by
     layer. *)
  let gen_calls = ref 0 and gen_s = ref 0. and gen_w = ref 0. in
  let gen_insns = ref 0 and captured = ref [] in
  let strategy =
    { Campaign.bvf_strategy with
      Campaign.s_generate =
        (fun rng cfg seed_req ->
           let w0 = Gc.minor_words () and t0 = Mclock.now_s () in
           let req = Campaign.bvf_strategy.Campaign.s_generate rng cfg seed_req in
           gen_s := !gen_s +. Mclock.elapsed_s ~since:t0;
           gen_w := !gen_w +. (Gc.minor_words () -. w0);
           incr gen_calls;
           gen_insns := !gen_insns + Array.length req.Verifier.r_insns;
           captured := req :: !captured;
           req) }
  in
  let wrap f = Prof.span tc "campaign" f in
  let base_s = samples () and base = ref [] and traced = ref [] in
  let rp = new_replay () in
  let gc_minor = ref 0 and gc_major = ref 0 and base_words = ref 0. in
  let k = ref 0 in
  while !k < streams_for (seconds /. 8.) do
    let sd = sub_seed seed !k in
    incr k;
    let run_untraced () =
      let g0 = Gc.quick_stat () in
      let b = timed_stream ~jobs:1 base_s tally sd in
      let g1 = Gc.quick_stat () in
      gc_minor := !gc_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
      gc_major := !gc_major + g1.Gc.major_collections - g0.Gc.major_collections;
      base_words := !base_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
      b
    and run_traced () =
      captured := [];
      timed_stream ~strategy ~prof:tc ~wrap ~jobs:1 (samples ()) tally sd
    in
    let b, t =
      if !k land 1 = 1 then let b = run_untraced () in (b, run_traced ())
      else let t = run_traced () in (run_untraced (), t)
    in
    replay_stream rp tr (List.rev !captured);
    match b, t with
    | Some b, Some t ->
      if b.sr_digest <> t.sr_digest then
        Pstats.fail tally ~count:budget Pstats.Digest_mismatch;
      base := b :: !base;
      traced := t :: !traced
    | _ -> ()
  done;
  let base = List.rev !base and traced = List.rev !traced in
  let n = List.length base in
  if workload = "campaign" then gc_metrics ~minor:!gc_minor ~major:!gc_major;
  let campaign_accepted = sum_int (fun r -> r.sr_accepted) traced in
  info "replay: %d programs, %d accepted (campaign accepted %d)" rp.rp_calls
    rp.rp_accepted campaign_accepted;
  if rp.rp_accepted <> campaign_accepted then
    Pstats.fail tally Pstats.Wrong_verdict;
  (* 4. the same streams through Parallel.run ~jobs:2, per-shard busy
     time from on_step timestamps *)
  let gc_par = Gc.quick_stat () in
  let shard_busy = [| 0.; 0. |] and max_sum = ref 0. and mean_sum = ref 0. in
  let join_merge = ref 0. in
  let par =
    List.map
      (fun b ->
         let last = [| 0.; 0. |] in
         let t0 = Mclock.now_s () in
         let r =
           run_stream ~on_step:(fun sh _ -> last.(sh) <- Mclock.now_s ())
             ~jobs:2 ~iterations:budget b.sr_seed
         in
         let t1 = Mclock.now_s () in
         let busy = Array.map (fun l -> l -. t0) last in
         Array.iteri (fun i s -> shard_busy.(i) <- shard_busy.(i) +. s) busy;
         max_sum := !max_sum +. Float.max busy.(0) busy.(1);
         mean_sum := !mean_sum +. ((busy.(0) +. busy.(1)) /. 2.);
         join_merge := !join_merge +. (t1 -. Float.max last.(0) last.(1));
         r)
      base
  in
  if workload = "campaign-jobs2" then gc_since gc_par;
  (* 5. serve: the pool, the sequence in process under the same cap, the
     distinct programs once more, then the real server and its metrics *)
  let pool =
    build_pool ~seed ~requests:(requests_for (seconds /. 8.)) ~out_dir (screen seed)
  in
  let gc_serve = Gc.quick_stat () in
  let t_serve = Mclock.now_s () in
  let sv_rp = replay_serve pool tally in
  Prof.record tr ~name:"serve-replay" ~dur_s:(Mclock.elapsed_s ~since:t_serve) ();
  if workload = "serve-zipf" then gc_since gc_serve;
  let cs = Vcache.stats sv_rp.sr_cache in
  let serve_verify = Fbuf.create () in
  let fresh = Service.create_session serve_config in
  Array.iter
    (fun e ->
       let t0 = Mclock.now_s () in
       ignore (Service.verify_request fresh e.e_req : Vcache.verdict);
       Fbuf.add serve_verify (Mclock.now_s () -. t0))
    pool.pl_entries;
  let server, server_rss =
    using (spawn_server bvf) (fun sv ->
        ignore (closed_loop sv pool ~seconds:(seconds /. 8.) (samples ()) tally
                : float);
        (server_metrics sv, vm_hwm_mb (string_of_int sv.sv_pid)))
  in
  (* report *)
  let base_rate = rate base and traced_rate = rate traced in
  let par_rate = rate par in
  info "campaign: %d streams x %d, untraced %.1f progs/s, traced %.1f progs/s, jobs 2 %.1f progs/s (mean throughput)"
    n budget base_rate traced_rate par_rate;
  metric "gen.calls" "count" (float_of_int !gen_calls);
  metric "gen.ns_per_prog" "ns" (per (!gen_s *. 1e9) !gen_calls);
  metric "gen.minor_words_per_prog" "words" (per !gen_w !gen_calls);
  metric "gen.insns_per_prog" "insns" (per (float_of_int !gen_insns) !gen_calls);
  let vsorted = Fbuf.sorted [ rp.rp_verify ] in
  let v_total = Fbuf.sum rp.rp_verify in
  let spans = Prof.spans ps in
  let major =
    List.fold_left
      (fun a sp ->
         if sp.Prof.sp_track = 0 && sp.Prof.sp_name = "verify" then
           a +. sp.Prof.sp_major_w
         else a)
      0. spans
  in
  metric "verifier.calls" "count" (float_of_int rp.rp_calls);
  metric "verifier.ns_per_insn" "ns" (per (v_total *. 1e9) rp.rp_insn_processed);
  pct_metric "verifier.p50_us" "us" 1e6 vsorted 50;
  tail_metric "verifier.p99_ms" "ms" 1e3 vsorted;
  metric "verifier.max_ms" "ms" (Percentile.of_sorted vsorted 100 *. 1e3);
  metric "verifier.top1pct_share" "ratio" (top_share vsorted)
    ~note:"slowest 1% of verifications / all verify time";
  metric "verifier.minor_words_per_prog" "words" (per rp.rp_verify_w rp.rp_calls);
  metric "verifier.major_words_per_prog" "words" (per major rp.rp_calls);
  metric "verifier.insn_processed" "insns" (float_of_int rp.rp_insn_processed);
  metric "verifier.total_states" "count" (float_of_int rp.rp_total_states);
  metric "verifier.peak_states_max" "count" (float_of_int rp.rp_peak_states);
  metric "verifier.prune_hit_ratio" "ratio"
    (per (float_of_int rp.rp_prune_hits) (rp.rp_prune_hits + rp.rp_prune_misses));
  metric "verifier.widen_rounds" "count" (float_of_int rp.rp_widen);
  metric "verifier.accept_ratio" "ratio"
    (per (float_of_int rp.rp_accepted) rp.rp_calls);
  let sv_sorted = Fbuf.sorted [ serve_verify ] in
  pct_metric "verifier.serve_p50_us" "us" 1e6 sv_sorted 50;
  tail_metric "verifier.serve_tail_ms" "ms" 1e3 sv_sorted;
  metric "sanitize.ns_per_prog" "ns" (per (rp.rp_san_s *. 1e9) rp.rp_accepted);
  metric "sanitize.minor_words_per_prog" "words" (per rp.rp_san_w rp.rp_accepted);
  metric "sanitize.insn_footprint" "ratio"
    (per (float_of_int rp.rp_insns_post) rp.rp_insns_pre)
    ~note:"post-rewrite / pre-rewrite instructions";
  metric "exec.calls" "count" (float_of_int rp.rp_accepted);
  metric "exec.ns_per_insn" "ns" (per (rp.rp_exec_s *. 1e9) rp.rp_exec_insns);
  metric "exec.minor_words_per_run" "words" (per rp.rp_exec_w rp.rp_accepted);
  metric "exec.insns_per_run" "insns"
    (per (float_of_int rp.rp_exec_insns) rp.rp_accepted);
  metric "oracle.ns_per_call" "ns" (per (rp.rp_oracle_s *. 1e9) rp.rp_calls);
  metric "oracle.findings" "count" (float_of_int rp.rp_findings);
  let iters = Fbuf.sorted [ base_s.lat ] in
  pct_metric "campaign.iter_p50_us" "us" 1e3 iters 50;
  tail_metric "campaign.iter_p99_ms" "ms" 1. iters;
  metric "campaign.minor_words_per_insn" "words"
    (per !base_words (sum_int (fun r -> r.sr_insn_processed) base));
  metric "campaign.reboots" "count" (float_of_int (sum_int (fun r -> r.sr_reboots) base));
  metric "campaign.corpus_size" "count" (mean_by (fun r -> float_of_int r.sr_corpus) base)
    ~note:"mean final corpus entries per stream";
  metric "campaign.bugs_found" "count" (mean_by (fun r -> float_of_int r.sr_bugs) base)
    ~note:"mean distinct injected bugs per stream";
  metric "parallel.shard_s_max" "s" (Float.max shard_busy.(0) shard_busy.(1));
  metric "parallel.shard_s_min" "s" (Float.min shard_busy.(0) shard_busy.(1));
  metric "parallel.imbalance" "ratio" (!max_sum /. !mean_sum)
    ~note:"per stream: slowest shard / mean shard, summed";
  metric "parallel.join_merge_s" "s" !join_merge
    ~note:"last shard step to Parallel.run's return, summed";
  metric "parallel.speedup_vs_jobs1" "ratio" (par_rate /. base_rate);
  metric "vcache.key_us" "us" (per (sv_rp.sr_key *. 1e6) sv_rp.sr_n);
  metric "vcache.find_us" "us" (per (sv_rp.sr_find *. 1e6) sv_rp.sr_n);
  metric "vcache.insert_us" "us" (per (sv_rp.sr_insert *. 1e6) sv_rp.sr_inserts);
  metric "vcache.hit_ratio" "ratio"
    (per (float_of_int cs.Vcache.cs_hits) (cs.Vcache.cs_hits + cs.Vcache.cs_misses));
  metric "vcache.evictions" "count" (float_of_int cs.Vcache.cs_evictions);
  metric "service.parse_us" "us" (per (sv_rp.sr_parse *. 1e6) sv_rp.sr_n);
  metric "service.encode_us" "us" (per (sv_rp.sr_encode *. 1e6) sv_rp.sr_n);
  metric "service.verify_p50_ms" "ms" (num server "verify_p50_s" *. 1e3)
    ~note:(Printf.sprintf "server-side, n=%.0f misses" (num server "verify_count"));
  metric "service.verify_p95_ms" "ms" (num server "verify_p95_s" *. 1e3);
  metric "service.peak_rss_mb" "MB" server_rss
    ~note:"bvf serve child's high-water mark";
  metric "trace.overhead" "ratio" (base_rate /. traced_rate)
    ~note:"untraced / traced campaign progs_per_s, same streams";
  (* Attribution inside the traced campaign itself: the self times of the
     phase spans Campaign.run records on its profiler track, plus the
     oracle at the replay's cost per call (it runs in no span). *)
  let aggs =
    Prof.aggregate (List.filter (fun sp -> sp.Prof.sp_track = 1) spans)
  in
  let self name =
    match List.find_opt (fun a -> a.Prof.ag_name = name) aggs with
    | Some a -> a.Prof.ag_self_s
    | None -> 0.
  in
  let wall =
    match List.find_opt (fun a -> a.Prof.ag_name = "campaign") aggs with
    | Some a -> a.Prof.ag_total_s
    | None -> nan
  in
  let oracle_s =
    per rp.rp_oracle_s rp.rp_calls
    *. float_of_int (sum_int (fun r -> r.sr_iters) traced)
  in
  let phases =
    [ ("gen", self "gen"); ("verify", self "verify");
      ("sanitize", self "sanitize"); ("exec", self "exec");
      ("oracle", oracle_s) ]
  in
  let attributed = sum_by snd phases in
  info "campaign wall %.3f s: %s, unattributed %.1f%%" wall
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s %.1f%%" k (100. *. v /. wall))
          phases))
    (100. *. (wall -. attributed) /. wall);
  metric "trace.attributed_share" "ratio" (attributed /. wall)
    ~note:"gen + verify + sanitize + exec + oracle self time / campaign wall";
  metric "trace.unattributed_share" "ratio" (1. -. (attributed /. wall));
  let path =
    Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed)
  in
  Prof.write_chrome path ~tracks:(Prof.tracks ps) (Prof.spans ps);
  info "spans written to %s" path

(* -- Command line ---------------------------------------------------------------- *)

let workloads = [ "campaign"; "campaign-jobs2"; "serve-zipf" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and bvf = ref "" and out_dir = ref "perfbench/out" in
  let commit = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: per-layer traced run");
      ("--bvf", Arg.Set_string bvf, " path of the built bvf executable");
      ("--out", Arg.Set_string out_dir, " directory for run artifacts");
      ("--commit", Arg.Set_string commit, " source revision, for the record") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --bvf PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !seed < 0 || !seconds <= 0. then begin
    prerr_endline "--seed must be >= 0 and --seconds > 0";
    exit 2
  end;
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  (* a server that dies mid-run must fail a request, not kill the client *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  info "run: workload %s seed %d seconds %g trace %d" !workload !seed !seconds
    !trace;
  info "record: nproc %d, ocaml %s, commit %s, campaign budget %d iterations/stream, warm-up %d, serve cache %d, set-ups %d, throughput window %d"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !commit budget
    warm_budget cache_cap setup_reps window;
  let tally = Pstats.tally () in
  (* a failed check still yields a result (correct = false); a crash
     yields none and a nonzero exit *)
  (try
     match !trace, !workload with
     | 1, w ->
       traced_run ~workload:w ~bvf:!bvf ~seed:!seed ~seconds:!seconds
         ~out_dir:!out_dir tally
     | _, "serve-zipf" ->
       serve_workload ~bvf:!bvf ~seed:!seed ~seconds:!seconds
         ~out_dir:!out_dir tally
     | _, "campaign-jobs2" ->
       campaign_workload ~jobs:2 ~seed:!seed ~seconds:!seconds tally
     | _ -> campaign_workload ~jobs:1 ~seed:!seed ~seconds:!seconds tally
   with e ->
     print_failures tally;
     prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
     exit 1);
  print_failures tally;
  print_result tally
