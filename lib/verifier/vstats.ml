(* Verifier performance counters: the per-program statistics the real
   kernel exposes after BPF_PROG_LOAD (insn_processed, total_states,
   peak_states, ... — the numbers `veristat` diffs across kernel
   versions), mirrored for the simulated verifier.

   One [t] lives in the verification environment (Venv) and is bumped
   by the analysis loop; it is purely deterministic — a pure function
   of (program, config) — so campaigns may fold counters into their
   digests.  Wall-clock verification time deliberately lives OUTSIDE
   this record (Loader.run_result.verify_s, the veristat CLI's
   per-program timer): times are real observations, never part of a
   deterministic identity.

   [agg] is the campaign-side aggregate: totals, maxima and log2
   histograms over every analyzed program, merged across parallel
   shards exactly like coverage. *)

type t = {
  mutable vs_insn_processed : int;
      (* instructions simulated across all paths (kernel
         insn_processed / the verifier's complexity measure) *)
  mutable vs_total_states : int;
      (* abstract states stored for pruning (kernel total_states) *)
  mutable vs_peak_states : int;
      (* high-water mark of live stored states — states whose subtree
         is still being explored (kernel peak_states) *)
  mutable vs_cur_states : int; (* bookkeeping for vs_peak_states *)
  mutable vs_max_states_per_insn : int;
      (* most states stored at a single pc (kernel max_states_per_insn) *)
  mutable vs_prune_hits : int;
      (* paths cut because an equal verified state existed *)
  mutable vs_prune_misses : int;
      (* pruning opportunities (jump targets reached) that found no
         matching state *)
  mutable vs_loops_detected : int;
      (* "infinite loop detected" rejections' trigger count *)
  mutable vs_branch_depth : int; (* bookkeeping for vs_branch_hwm *)
  mutable vs_branch_hwm : int;
      (* branch worklist high-water mark: the deepest the pending-path
         queue ever got *)
  mutable vs_widen_rounds : int;
      (* widening rounds applied at loop heads.  Deliberately NOT in
         [counters] (and so not in any digest or JSON table; traces
         carry it, see [trace_counters]):
         [counters] fixes the columns of the golden veristat.jsonl and
         of [pp], which adding it would move;
         [loops_detected] keeps its historical meaning (zero-progress
         infinite-loop rejections) untouched. *)
  mutable vs_loop_heads : int;
      (* back-edge targets in the program's CFG (also outside the
         frozen schema) *)
}

let zero () : t =
  {
    vs_insn_processed = 0;
    vs_total_states = 0;
    vs_peak_states = 0;
    vs_cur_states = 0;
    vs_max_states_per_insn = 0;
    vs_prune_hits = 0;
    vs_prune_misses = 0;
    vs_loops_detected = 0;
    vs_branch_depth = 0;
    vs_branch_hwm = 0;
    vs_widen_rounds = 0;
    vs_loop_heads = 0;
  }

(* -- Analysis-loop hooks ------------------------------------------------ *)

let count_insn (t : t) : int =
  t.vs_insn_processed <- t.vs_insn_processed + 1;
  t.vs_insn_processed

let state_stored (t : t) ~(at_insn : int) : unit =
  t.vs_total_states <- t.vs_total_states + 1;
  t.vs_cur_states <- t.vs_cur_states + 1;
  if t.vs_cur_states > t.vs_peak_states then
    t.vs_peak_states <- t.vs_cur_states;
  if at_insn > t.vs_max_states_per_insn then
    t.vs_max_states_per_insn <- at_insn

let state_done (t : t) : unit =
  t.vs_cur_states <- t.vs_cur_states - 1

let prune_hit (t : t) : unit = t.vs_prune_hits <- t.vs_prune_hits + 1
let prune_miss (t : t) : unit = t.vs_prune_misses <- t.vs_prune_misses + 1

let loop_detected (t : t) : unit =
  t.vs_loops_detected <- t.vs_loops_detected + 1

let widen_round (t : t) : unit =
  t.vs_widen_rounds <- t.vs_widen_rounds + 1

let loop_heads_seen (t : t) (n : int) : unit = t.vs_loop_heads <- n

let branch_pushed (t : t) : unit =
  t.vs_branch_depth <- t.vs_branch_depth + 1;
  if t.vs_branch_depth > t.vs_branch_hwm then
    t.vs_branch_hwm <- t.vs_branch_depth

let branch_popped (t : t) : unit =
  t.vs_branch_depth <- t.vs_branch_depth - 1

(* -- Reporting ---------------------------------------------------------- *)

(* Every counter a table or a trace carries, by name, in the one order
   every writer and reader uses: the frozen schema ([counters]: the
   columns of every veristat table, of [pp], of the digest-free golden
   veristat.jsonl), then the trace-only widening pair. *)
type field = { name : string; get : t -> int; set : t -> int -> unit }

let frozen : field list =
  [ { name = "insn_processed"; get = (fun t -> t.vs_insn_processed);
      set = (fun t v -> t.vs_insn_processed <- v) };
    { name = "total_states"; get = (fun t -> t.vs_total_states);
      set = (fun t v -> t.vs_total_states <- v) };
    { name = "peak_states"; get = (fun t -> t.vs_peak_states);
      set = (fun t v -> t.vs_peak_states <- v) };
    { name = "max_states_per_insn"; get = (fun t -> t.vs_max_states_per_insn);
      set = (fun t v -> t.vs_max_states_per_insn <- v) };
    { name = "prune_hits"; get = (fun t -> t.vs_prune_hits);
      set = (fun t v -> t.vs_prune_hits <- v) };
    { name = "prune_misses"; get = (fun t -> t.vs_prune_misses);
      set = (fun t v -> t.vs_prune_misses <- v) };
    { name = "loops_detected"; get = (fun t -> t.vs_loops_detected);
      set = (fun t v -> t.vs_loops_detected <- v) };
    { name = "branch_hwm"; get = (fun t -> t.vs_branch_hwm);
      set = (fun t v -> t.vs_branch_hwm <- v) } ]

let trace_only : field list =
  [ { name = "widen_rounds"; get = (fun t -> t.vs_widen_rounds);
      set = (fun t v -> t.vs_widen_rounds <- v) };
    { name = "loop_heads"; get = (fun t -> t.vs_loop_heads);
      set = (fun t v -> t.vs_loop_heads <- v) } ]

let listing (fields : field list) (t : t) : (string * int) list =
  List.map (fun f -> (f.name, f.get t)) fields

let counters : t -> (string * int) list = listing frozen
let trace_counters : t -> (string * int) list = listing (frozen @ trace_only)
let counter_names : string list = List.map (fun f -> f.name) frozen

(* Every frozen counter is required; a trace-only one absent reads as
   zero (the pair postdates the frozen schema). *)
let of_counters (find : string -> int option) : (t, string) result =
  let t = zero () in
  let read f =
    match find f.name with Some v -> f.set t v; true | None -> false
  in
  match List.find_opt (fun f -> not (read f)) frozen with
  | Some missing -> Error missing.name
  | None ->
    List.iter (fun f -> ignore (read f : bool)) trace_only;
    Ok t

let pp fmt (t : t) : unit =
  Format.fprintf fmt "%s"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s %d" k v)
          (counters t)))

(* -- Campaign aggregation ----------------------------------------------- *)

module Hist = Bvf_util.Hist

(* log2 histograms: bucket 0 holds value 0, bucket i>=1 holds values in
   [2^(i-1), 2^i), and bucket 30 everything from 2^29 up.  31 buckets
   cover every int the analysis can produce under the complexity limit
   with room to spare. *)
let log2_ladder : int array = Array.init 30 (fun i -> 1 lsl i)

type agg = {
  mutable ag_programs : int; (* programs whose analysis ran *)
  mutable ag_insn_processed : int;
  mutable ag_total_states : int;
  mutable ag_prune_hits : int;
  mutable ag_prune_misses : int;
  mutable ag_loops_detected : int;
  mutable ag_widen_rounds : int;
  mutable ag_loop_heads : int;
  mutable ag_peak_states_max : int;
  mutable ag_max_states_per_insn : int;
  mutable ag_branch_hwm_max : int;
  ag_hist_insn : Hist.t;  (* log2 histogram of insn_processed *)
  ag_hist_peak : Hist.t;  (* log2 histogram of peak_states *)
}

let agg_zero () : agg =
  {
    ag_programs = 0;
    ag_insn_processed = 0;
    ag_total_states = 0;
    ag_prune_hits = 0;
    ag_prune_misses = 0;
    ag_loops_detected = 0;
    ag_widen_rounds = 0;
    ag_loop_heads = 0;
    ag_peak_states_max = 0;
    ag_max_states_per_insn = 0;
    ag_branch_hwm_max = 0;
    ag_hist_insn = Hist.create log2_ladder;
    ag_hist_peak = Hist.create log2_ladder;
  }

let agg_add (a : agg) (t : t) : unit =
  a.ag_programs <- a.ag_programs + 1;
  a.ag_insn_processed <- a.ag_insn_processed + t.vs_insn_processed;
  a.ag_total_states <- a.ag_total_states + t.vs_total_states;
  a.ag_prune_hits <- a.ag_prune_hits + t.vs_prune_hits;
  a.ag_prune_misses <- a.ag_prune_misses + t.vs_prune_misses;
  a.ag_loops_detected <- a.ag_loops_detected + t.vs_loops_detected;
  a.ag_widen_rounds <- a.ag_widen_rounds + t.vs_widen_rounds;
  a.ag_loop_heads <- a.ag_loop_heads + t.vs_loop_heads;
  if t.vs_peak_states > a.ag_peak_states_max then
    a.ag_peak_states_max <- t.vs_peak_states;
  if t.vs_max_states_per_insn > a.ag_max_states_per_insn then
    a.ag_max_states_per_insn <- t.vs_max_states_per_insn;
  if t.vs_branch_hwm > a.ag_branch_hwm_max then
    a.ag_branch_hwm_max <- t.vs_branch_hwm;
  Hist.add a.ag_hist_insn t.vs_insn_processed;
  Hist.add a.ag_hist_peak t.vs_peak_states

(* Shard merge: totals and histograms sum, maxima take the max — the
   same associative fold coverage union performs on edges. *)
let agg_absorb (into : agg) (src : agg) : unit =
  into.ag_programs <- into.ag_programs + src.ag_programs;
  into.ag_insn_processed <- into.ag_insn_processed + src.ag_insn_processed;
  into.ag_total_states <- into.ag_total_states + src.ag_total_states;
  into.ag_prune_hits <- into.ag_prune_hits + src.ag_prune_hits;
  into.ag_prune_misses <- into.ag_prune_misses + src.ag_prune_misses;
  into.ag_loops_detected <-
    into.ag_loops_detected + src.ag_loops_detected;
  into.ag_widen_rounds <- into.ag_widen_rounds + src.ag_widen_rounds;
  into.ag_loop_heads <- into.ag_loop_heads + src.ag_loop_heads;
  if src.ag_peak_states_max > into.ag_peak_states_max then
    into.ag_peak_states_max <- src.ag_peak_states_max;
  if src.ag_max_states_per_insn > into.ag_max_states_per_insn then
    into.ag_max_states_per_insn <- src.ag_max_states_per_insn;
  if src.ag_branch_hwm_max > into.ag_branch_hwm_max then
    into.ag_branch_hwm_max <- src.ag_branch_hwm_max;
  Hist.absorb into.ag_hist_insn src.ag_hist_insn;
  Hist.absorb into.ag_hist_peak src.ag_hist_peak

(* Canonical digest lines: totals, maxima, then only the non-empty
   histogram buckets — every value deterministic, no wall times. *)
let agg_digest_lines (a : agg) : string list =
  let hist name h =
    List.map
      (fun (i, n) -> Printf.sprintf "vstats %s bucket %d %d" name i n)
      (Hist.buckets h)
  in
  Printf.sprintf
    "vstats programs %d insn_processed %d total_states %d prune %d/%d \
     loops %d widen %d heads %d peak_max %d per_insn_max %d \
     branch_hwm_max %d"
    a.ag_programs a.ag_insn_processed a.ag_total_states a.ag_prune_hits
    a.ag_prune_misses a.ag_loops_detected a.ag_widen_rounds
    a.ag_loop_heads a.ag_peak_states_max a.ag_max_states_per_insn
    a.ag_branch_hwm_max
  :: (hist "insn" a.ag_hist_insn @ hist "peak" a.ag_hist_peak)

let pp_agg fmt (a : agg) : unit =
  if a.ag_programs > 0 then
    Format.fprintf fmt
      "  verifier: %d programs analyzed, %d insns processed, %d states \
       (peak %d, max %d/insn), prune %d hits / %d misses, %d loops, \
       %d widen rounds over %d loop heads, branch queue depth <= %d@."
      a.ag_programs a.ag_insn_processed a.ag_total_states
      a.ag_peak_states_max a.ag_max_states_per_insn a.ag_prune_hits
      a.ag_prune_misses a.ag_loops_detected a.ag_widen_rounds
      a.ag_loop_heads a.ag_branch_hwm_max
