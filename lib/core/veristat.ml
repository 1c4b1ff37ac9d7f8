open Cimport

(* The kernel-veristat workflow over the simulated verifier: run a named
   program set (the selftest corpus, or a generated batch) through
   BPF_PROG_LOAD, record each program's performance counters, emit the
   table as text or JSONL, and diff two tables with a regression gate.

   Determinism: every counter in a row is a pure function of (program,
   kernel version), so two runs over the same corpus produce identical
   tables except for [vr_time_s] — which is therefore excluded from
   comparisons and from any digest use of the JSON. *)

type row = {
  vr_name : string;         (* selftest-0007 / gen-0007 *)
  vr_prog_type : string;
  vr_insns : int;           (* pre-rewrite instruction count *)
  vr_verdict : string;      (* "ok" or the errno name *)
  vr_stats : Bvf_verifier.Vstats.t;
  vr_time_s : float;        (* wall time of the load; never compared *)
}

type table = {
  vt_kernel : string;       (* version the corpus ran under *)
  vt_rows : row list;       (* in corpus order *)
}

(* -- Running ------------------------------------------------------------ *)

let load_row (session : Loader.t) ~(name : string)
    (req : Verifier.request) : row =
  let t0 = Bvf_util.Mclock.now_s () in
  let verdict, _log, vstats =
    Verifier.load_with_stats session.Loader.kst ~cov:session.Loader.cov
      req
  in
  let time_s = Bvf_util.Mclock.elapsed_s ~since:t0 in
  {
    vr_name = name;
    vr_prog_type = Prog.prog_type_to_string req.Verifier.r_prog_type;
    vr_insns = Array.length req.Verifier.r_insns;
    vr_verdict =
      (match verdict with
       | Ok _ -> "ok"
       | Error e -> Venv.errno_to_string e.Venv.errno);
    vr_stats =
      Option.value vstats ~default:(Bvf_verifier.Vstats.zero ());
    vr_time_s = time_s;
  }

(* The selftest corpus (the paper's 708 programs by default).
   [Selftests.build]'s count is a floor (the hand-written programs are
   always all included), so truncate to make [count] exact. *)
let run_selftests ?count (version : Version.t) : table =
  let suite = Selftests.build ?count version in
  let requests =
    match count with
    | Some n -> List.filteri (fun i _ -> i < n) suite.Selftests.requests
    | None -> suite.Selftests.requests
  in
  let rows =
    List.mapi
      (fun i req ->
         load_row suite.Selftests.session
           ~name:(Printf.sprintf "selftest-%04d" i) req)
      requests
  in
  { vt_kernel = Version.to_string version; vt_rows = rows }

(* A structured-generator batch under a fixed seed: veristat over the
   programs a fuzzing campaign would submit. *)
let run_generated ~(seed : int) ~(count : int) (version : Version.t) :
  table =
  let session = Loader.create (Kconfig.fixed version) in
  let gen_config =
    { Gen.c_version = version; c_maps = Campaign.standard_maps session }
  in
  let rng = Rng.create seed in
  let rows =
    List.init count (fun i ->
        let req = Gen.generate rng gen_config in
        load_row session ~name:(Printf.sprintf "gen-%04d" i) req)
  in
  { vt_kernel = Version.to_string version; vt_rows = rows }

(* -- JSONL -------------------------------------------------------------- *)

(* One header object, then one object per row — the same flat schema
   (and parser) as the telemetry trace. *)

let row_to_json (r : row) : string =
  let b = Buffer.create 160 in
  Printf.bprintf b "{\"name\":\"";
  Json.escape b r.vr_name;
  Printf.bprintf b "\",\"prog_type\":\"";
  Json.escape b r.vr_prog_type;
  Printf.bprintf b "\",\"insns\":%d,\"verdict\":\"" r.vr_insns;
  Json.escape b r.vr_verdict;
  Buffer.add_char b '"';
  List.iter
    (fun (k, v) -> Printf.bprintf b ",\"%s\":%d" k v)
    (Bvf_verifier.Vstats.counters r.vr_stats);
  Printf.bprintf b ",\"time_s\":%.6f}" r.vr_time_s;
  Buffer.contents b

let to_json (t : table) : string =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"veristat\":\"bvf/1\",\"kernel\":\"";
  Json.escape b t.vt_kernel;
  Printf.bprintf b "\",\"programs\":%d}\n" (List.length t.vt_rows);
  List.iter (fun r -> Printf.bprintf b "%s\n" (row_to_json r)) t.vt_rows;
  Buffer.contents b

exception Bad_table of string

let of_json (s : string) : table =
  let need get f k =
    match get f k with
    | Some v -> v
    | None -> raise (Bad_table ("missing or mistyped field " ^ k))
  in
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> raise (Bad_table "empty file")
  | header :: rest ->
    let hf =
      try Json.parse_object header
      with Json.Parse -> raise (Bad_table "unparsable header")
    in
    if Json.str hf "veristat" <> Some "bvf/1" then
      raise (Bad_table "not a bvf veristat table");
    let rows =
      List.map
        (fun line ->
           let f =
             try Json.parse_object line
             with Json.Parse -> raise (Bad_table "unparsable row")
           in
           let st = Vstats.zero () in
           st.Vstats.vs_insn_processed <- need Json.int f "insn_processed";
           st.Vstats.vs_total_states <- need Json.int f "total_states";
           st.Vstats.vs_peak_states <- need Json.int f "peak_states";
           st.Vstats.vs_max_states_per_insn <-
             need Json.int f "max_states_per_insn";
           st.Vstats.vs_prune_hits <- need Json.int f "prune_hits";
           st.Vstats.vs_prune_misses <- need Json.int f "prune_misses";
           st.Vstats.vs_loops_detected <- need Json.int f "loops_detected";
           st.Vstats.vs_branch_hwm <- need Json.int f "branch_hwm";
           {
             vr_name = need Json.str f "name";
             vr_prog_type = need Json.str f "prog_type";
             vr_insns = need Json.int f "insns";
             vr_verdict = need Json.str f "verdict";
             vr_stats = st;
             vr_time_s = Option.value (Json.num f "time_s") ~default:0.0;
           })
        rest
    in
    { vt_kernel = need Json.str hf "kernel"; vt_rows = rows }

let load_file (path : string) : table =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_json s

(* -- Printing ----------------------------------------------------------- *)

let pp_table fmt (t : table) : unit =
  Format.fprintf fmt "%-16s %-14s %6s %8s %10s %8s %6s %6s %6s@."
    "program" "type" "insns" "verdict" "insn_proc" "states" "peak"
    "prune" "hwm";
  List.iter
    (fun r ->
       let s = r.vr_stats in
       Format.fprintf fmt "%-16s %-14s %6d %8s %10d %8d %6d %6d %6d@."
         r.vr_name r.vr_prog_type r.vr_insns r.vr_verdict
         s.Bvf_verifier.Vstats.vs_insn_processed
         s.Bvf_verifier.Vstats.vs_total_states
         s.Bvf_verifier.Vstats.vs_peak_states
         s.Bvf_verifier.Vstats.vs_prune_hits
         s.Bvf_verifier.Vstats.vs_branch_hwm)
    t.vt_rows;
  let total name f =
    Format.fprintf fmt "  total %-20s %12d@." name
      (List.fold_left (fun n r -> n + f r.vr_stats) 0 t.vt_rows)
  in
  Format.fprintf fmt "@.%d programs on %s@." (List.length t.vt_rows)
    t.vt_kernel;
  List.iter
    (fun name ->
       total name (fun st ->
           List.assoc name (Bvf_verifier.Vstats.counters st)))
    Bvf_verifier.Vstats.counter_names

(* -- Comparison (veristat --compare) ------------------------------------ *)

type counter_delta = {
  cd_counter : string;
  cd_old : int;
  cd_new : int;
  cd_pct : float; (* (new - old) / old * 100; 0 when old = 0 and new = 0 *)
}

type comparison = {
  cmp_deltas : counter_delta list;       (* per-counter totals *)
  cmp_added : string list;               (* programs only in new *)
  cmp_removed : string list;             (* programs only in old *)
  cmp_verdict_flips : (string * string * string) list;
      (* name, old verdict, new verdict *)
  cmp_worst : (string * counter_delta) list;
      (* per-program insn_processed regressions, worst first *)
}

let pct_delta ~(old_v : int) ~(new_v : int) : float =
  if old_v = new_v then 0.0
  else if old_v = 0 then infinity
  else 100.0 *. float_of_int (new_v - old_v) /. float_of_int old_v

let compare_tables ~(old_t : table) ~(new_t : table) : comparison =
  let index t =
    let tbl = Hashtbl.create 256 in
    List.iter (fun r -> Hashtbl.replace tbl r.vr_name r) t.vt_rows;
    tbl
  in
  let old_idx = index old_t and new_idx = index new_t in
  let names_only of_idx not_in =
    Hashtbl.fold
      (fun name _ acc ->
         if Hashtbl.mem not_in name then acc else name :: acc)
      of_idx []
    |> List.sort compare
  in
  let common =
    List.filter
      (fun r -> Hashtbl.mem old_idx r.vr_name)
      new_t.vt_rows
  in
  let total rows name =
    List.fold_left
      (fun n r ->
         n + List.assoc name (Bvf_verifier.Vstats.counters r.vr_stats))
      0 rows
  in
  let common_old =
    List.map (fun r -> Hashtbl.find old_idx r.vr_name) common
  in
  let deltas =
    List.map
      (fun name ->
         let old_v = total common_old name
         and new_v = total common name in
         { cd_counter = name; cd_old = old_v; cd_new = new_v;
           cd_pct = pct_delta ~old_v ~new_v })
      Bvf_verifier.Vstats.counter_names
  in
  let flips =
    List.filter_map
      (fun r ->
         let o = Hashtbl.find old_idx r.vr_name in
         if o.vr_verdict <> r.vr_verdict then
           Some (r.vr_name, o.vr_verdict, r.vr_verdict)
         else None)
      common
  in
  let worst =
    List.filter_map
      (fun r ->
         let o = Hashtbl.find old_idx r.vr_name in
         let old_v =
           o.vr_stats.Bvf_verifier.Vstats.vs_insn_processed
         and new_v =
           r.vr_stats.Bvf_verifier.Vstats.vs_insn_processed
         in
         if new_v > old_v then
           Some
             ( r.vr_name,
               { cd_counter = "insn_processed"; cd_old = old_v;
                 cd_new = new_v; cd_pct = pct_delta ~old_v ~new_v } )
         else None)
      common
    |> List.sort (fun (_, a) (_, b) -> compare b.cd_pct a.cd_pct)
  in
  {
    cmp_deltas = deltas;
    cmp_added = names_only new_idx old_idx;
    cmp_removed = names_only old_idx new_idx;
    cmp_verdict_flips = flips;
    cmp_worst = worst;
  }

(* The gate: a regression is any counter total growing by more than
   [threshold_pct] percent, or any verdict flip.  More verification
   effort for the same corpus is what veristat exists to catch; counters
   shrinking is an improvement, never gated. *)
let regressions ~(threshold_pct : float) (c : comparison) : string list =
  let counter_regs =
    List.filter_map
      (fun d ->
         if d.cd_pct > threshold_pct then
           Some
             (Printf.sprintf "%s total %d -> %d (%+.1f%% > %.1f%%)"
                d.cd_counter d.cd_old d.cd_new d.cd_pct threshold_pct)
         else None)
      c.cmp_deltas
  in
  let flip_regs =
    List.map
      (fun (name, o, n) ->
         Printf.sprintf "%s verdict %s -> %s" name o n)
      c.cmp_verdict_flips
  in
  counter_regs @ flip_regs

let max_worst_listed = 10

let pp_comparison fmt (c : comparison) : unit =
  Format.fprintf fmt "%-20s %12s %12s %9s@." "counter" "old" "new"
    "delta";
  List.iter
    (fun d ->
       Format.fprintf fmt "%-20s %12d %12d %+8.1f%%@." d.cd_counter
         d.cd_old d.cd_new
         (if d.cd_pct = infinity then 100.0 else d.cd_pct))
    c.cmp_deltas;
  if c.cmp_added <> [] then
    Format.fprintf fmt "@.%d programs only in new (ignored)@."
      (List.length c.cmp_added);
  if c.cmp_removed <> [] then
    Format.fprintf fmt "%d programs only in old (ignored)@."
      (List.length c.cmp_removed);
  List.iter
    (fun (name, o, n) ->
       Format.fprintf fmt "verdict flip: %s %s -> %s@." name o n)
    c.cmp_verdict_flips;
  if c.cmp_worst <> [] then begin
    Format.fprintf fmt "@.top insn_processed regressions:@.";
    List.iteri
      (fun i (name, d) ->
         if i < max_worst_listed then
           Format.fprintf fmt "  %-20s %10d -> %10d (%+.1f%%)@." name
             d.cd_old d.cd_new
             (if d.cd_pct = infinity then 100.0 else d.cd_pct))
      c.cmp_worst;
    if List.length c.cmp_worst > max_worst_listed then
      Format.fprintf fmt "  ... and %d more@."
        (List.length c.cmp_worst - max_worst_listed)
  end
