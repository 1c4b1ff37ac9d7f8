open Vimport

(* Public entry point: the bpf(BPF_PROG_LOAD) pipeline.

      structural checks -> attach validation -> abstract interpretation
      -> fixup rewrites -> (optional) bpf_asan sanitation -> loaded

   Also carries two injected non-verifier bugs from Table 2:
   - Bug#8: the syscall duplicates the rewritten instruction array with
     kmemdup; above the kmalloc allocation limit this fails and splats
     (the paper's fix introduced kvmemdup);
   - Bug#11 is armed here by accepting device-offloaded XDP programs
     that the runtime will erroneously execute on the host. *)

type request = {
  r_prog_type : Prog.prog_type;
  r_attach : string option;
  r_offload : bool; (* XDP: target a device, not the host *)
  r_insns : Insn.t array;
}

let request ?(attach = None) ?(offload = false) prog_type insns =
  { r_prog_type = prog_type; r_attach = attach; r_offload = offload;
    r_insns = insns }

type loaded = {
  l_id : int;
  l_insns : Insn.t array;        (* post-rewrite instruction stream *)
  l_aux : Venv.aux array;        (* aligned auxiliary data *)
  l_prog_type : Prog.prog_type;
  l_attach : Tracepoint.t option;
  l_offload : bool;
  l_orig_len : int;              (* pre-rewrite instruction count *)
  l_log : string;                (* verifier log *)
  l_insn_processed : int;        (* verification effort *)
  l_lint : Invariants.violation list; (* Kconfig.lint violations (capped) *)
  l_lint_count : int;            (* total, including dropped-by-cap *)
  l_sanitize_s : float;          (* wall time of fixup + sanitation *)
  l_sanitize_w : float;          (* minor words of fixup + sanitation *)
  l_vstats : Vstats.t;           (* veristat-style performance counters *)
}

(* kmalloc allocation limit for the Bug#8 kmemdup path (bytes). *)
let kmalloc_max = 8192

(* Programs must not reference the hidden register or the internal
   sanitizing helpers: only rewrite passes may emit those. *)
let reserved_insn (i : Insn.t) : bool =
  Insn.reads_reg i Insn.R11 || Insn.writes_reg i Insn.R11
  ||
  match i with
  | Insn.Call (Insn.Helper id) -> begin
      match Helper.find id with
      | Some h -> h.Helper.internal
      | None -> false
    end
  | _ -> false

(* The kernel resolves map fds to map pointers before verification
   (resolve_pseudo_ldimm64), over every instruction — dead code
   included; a stale or never-created fd fails the load with -EBADF, and
   direct value access on a map that does not support it with -EINVAL.
   Under fault injection these are normal outcomes: a map creation that
   failed with -ENOMEM leaves later programs referencing an fd that
   never existed (or that a different map ended up with). *)
let map_fd_error (kst : Kstate.t) (pc : int) (i : Insn.t) :
  Venv.verr option =
  match i with
  | Insn.Ld_imm64 (_, (Insn.Map_fd fd | Insn.Map_value (fd, _)))
    when Kstate.map_of_fd kst fd = None ->
    Some
      (Venv.verr_make Venv.EBADF Bad_map_op ~pc
         (Printf.sprintf "fd %d is not a map" fd))
  | Insn.Ld_imm64 (_, Insn.Map_value (fd, _)) -> begin
      match Kstate.map_of_fd kst fd with
      | Some m when m.Map.def.Map.mtype <> Map.Array_map ->
        Some
          (Venv.verr_make Venv.EINVAL Bad_map_op ~pc
             (Printf.sprintf
                "map fd %d does not support direct value access" fd))
      | Some _ | None -> None
    end
  | _ -> None

(* What the per-instruction checks found, in one pass over the program:
   a reserved register or helper anywhere, else the first bad map fd in
   pc order. *)
type scan = Clean | Reserved | Bad_map of Venv.verr

let rec scan_insns (kst : Kstate.t) (insns : Insn.t array) (pc : int)
    (bad : Venv.verr option) : scan =
  if pc >= Array.length insns then
    match bad with Some e -> Bad_map e | None -> Clean
  else
    let i = insns.(pc) in
    if reserved_insn i then Reserved
    else
      scan_insns kst insns (pc + 1)
        (match bad with None -> map_fd_error kst pc i | Some _ -> bad)

(* Program types loadable without CAP_BPF/CAP_PERFMON. *)
let unprivileged_prog_types = [ Prog.Socket_filter; Prog.Cgroup_skb ]

let check_privilege (kst : Kstate.t) (req : request) :
  (unit, Venv.verr) result =
  if kst.Kstate.config.Kconfig.unprivileged
     && not (List.mem req.r_prog_type unprivileged_prog_types)
  then
    Error
      (Venv.verr_make Venv.EPERM Priv ~pc:0
         (Printf.sprintf "prog type %s requires CAP_BPF"
            (Prog.prog_type_to_string req.r_prog_type)))
  else Ok ()

let resolve_attach (kst : Kstate.t) (req : request) :
  (Tracepoint.t option, Venv.verr) result =
  match req.r_attach with
  | None -> Ok None
  | Some name -> begin
      match Tracepoint.find name with
      | None ->
        Error
          (Venv.verr_make Venv.EINVAL Bad_attach ~pc:0
             (Printf.sprintf "unknown attach point %s" name))
      | Some tp ->
        if not (List.mem req.r_prog_type tp.Tracepoint.tp_prog_types) then
          Error
            (Venv.verr_make Venv.EINVAL Bad_attach ~pc:0
               (Printf.sprintf "prog type %s cannot attach to %s"
                  (Prog.prog_type_to_string req.r_prog_type) name))
        else if
          not (Version.at_least kst.Kstate.config.Kconfig.version
                 tp.Tracepoint.tp_since)
        then
          Error
            (Venv.verr_make Venv.EINVAL Bad_attach ~pc:0
               (Printf.sprintf "%s does not exist in %s" name
                  (Version.to_string
                     kst.Kstate.config.Kconfig.version)))
        else Ok (Some tp)
    end

(* The checks bpf(BPF_PROG_LOAD) makes before the analysis: structural,
   the insn_aux allocation, privilege, map fds and the attach point.
   [Error] is a refusal before any verification environment existed;
   [Ok] carries the attach point. *)
let precheck (kst : Kstate.t) (req : request) :
  (Tracepoint.t option, Venv.verr) result =
  let refuse errno reason msg =
    Error (Venv.verr_make errno reason ~pc:0 msg)
  in
  let n = Array.length req.r_insns in
  if n = 0 then refuse Venv.EINVAL Prog_size "empty program"
  else if n > Prog.max_insns then
    refuse Venv.E2BIG Prog_size
      (Printf.sprintf "program too large (%d insns)" n)
  else
    (* the map fds are read before the failslab draw and the privilege
       check, neither of which touches the map table, but refuse in the
       kernel's order *)
    let scan = scan_insns kst req.r_insns 0 None in
    if scan = Reserved then
      refuse Venv.EINVAL Bad_insn "program uses reserved register or helper"
    else if
      (* failslab: the syscall kvcallocs insn_aux_data and the verifier
         state before any analysis; a failed allocation is a clean
         -ENOMEM, never a verdict about the program *)
      Bvf_kernel.Failslab.should_fail kst.Kstate.failslab
        ~site:"bpf_check:insn_aux"
    then refuse Venv.ENOMEM Env_failure "kvcalloc of insn_aux_data failed"
    else
      let ( let* ) = Result.bind in
      let* () = check_privilege kst req in
      let* () = match scan with Bad_map e -> Error e | _ -> Ok () in
      resolve_attach kst req

(* The abstract interpretation, on an environment of its own. *)
let walk (kst : Kstate.t) ~(cov : Coverage.t) ?recorder ~(log_level : int)
    (req : request) (attach : Tracepoint.t option) :
  Venv.t * (unit, Venv.verr) result =
  let env =
    Venv.create ~kst ~prog_type:req.r_prog_type ~attach ~cov ?recorder
      ~log_level req.r_insns
  in
  ( env,
    match Analyze.run env with
    | exception Venv.Reject verr -> Error verr
    | () -> Ok () )

(* What the rest of the load takes from an analysis.  Shared by every
   load a memo answers, so nothing writes [an_aux] or [an_vstats] after
   the walk that made them. *)
type analysis = {
  an_verdict : (unit, Venv.verr) result;
  an_aux : Venv.aux array;
  an_insn_processed : int;
  an_lint : Invariants.violation list; (* oldest first *)
  an_lint_count : int;
  an_log : string;
  an_vstats : Vstats.t;
}

let analyse kst ~cov ?recorder ~log_level req attach : analysis =
  let env, verdict = walk kst ~cov ?recorder ~log_level req attach in
  { an_verdict = verdict; an_aux = env.Venv.aux;
    an_insn_processed = env.Venv.insn_processed;
    an_lint = List.rev env.Venv.lint; an_lint_count = env.Venv.lint_count;
    an_log = Vlog.contents env.Venv.vlog; an_vstats = env.Venv.vst }

(* Everything after the analysis: the rewrites, the image allocation,
   Bug#8 and the prog id. *)
let finish (kst : Kstate.t) (req : request) (attach : Tracepoint.t option)
    (a : analysis) : (loaded, Venv.verr) result =
  match a.an_verdict with
  | Error verr -> Error verr
  | Ok () ->
    let t_rewrite = Bvf_util.Mclock.now_s () in
    let w_rewrite = Gc.minor_words () in
    let insns, aux = Fixup.run kst ~insns:req.r_insns ~aux:a.an_aux in
    let insns, aux =
      if kst.Kstate.config.Kconfig.sanitize then Sanitize.run ~insns ~aux
      else (insns, aux)
    in
    let sanitize_s = Bvf_util.Mclock.elapsed_s ~since:t_rewrite in
    let sanitize_w = Float.max 0. (Gc.minor_words () -. w_rewrite) in
    if
      (* failslab: allocating the rewritten program image *)
      Bvf_kernel.Failslab.should_fail kst.Kstate.failslab
        ~site:"bpf_prog_load:prog_image"
    then
      Error
        (Venv.verr_make Venv.ENOMEM Env_failure ~pc:0
           "bpf_prog_realloc of rewritten image failed")
    else begin
      (* Bug#8: the syscall kmemdups the rewritten image for
         introspection; large images exceed the kmalloc limit *)
      if Kstate.has_bug kst Kconfig.Bug8_kmemdup_limit
         && Insn.prog_slots insns * 8 > kmalloc_max then
        Kstate.report kst
          (Bvf_kernel.Report.make
             (Bvf_kernel.Report.Kernel_routine "bpf_prog_load")
             (Bvf_kernel.Report.Warn
                "kmemdup of rewritten insns failed (kmalloc limit)"));
      let id = kst.Kstate.next_prog_id in
      kst.Kstate.next_prog_id <- id + 1;
      Ok
        {
          l_id = id;
          l_insns = insns;
          l_aux = aux;
          l_prog_type = req.r_prog_type;
          l_attach = attach;
          l_offload = req.r_offload;
          l_orig_len = Array.length req.r_insns;
          l_log = a.an_log;
          l_insn_processed = a.an_insn_processed;
          l_lint = a.an_lint;
          l_lint_count = a.an_lint_count;
          l_sanitize_s = sanitize_s;
          l_sanitize_w = sanitize_w;
          l_vstats = a.an_vstats;
        }
    end

(* The full pipeline, also returning the verifier log whatever the
   verdict — the kernel copies the log buffer back to user space on
   rejection too, and [bvf explain] needs exactly that — plus the
   performance counters whenever the analysis ran ([None] only for the
   early exits that never built a verification environment: structural
   checks, privilege, fd resolution, injected allocation faults). *)
let load_with_stats (kst : Kstate.t) ~(cov : Coverage.t) ?(log_level = 0)
    (req : request) :
  (loaded, Venv.verr) result * string * Vstats.t option =
  match precheck kst req with
  | Error e -> (Error e, "", None)
  | Ok attach ->
    let a = analyse kst ~cov ~log_level req attach in
    (finish kst req attach a, a.an_log, Some a.an_vstats)

let load (kst : Kstate.t) ~(cov : Coverage.t) ?log_level (req : request) :
  (loaded, Venv.verr) result =
  let verdict, _, _ = load_with_stats kst ~cov ?log_level req in
  verdict

(* -- Memoised analyses -------------------------------------------------

   The analysis is a pure function of the program, the config and the
   session's fd -> map definition table, and its only side effect is
   coverage hits.  A memo keeps one analysis with its hit multiset and
   answers a load of the same request, in the same coverage map, under
   the same config and maps, by replaying the hits: every check, both
   failslab draws, the rewrites, Bug#8 and the prog id still run. *)

type memo = {
  m_analysis : analysis;
  m_hits : Coverage.hits;
  m_cov : Coverage.t;              (* the map the edge ids belong to *)
  m_config : Kconfig.t;
  m_maps : (int * Map.def) list;   (* the session's Kstate.maps *)
}

type origin = Refused | Walked of analysis | Replayed

let memo (kst : Kstate.t) ~(cov : Coverage.t) (recorder : Coverage.recorder)
    (a : analysis) : memo =
  { m_analysis = a; m_hits = Coverage.recorded cov recorder; m_cov = cov;
    m_config = kst.Kstate.config;
    m_maps = List.map (fun (fd, m) -> (fd, m.Map.def)) kst.Kstate.maps }

(* Equal fd -> definition tables resolve every map reference alike (a
   reboot whose map setup lost a map to failslab does not). *)
let rec same_maps (defs : (int * Map.def) list) (maps : (int * Map.t) list) =
  match defs, maps with
  | [], [] -> true
  | (fd, d) :: defs, (fd', m) :: maps ->
    fd = fd' && (d == m.Map.def || d = m.Map.def) && same_maps defs maps
  | _ :: _, [] | [], _ :: _ -> false

let memo_valid (m : memo) (kst : Kstate.t) ~(cov : Coverage.t) : bool =
  m.m_cov == cov
  && (m.m_config == kst.Kstate.config || m.m_config = kst.Kstate.config)
  && same_maps m.m_maps kst.Kstate.maps

let load_memo (kst : Kstate.t) ~(cov : Coverage.t)
    ~(recorder : Coverage.recorder) (memo : memo option) (req : request) :
  (loaded, Venv.verr) result * string * Vstats.t option * origin =
  match precheck kst req with
  | Error e -> (Error e, "", None, Refused)
  | Ok attach ->
    let a, origin =
      match memo with
      | Some m when memo_valid m kst ~cov ->
        Coverage.replay cov m.m_hits;
        (m.m_analysis, Replayed)
      | Some _ | None ->
        let a = analyse kst ~cov ~recorder ~log_level:0 req attach in
        (a, Walked a)
    in
    (finish kst req attach a, a.an_log, Some a.an_vstats, origin)

(* Verification only (no rewrites): used by tests and the acceptance
   experiment. *)
let verify (kst : Kstate.t) ~(cov : Coverage.t) ?(log_level = 0)
    (req : request) : (unit, Venv.verr) result =
  match precheck kst req with
  | Error e -> Error e
  | Ok attach -> snd (walk kst ~cov ~log_level req attach)

(* Verification plus the invariant-lint results, whatever the verdict:
   the [bvf lint] entry point.  The lint observes states the analysis
   visited before any rejection, so a rejected program still reports
   what the verifier's bookkeeping looked like on the way. *)
let lint (kst : Kstate.t) ~(cov : Coverage.t) (req : request) :
  (unit, Venv.verr) result * Invariants.violation list * int =
  match precheck kst req with
  | Error e -> (Error e, [], 0)
  | Ok attach ->
    let env, verdict = walk kst ~cov ~log_level:0 req attach in
    (verdict, List.rev env.Venv.lint, env.Venv.lint_count)

(* -- Stable fingerprints for the verdict cache ------------------------

   Verification is deterministic: the verdict, canonical rejection
   message, log and performance counters are a pure function of
   (program, resolvable maps, kernel config).  The service layer
   (lib/core/vcache.ml) caches verdicts under a content hash of exactly
   those inputs; the fingerprints below are its config and map parts,
   and the program's wire bytes the rest.  [verifier_abi]
   is baked into the config fingerprint so a semantic change to the
   analyzer invalidates every previously cached verdict — bump it
   whenever any verdict, canonical message, log line or deterministic
   counter can change for a fixed input. *)

let verifier_abi = "bvf-verifier/2"

let config_fingerprint (c : Kconfig.t) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b verifier_abi;
  Buffer.add_char b '\n';
  Buffer.add_string b (Version.to_string c.Kconfig.version);
  Buffer.add_char b '\n';
  List.iter
    (fun bug ->
       Buffer.add_string b (Kconfig.bug_to_string bug);
       Buffer.add_char b ' ')
    (List.sort_uniq compare c.Kconfig.bugs);
  Printf.bprintf b "\nsanitize=%b unprivileged=%b lint=%b witness=%b"
    c.Kconfig.sanitize c.Kconfig.unprivileged c.Kconfig.lint
    c.Kconfig.witness;
  Digest.to_hex (Digest.string (Buffer.contents b))

let maps_fingerprint (maps : (int * Map.def) list) : string =
  let b = Buffer.create 128 in
  List.iter
    (fun (fd, (d : Map.def)) ->
       Printf.bprintf b "%d %s key=%d value=%d entries=%d lock=%b\n" fd
         (Map.map_type_to_string d.Map.mtype)
         d.Map.key_size d.Map.value_size d.Map.max_entries
         d.Map.has_spin_lock)
    (List.sort (fun (a, _) (b, _) -> compare a b) maps);
  Digest.to_hex (Digest.string (Buffer.contents b))
