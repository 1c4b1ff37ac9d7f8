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
let uses_reserved (insns : Insn.t array) : bool =
  Array.exists
    (fun i ->
       Insn.reads_reg i Insn.R11 || Insn.writes_reg i Insn.R11
       ||
       match i with
       | Insn.Call (Insn.Helper id) -> begin
           match Helper.find id with
           | Some h -> h.Helper.internal
           | None -> false
         end
       | _ -> false)
    insns

(* The kernel resolves map fds to map pointers before verification
   (resolve_pseudo_ldimm64), over every instruction — dead code
   included; a stale or never-created fd fails the load with -EBADF, and
   direct value access on a map that does not support it with -EINVAL.
   Under fault injection these are normal outcomes: a map creation that
   failed with -ENOMEM leaves later programs referencing an fd that
   never existed (or that a different map ended up with). *)
let resolve_map_fds (kst : Kstate.t) (insns : Insn.t array) :
  (unit, Venv.verr) result =
  let bad = ref None in
  Array.iteri
    (fun pc i ->
       if !bad = None then
         match i with
         | Insn.Ld_imm64 (_, (Insn.Map_fd fd | Insn.Map_value (fd, _)))
           when Kstate.map_of_fd kst fd = None ->
           bad :=
             Some (Venv.verr_make Venv.EBADF ~pc
                     (Printf.sprintf "fd %d is not a map" fd))
         | Insn.Ld_imm64 (_, Insn.Map_value (fd, _)) -> begin
             match Kstate.map_of_fd kst fd with
             | Some m when m.Map.def.Map.mtype <> Map.Array_map ->
               bad :=
                 Some
                   (Venv.verr_make Venv.EINVAL ~pc
                      (Printf.sprintf
                         "map fd %d does not support direct value access"
                         fd))
             | Some _ | None -> ()
           end
         | _ -> ())
    insns;
  match !bad with Some e -> Error e | None -> Ok ()

(* Program types loadable without CAP_BPF/CAP_PERFMON. *)
let unprivileged_prog_types = [ Prog.Socket_filter; Prog.Cgroup_skb ]

let check_privilege (kst : Kstate.t) (req : request) :
  (unit, Venv.verr) result =
  if kst.Kstate.config.Kconfig.unprivileged
     && not (List.mem req.r_prog_type unprivileged_prog_types)
  then
    Error
      (Venv.verr_make Venv.EPERM ~pc:0
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
          (Venv.verr_make Venv.EINVAL ~pc:0
             (Printf.sprintf "unknown attach point %s" name))
      | Some tp ->
        if not (List.mem req.r_prog_type tp.Tracepoint.tp_prog_types) then
          Error
            (Venv.verr_make Venv.EINVAL ~pc:0
               (Printf.sprintf "prog type %s cannot attach to %s"
                  (Prog.prog_type_to_string req.r_prog_type) name))
        else if
          not (Version.at_least kst.Kstate.config.Kconfig.version
                 tp.Tracepoint.tp_since)
        then
          Error
            (Venv.verr_make Venv.EINVAL ~pc:0
               (Printf.sprintf "%s does not exist in %s" name
                  (Version.to_string
                     kst.Kstate.config.Kconfig.version)))
        else Ok (Some tp)
    end

(* Everything bpf(BPF_PROG_LOAD) does before the rewrites, shared by
   [load_with_stats], [verify] and [lint]: the structural, privilege,
   map-fd and attach checks, then the abstract interpretation.  [Error]
   is a refusal before any verification environment existed; [Ok]
   carries the environment, the attach point and the analysis
   verdict. *)
let analyze (kst : Kstate.t) ~(cov : Coverage.t) ~(log_level : int)
    (req : request) :
  (Venv.t * Tracepoint.t option * (unit, Venv.verr) result, Venv.verr)
    result =
  let refuse errno msg = Error (Venv.verr_make errno ~pc:0 msg) in
  let n = Array.length req.r_insns in
  if n = 0 then refuse Venv.EINVAL "empty program"
  else if n > Prog.max_insns then
    refuse Venv.E2BIG (Printf.sprintf "program too large (%d insns)" n)
  else if uses_reserved req.r_insns then
    refuse Venv.EINVAL "program uses reserved register or helper"
  else if
    (* failslab: the syscall kvcallocs insn_aux_data and the verifier
       state before any analysis; a failed allocation is a clean -ENOMEM,
       never a verdict about the program *)
    Bvf_kernel.Failslab.should_fail kst.Kstate.failslab
      ~site:"bpf_check:insn_aux"
  then refuse Venv.ENOMEM "kvcalloc of insn_aux_data failed"
  else
    let ( let* ) = Result.bind in
    let* () = check_privilege kst req in
    let* () = resolve_map_fds kst req.r_insns in
    let* attach = resolve_attach kst req in
    let env =
      Venv.create ~kst ~prog_type:req.r_prog_type ~attach ~cov ~log_level
        req.r_insns
    in
    Ok
      ( env, attach,
        match Analyze.run env with
        | exception Venv.Reject verr -> Error verr
        | () -> Ok () )

(* The full pipeline, also returning the verifier log whatever the
   verdict — the kernel copies the log buffer back to user space on
   rejection too, and [bvf explain] needs exactly that — plus the
   performance counters whenever the analysis ran ([None] only for the
   early exits that never built a verification environment: structural
   checks, privilege, fd resolution, injected allocation faults). *)
let load_with_stats (kst : Kstate.t) ~(cov : Coverage.t) ?(log_level = 0)
    (req : request) :
  (loaded, Venv.verr) result * string * Vstats.t option =
  match analyze kst ~cov ~log_level req with
  | Error e -> (Error e, "", None)
  | Ok (env, attach, verdict) ->
    let log () = Vlog.contents env.Venv.vlog in
    let vst = env.Venv.vst in
    match verdict with
    | Error verr -> (Error verr, log (), Some vst)
    | Ok () ->
      let t_rewrite = Bvf_util.Mclock.now_s () in
      let w_rewrite = Gc.minor_words () in
      let insns, aux = Fixup.run kst ~insns:req.r_insns ~aux:env.Venv.aux
      in
      let insns, aux =
        if kst.Kstate.config.Kconfig.sanitize then
          Sanitize.run ~insns ~aux
        else (insns, aux)
      in
      let sanitize_s = Bvf_util.Mclock.elapsed_s ~since:t_rewrite in
      let sanitize_w = Float.max 0. (Gc.minor_words () -. w_rewrite) in
      if
        (* failslab: allocating the rewritten program image *)
        Bvf_kernel.Failslab.should_fail kst.Kstate.failslab
          ~site:"bpf_prog_load:prog_image"
      then
        (Error
           (Venv.verr_make Venv.ENOMEM ~pc:0
              "bpf_prog_realloc of rewritten image failed"), log (),
         Some vst)
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
      (Ok
        {
          l_id = id;
          l_insns = insns;
          l_aux = aux;
          l_prog_type = req.r_prog_type;
          l_attach = attach;
          l_offload = req.r_offload;
          l_orig_len = Array.length req.r_insns;
          l_log = log ();
          l_insn_processed = env.Venv.insn_processed;
          l_lint = List.rev env.Venv.lint;
          l_lint_count = env.Venv.lint_count;
          l_sanitize_s = sanitize_s;
          l_sanitize_w = sanitize_w;
          l_vstats = vst;
        }, log (), Some vst)
      end

let load (kst : Kstate.t) ~(cov : Coverage.t) ?log_level (req : request) :
  (loaded, Venv.verr) result =
  let verdict, _, _ = load_with_stats kst ~cov ?log_level req in
  verdict

(* Verification only (no rewrites): used by tests and the acceptance
   experiment. *)
let verify (kst : Kstate.t) ~(cov : Coverage.t) ?(log_level = 0)
    (req : request) : (unit, Venv.verr) result =
  match analyze kst ~cov ~log_level req with
  | Error e -> Error e
  | Ok (_, _, verdict) -> verdict

(* Verification plus the invariant-lint results, whatever the verdict:
   the [bvf lint] entry point.  The lint observes states the analysis
   visited before any rejection, so a rejected program still reports
   what the verifier's bookkeeping looked like on the way. *)
let lint (kst : Kstate.t) ~(cov : Coverage.t) (req : request) :
  (unit, Venv.verr) result * Invariants.violation list * int =
  match analyze kst ~cov ~log_level:0 req with
  | Error e -> (Error e, [], 0)
  | Ok (env, _, verdict) ->
    (verdict, List.rev env.Venv.lint, env.Venv.lint_count)

(* -- Stable fingerprints for the verdict cache ------------------------

   Verification is deterministic: the verdict, canonical rejection
   message, log and performance counters are a pure function of
   (program, resolvable maps, kernel config).  The service layer
   (lib/core/vcache.ml) caches verdicts under a content hash of exactly
   those inputs; the fingerprints below define that hash.  [verifier_abi]
   is baked into the config fingerprint so a semantic change to the
   analyzer invalidates every previously cached verdict — bump it
   whenever any verdict, canonical message, log line or deterministic
   counter can change for a fixed input. *)

let verifier_abi = "bvf-verifier/1"

(* Canonical byte serialization of a request: the program's wire
   encoding (byte-compatible with struct bpf_insn) prefixed by the load
   attributes that shape verification.  Programs whose branches escape
   the instruction array cannot be wire-encoded; they are canonicalized
   structurally instead (the verifier rejects them anyway, but the cache
   key must still be total). *)
let add_request_canonical (b : Buffer.t) (req : request) : unit =
  Buffer.add_string b (Prog.prog_type_to_string req.r_prog_type);
  Buffer.add_char b '\n';
  (match req.r_attach with
   | None -> Buffer.add_char b '-'
   | Some a -> Buffer.add_string b a);
  Buffer.add_char b '\n';
  Buffer.add_string b (if req.r_offload then "offload" else "host");
  Buffer.add_char b '\n';
  match Encode.encode req.r_insns with
  | bytes -> Buffer.add_bytes b bytes
  | exception Invalid_argument _ ->
    Buffer.add_string b "unencodable:";
    Buffer.add_string b (Marshal.to_string req.r_insns [])

let request_canonical (req : request) : string =
  let b = Buffer.create 256 in
  add_request_canonical b req;
  Buffer.contents b

let request_fingerprint (req : request) : string =
  Digest.to_hex (Digest.string (request_canonical req))

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
