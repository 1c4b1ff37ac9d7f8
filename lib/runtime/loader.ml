open Rimport

(* Session: one simulated kernel instance plus the programs loaded and
   attached into it — the equivalent of a fuzzer's long-lived test VM.
   The full bpf() load path runs here: map setup, verification, rewrite,
   sanitation, attachment (tracepoints, XDP dispatcher) and execution
   with event dispatch to attached programs. *)

type t = {
  kst : Kstate.t;
  cov : Coverage.t;
  mutable attached : (string * Verifier.loaded) list;
  mutable event_depth : int;
}

let max_event_depth = 3

let rec create ?(cov = Coverage.create ()) ?failslab (config : Kconfig.t) :
  t =
  let kst = Kstate.create ?failslab config in
  let t = { kst; cov; attached = []; event_depth = 0 } in
  (* install the event bridge: kernel-fired events run attached progs *)
  kst.Kstate.on_event <- (fun name -> fire_event t name);
  t

(* Run every program attached to event [name]; reentrant because nested
   executions fire further events (the Figure 2 recursion). *)
and fire_event (t : t) (name : string) : unit =
  if t.event_depth < max_event_depth then begin
    t.event_depth <- t.event_depth + 1;
    let prev_ctx = t.kst.Kstate.lock_ctx in
    List.iter
      (fun (attach_name, prog) ->
         if attach_name = name then begin
           (match Tracepoint.find name with
            | Some tp -> t.kst.Kstate.lock_ctx <- tp.Tracepoint.tp_ctx
            | None -> ());
           let _ =
             Exec.run t.kst ~run_attached:(fun n -> fire_event t n) prog
           in
           ()
         end)
      t.attached;
    t.kst.Kstate.lock_ctx <- prev_ctx;
    t.event_depth <- t.event_depth - 1
  end

let create_map (t : t) (def : Map.def) : int = Kstate.map_create t.kst def

(* Fallible variant: None is the BPF_MAP_CREATE syscall's -ENOMEM under
   fault injection.  Callers skip the map and carry on, as a fuzzer
   whose map setup failed would. *)
let try_create_map (t : t) (def : Map.def) : int option =
  Kstate.try_map_create t.kst def

(* Result of one load(+run) cycle. *)
type run_result = {
  verdict : (Verifier.loaded, Venv.verr) result;
  status : Exec.status option;    (* None if never executed *)
  reports : Report.t list;        (* all new kernel reports *)
  insns_executed : int;
  witness : Report.t list;        (* witness-oracle escapes (Kconfig
                                     witness); nested event runs are not
                                     collected *)
  verify_s : float;               (* wall time spent verifying *)
  sanitize_s : float;             (* wall time of fixup + sanitation *)
  exec_s : float;                 (* wall time executing (0 if rejected) *)
  verify_w : float;               (* minor words allocated verifying *)
  sanitize_w : float;             (* minor words of fixup + sanitation *)
  exec_w : float;                 (* minor words allocated executing *)
  vlog : string;                  (* verifier log, whatever the verdict *)
  vstats : Vstats.t option;       (* verifier performance counters; None
                                     when the load failed pre-analysis *)
}

let attach (t : t) (prog : Verifier.loaded) : unit =
  match prog.Verifier.l_attach with
  | Some tp ->
    t.attached <- (tp.Tracepoint.tp_name, prog) :: t.attached
  | None ->
    if prog.Verifier.l_prog_type = Prog.Xdp then begin
      let ok =
        Dispatcher.attach
          ~bug7:(Kstate.has_bug t.kst Kconfig.Bug7_dispatcher_race)
          t.kst.Kstate.dispatcher ~prog_id:prog.Verifier.l_id
      in
      ignore ok
    end

(* Execute a loaded program: XDP programs go through the dispatcher
   (the Bug#7 window), tracing programs are triggered via their attach
   point, everything else runs directly. *)
let execute (t : t) (prog : Verifier.loaded) : Exec.result =
  let baseline = Kstate.report_count t.kst in
  if prog.Verifier.l_prog_type = Prog.Xdp
     && not prog.Verifier.l_offload then begin
    match Dispatcher.dispatch t.kst.Kstate.dispatcher with
    | Error report ->
      Kstate.report t.kst report;
      { Exec.status = Exec.Aborted; insns_executed = 0;
        reports = [ report ]; witness = [] }
    | Ok _slot ->
      Exec.run t.kst ~run_attached:(fun n -> fire_event t n) prog
  end
  else begin
    let result =
      Exec.run t.kst ~run_attached:(fun n -> fire_event t n) prog
    in
    let witness = ref result.Exec.witness in
    (* the direct run above plus one triggering of the attach point *)
    (match prog.Verifier.l_attach with
     | Some tp when result.Exec.status <> Exec.Aborted ->
       (match Tracepoint.find tp.Tracepoint.tp_name with
        | Some tpd ->
          let prev = t.kst.Kstate.lock_ctx in
          t.kst.Kstate.lock_ctx <- tpd.Tracepoint.tp_ctx;
          let triggered =
            Exec.run t.kst ~run_attached:(fun n -> fire_event t n) prog
          in
          witness := !witness @ triggered.Exec.witness;
          t.kst.Kstate.lock_ctx <- prev
        | None -> ())
     | _ -> ());
    let fresh = Kstate.reports_since t.kst baseline in
    let status =
      if fresh <> [] then Exec.Aborted else result.Exec.status
    in
    { result with Exec.status; reports = fresh; witness = !witness }
  end

(* The rest of a load(+run) cycle once the verifier answered inside the
   open "verify" span [fr]: [prof] (default: disabled) records "verify"
   and "exec" spans with a post-hoc "sanitize" child — the sanitation
   rewrites run inside the verifier's load and only report their time
   and allocation, so their span is charged at the tail of the verify
   span.  [baseline] is the report count before the load. *)
let complete ~(prof : Bvf_util.Prof.t) (t : t) ~(baseline : int)
    (fr : Bvf_util.Prof.frame)
    ((verdict, vlog, vstats) :
       (Verifier.loaded, Venv.verr) result * string * Vstats.t option) :
  run_result =
  (match verdict with
   | Ok prog ->
     Bvf_util.Prof.record prof ~name:"sanitize"
       ~dur_s:prog.Verifier.l_sanitize_s
       ~minor_w:prog.Verifier.l_sanitize_w ()
   | Error _ -> ());
  let load_s, load_w = Bvf_util.Prof.stop prof fr in
  match verdict with
  | Error e ->
    { verdict = Error e; status = None;
      reports = Kstate.reports_since t.kst baseline;
      insns_executed = 0; witness = [];
      verify_s = load_s; sanitize_s = 0.; exec_s = 0.;
      verify_w = load_w; sanitize_w = 0.; exec_w = 0.; vlog; vstats }
  | Ok prog ->
    attach t prog;
    let fr = Bvf_util.Prof.start prof "exec" in
    let result = execute t prog in
    let exec_s, exec_w = Bvf_util.Prof.stop prof fr in
    { verdict = Ok prog; status = Some result.Exec.status;
      reports = Kstate.reports_since t.kst baseline;
      insns_executed = result.Exec.insns_executed;
      witness = result.Exec.witness;
      verify_s = load_s -. prog.Verifier.l_sanitize_s;
      sanitize_s = prog.Verifier.l_sanitize_s; exec_s;
      verify_w = Float.max 0. (load_w -. prog.Verifier.l_sanitize_w);
      sanitize_w = prog.Verifier.l_sanitize_w; exec_w; vlog; vstats }

(* The complete cycle the fuzzer performs for each generated input. *)
let load_and_run ?(prof = Bvf_util.Prof.disabled) (t : t)
    (req : Verifier.request) : run_result =
  let baseline = Kstate.report_count t.kst in
  let fr = Bvf_util.Prof.start prof "verify" in
  complete ~prof t ~baseline fr
    (Verifier.load_with_stats t.kst ~cov:t.cov req)

(* The same cycle through {!Verifier.load_memo}: a campaign's load,
   answered from the seed entry's memo when it repeats that entry's
   request and the memo is valid for this session. *)
let load_and_run_memo ?(prof = Bvf_util.Prof.disabled) (t : t)
    ~(recorder : Coverage.recorder) (memo : Verifier.memo option)
    (req : Verifier.request) : run_result * Verifier.origin =
  let baseline = Kstate.report_count t.kst in
  let fr = Bvf_util.Prof.start prof "verify" in
  let verdict, vlog, vstats, origin =
    Verifier.load_memo t.kst ~cov:t.cov ~recorder memo req
  in
  (complete ~prof t ~baseline fr (verdict, vlog, vstats), origin)
