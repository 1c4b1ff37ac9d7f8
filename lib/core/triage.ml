open Cimport

(* Bug triage (paper section 6.5 "Bug Triage"): given a faulting
   program, pinpoint the guilty instruction from the report's program
   counter and slice backwards through the def-use chain to collect the
   operations that produced its operands — the starting point for
   locating the incorrect verifier logic. *)

type slice = {
  guilty_pc : int option;
  guilty : Insn.t option;
  relevant : (int * Insn.t) list; (* backward def-use slice, in order *)
}

(* Registers whose values feed instruction [i]. *)
let deps_of (i : Insn.t) : Insn.reg list = Insn.regs_read i

(* Walk backwards from [pc], tracking which registers we still need the
   definition of.  Control flow is approximated linearly (sound enough
   for triage display purposes). *)
let backward_slice (insns : Insn.t array) (pc : int) : (int * Insn.t) list
  =
  if pc < 0 || pc >= Array.length insns then []
  else begin
    let needed = ref (deps_of insns.(pc)) in
    let out = ref [] in
    let remove r = needed := List.filter (fun x -> x <> r) !needed in
    let add r = if not (List.mem r !needed) then needed := r :: !needed in
    let idx = ref (pc - 1) in
    while !idx >= 0 && !needed <> [] do
      let i = insns.(!idx) in
      let writes = Insn.regs_written i in
      let relevant = List.exists (fun w -> List.mem w !needed) writes in
      if relevant then begin
        out := (!idx, i) :: !out;
        List.iter remove writes;
        List.iter add (deps_of i)
      end;
      decr idx
    done;
    !out
  end

let slice_report (prog : Verifier.loaded) (report : Report.t) : slice =
  match report.Report.pc with
  | None -> { guilty_pc = None; guilty = None; relevant = [] }
  | Some pc ->
    let insns = prog.Verifier.l_insns in
    if pc < 0 || pc >= Array.length insns then
      { guilty_pc = Some pc; guilty = None; relevant = [] }
    else
      { guilty_pc = Some pc; guilty = Some insns.(pc);
        relevant = backward_slice insns pc }

let pp_slice fmt (s : slice) : unit =
  (match s.guilty_pc, s.guilty with
   | Some pc, Some i ->
     Format.fprintf fmt "guilty insn at %d: %s@." pc (Disasm.insn_to_string i)
   | Some pc, None -> Format.fprintf fmt "guilty pc %d (out of range)@." pc
   | None, _ -> Format.fprintf fmt "no guilty pc recorded@.");
  List.iter
    (fun (pc, i) ->
       Format.fprintf fmt "  dep %3d: %s@." pc (Disasm.insn_to_string i))
    s.relevant

let slice_to_string (s : slice) : string =
  Format.asprintf "%a" pp_slice s

(* -- Harness crashes ----------------------------------------------------- *)

(* A supervised worker died or hung.  This is a finding about the
   *harness* (an analyzer bug the in-process runner could never report:
   it would have died with it), so it gets its own artifact class —
   recorded, quarantined and reported, but never mixed into the oracle's
   verifier-bug findings. *)

type crash_cause =
  | Crash_exit of int    (* non-zero exit code *)
  | Crash_signal of int  (* killed by this signal *)
  | Crash_hang           (* no heartbeat within the deadline *)

type harness_crash = {
  hc_worker : int;            (* worker (= shard) index *)
  hc_iteration : int option;  (* global iteration being executed, when
                                 the heartbeat recorded one *)
  hc_cause : crash_cause;
  hc_restarts : int;          (* restarts of this worker so far *)
}

let crash_cause_to_string = function
  | Crash_exit code -> Printf.sprintf "exit %d" code
  | Crash_signal sg -> Printf.sprintf "signal %d" sg
  | Crash_hang -> "hang (heartbeat deadline exceeded)"

let harness_crash_to_string (c : harness_crash) : string =
  Printf.sprintf "worker %d %s%s after %d restart%s" c.hc_worker
    (crash_cause_to_string c.hc_cause)
    (match c.hc_iteration with
     | Some i -> Printf.sprintf " at iteration %d" i
     | None -> " before any heartbeat")
    c.hc_restarts
    (if c.hc_restarts = 1 then "" else "s")

(* One flat JSON object per crash, same dialect as the telemetry trace
   (parseable by Json.parse_object). *)
let harness_crash_to_json (c : harness_crash) : string =
  let b = Buffer.create 96 in
  Printf.bprintf b "{\"ev\":\"harness_crash\",\"worker\":%d" c.hc_worker;
  (match c.hc_iteration with
   | Some i -> Printf.bprintf b ",\"iter\":%d" i
   | None -> ());
  (match c.hc_cause with
   | Crash_exit code -> Printf.bprintf b ",\"cause\":\"exit\",\"code\":%d" code
   | Crash_signal sg ->
     Printf.bprintf b ",\"cause\":\"signal\",\"signal\":%d" sg
   | Crash_hang -> Buffer.add_string b ",\"cause\":\"hang\"");
  Printf.bprintf b ",\"restarts\":%d}" c.hc_restarts;
  Buffer.contents b

let harness_crash_of_json (line : string) : harness_crash option =
  match Json.parse_object (String.trim line) with
  | exception Json.Parse -> None
  | f ->
    match Json.str f "ev", Json.str f "cause", Json.int f "worker",
          Json.int f "restarts" with
    | Some "harness_crash", Some cause, Some worker, Some restarts ->
      let hc_cause =
        match cause with
        | "exit" -> Crash_exit (Option.value (Json.int f "code") ~default:1)
        | "signal" ->
          Crash_signal (Option.value (Json.int f "signal") ~default:9)
        | _ -> Crash_hang
      in
      Some
        { hc_worker = worker; hc_iteration = Json.int f "iter"; hc_cause;
          hc_restarts = restarts }
    | _ -> None
