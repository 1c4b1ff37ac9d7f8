(* Program-level pretty printing: numbered listings in the style used by
   the paper's figures, with helper names resolved. *)

let insn_to_string (i : Insn.t) : string =
  match i with
  | Insn.Call (Insn.Helper id) -> begin
      match Helper.find id with
      | Some h -> Printf.sprintf "call %s" h.Helper.name
      | None -> Printf.sprintf "call helper#%d" id
    end
  | Insn.Call (Insn.Kfunc id) -> begin
      match Helper.find_kfunc id with
      | Some k -> Printf.sprintf "call %s" k.Helper.kname
      | None -> Printf.sprintf "call kfunc#%d" id
    end
  | _ -> Insn.to_string i

let pp_prog fmt (prog : Insn.t array) =
  Array.iteri
    (fun idx i -> Format.fprintf fmt "%3d: %s@." idx (insn_to_string i))
    prog

let prog_to_string (prog : Insn.t array) : string =
  Format.asprintf "%a" pp_prog prog

(* Histogram of instruction classes, used by the acceptance-rate
   experiment (the Buzzer ALU/JMP-ratio statistic of section 6.3). *)
type class_histogram = {
  alu : int;
  jmp : int;
  load : int;
  store : int;
  call : int;
  other : int;
}

let empty_histogram =
  { alu = 0; jmp = 0; load = 0; store = 0; call = 0; other = 0 }

(* [h] plus the classes of [prog], counted in locals so a program costs
   one record, not one per instruction. *)
let add_histogram (h : class_histogram) (prog : Insn.t array) :
  class_histogram =
  let alu = ref h.alu and jmp = ref h.jmp and load = ref h.load
  and store = ref h.store and call = ref h.call and other = ref h.other in
  for pc = 0 to Array.length prog - 1 do
    match Array.unsafe_get prog pc with
    | Insn.Alu _ | Insn.Endian _ -> incr alu
    | Insn.Jmp _ | Insn.Ja _ -> incr jmp
    | Insn.Ldx _ | Insn.Ld_imm64 _ -> incr load
    | Insn.St _ | Insn.Stx _ | Insn.Atomic _ -> incr store
    | Insn.Call _ -> incr call
    | Insn.Exit -> incr other
  done;
  { alu = !alu; jmp = !jmp; load = !load; store = !store; call = !call;
    other = !other }

let histogram (prog : Insn.t array) : class_histogram =
  add_histogram empty_histogram prog

let histogram_total h = h.alu + h.jmp + h.load + h.store + h.call + h.other

let alu_jmp_ratio (h : class_histogram) : float =
  let total = histogram_total h in
  if total = 0 then 0.0
  else float_of_int (h.alu + h.jmp) /. float_of_int total
