open Vimport

(* Instruction patching infrastructure (kernel bpf_patch_insn_data): a
   rewrite pass replaces single instructions with short sequences, and
   every branch offset in the program is re-targeted accordingly.

   Contract: the replacement list's LAST element is the (possibly
   rewritten) original instruction; branches that targeted the original
   index land on the first inserted instruction, so instrumentation runs
   before the instruction it guards.  Inserted instructions may contain
   small forward jumps that stay within their own group. *)

(* Replacement callback: None keeps the instruction; Some [..; orig']
   replaces it. *)
type rewrite = int -> Insn.t -> Venv.aux -> Insn.t list option

let expand ~(insns : Insn.t array) ~(aux : Venv.aux array) ~(f : rewrite) :
  Insn.t array * Venv.aux array =
  let n = Array.length insns in
  (* every array here is seeded with an immediate or the shared
     [Venv.aux_seed] and then filled, never built by [Array.init] /
     [mapi]: a young seed forces a minor collection above 256 words
     (DESIGN.md section 8).  An empty group keeps the instruction. *)
  let groups = Array.make n [] in
  let group_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    (match f i insns.(i) aux.(i) with
     | Some (_ :: _ as g) -> groups.(i) <- g
     | Some [] | None -> ());
    group_start.(i + 1) <- group_start.(i) + max 1 (List.length groups.(i))
  done;
  let total = group_start.(n) in
  let out = Array.make total Insn.Exit in
  let out_aux = Array.make total Venv.aux_seed in
  (* the original instruction of group [i]: keep its aux, retarget *)
  let place_orig i pos insn =
    out_aux.(pos) <- aux.(i);
    let retarget off = group_start.(i + 1 + off) - (pos + 1) in
    out.(pos) <-
      (match insn with
       | Insn.Jmp j -> Insn.Jmp { j with off = retarget j.off }
       | Insn.Ja off -> Insn.Ja (retarget off)
       | Insn.Call (Insn.Local off) -> Insn.Call (Insn.Local (retarget off))
       | other -> other)
  in
  let rec place i pos = function
    | [] -> place_orig i pos insns.(i)
    | [ orig ] -> place_orig i pos orig
    | inserted :: rest ->
      let a = Venv.fresh_aux () in
      a.Venv.rewritten <- true;
      out_aux.(pos) <- a;
      out.(pos) <- inserted;
      place i (pos + 1) rest
  in
  for i = 0 to n - 1 do
    place i group_start.(i) groups.(i)
  done;
  (out, out_aux)
