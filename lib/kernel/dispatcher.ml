(* The XDP dispatcher: a trampoline table mapping attach slots to
   programs, updated when programs are attached or detached.

   Injected Bug#7: the real bug was a missing synchronization between
   dispatcher image updates and concurrent executions, so an execution
   could dereference a slot that the update had already cleared.  We
   model the race window deterministically: with the bug present, the
   second and every subsequent *replacement* update leaves one stale
   NULL slot that the next dispatch dereferences. *)

type t = {
  mutable slots : int option array; (* attached program ids *)
  mutable update_count : int;
  mutable stale_null : bool;
}

let n_slots = 4

let create () =
  { slots = Array.make n_slots None; update_count = 0; stale_null = false }

(* Attach [prog_id]; returns false when all slots are busy. *)
let attach ?(bug7 = false) (t : t) ~(prog_id : int) : bool =
  t.update_count <- t.update_count + 1;
  if bug7 && t.update_count >= 2 then t.stale_null <- true;
  let rec place i =
    if i >= n_slots then false
    else
      match t.slots.(i) with
      | None ->
        t.slots.(i) <- Some prog_id;
        true
      | Some _ -> place (i + 1)
  in
  place 0

(* Dispatch an incoming event to the program in slot 0.  With the Bug#7
   race window armed, the dispatch dereferences the stale NULL slot. *)
let dispatch (t : t) : (int option, Report.t) result =
  if t.stale_null then begin
    t.stale_null <- false;
    Error
      (Report.make (Report.Kernel_routine "bpf_dispatcher_xdp_func")
         (Report.Mem_fault
            { Kmem.faccess = Kmem.Read; faddr = 0L; fsize = 8;
              fkind = Kmem.Null_deref; fregion = Some "dispatcher_slot" }))
  end
  else Ok (Array.fold_left
             (fun acc s -> match acc with Some _ -> acc | None -> s)
             None t.slots)
