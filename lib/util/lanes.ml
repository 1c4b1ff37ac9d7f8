(* Lanes: run independent tasks on at most one domain per core, the
   calling domain included.

   Spawning one domain per task and parking the caller in [Domain.join]
   oversubscribes the cores: every stop-the-world minor collection has
   to wait until each domain, the parked caller's backup thread among
   them, gets a core to reach the barrier, and the running domains spin
   meanwhile.  Here the caller is lane 0 and works like any other lane,
   so no domain sits idle while holding a place in the collector's
   rendezvous.

   Lane [k] of [d] runs tasks [k], [k + d], [k + 2d], ... in order.
   Which lane runs a task, and in what order the lanes interleave, must
   not matter to the caller: tasks share no mutable state. *)

let count ~(tasks : int) : int =
  max 1 (min tasks (Domain.recommended_domain_count ()))

let run ?(prof = Prof.disabled) ~(tasks : int) (f : int -> 'a) :
  ('a, exn) result array =
  if tasks < 0 then invalid_arg "Lanes.run: tasks < 0";
  let d = count ~tasks in
  (* every slot is written before it is read: each task index belongs
     to exactly one lane *)
  let results = Array.make tasks (Error Exit) in
  let lane (k : int) () : unit =
    let i = ref k in
    while !i < tasks do
      results.(!i) <- (try Ok (f !i) with e -> Error e);
      i := !i + d
    done
  in
  (* each element finishes one lane: joins its domain, or runs the lane
     here when no domain could be spawned for it *)
  let finish =
    Prof.span prof "spawn" (fun () ->
        List.init (d - 1) (fun k ->
            match Domain.spawn (lane (k + 1)) with
            | dom -> fun () -> Domain.join dom
            | exception _ -> lane (k + 1)))
  in
  lane 0 ();
  Prof.span prof "join" (fun () -> List.iter (fun f -> f ()) finish);
  results
