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

(* the lane count of the [run] this domain is a lane of; 1 outside *)
let width_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 1)

let width () : int = Domain.DLS.get width_key

let run ?(prof = Prof.disabled) ~(tasks : int) (f : int -> 'a) :
  ('a, exn) result array =
  if tasks < 0 then invalid_arg "Lanes.run: tasks < 0";
  let d = count ~tasks in
  (* every slot is written before it is read: each task index belongs
     to exactly one lane *)
  let results = Array.make tasks (Error Exit) in
  (* a lane cannot raise: every task's exception becomes its result *)
  let lane (k : int) () : unit =
    let outer = width () in
    Domain.DLS.set width_key d;
    let i = ref k in
    while !i < tasks do
      results.(!i) <- (try Ok (f !i) with e -> Error e);
      i := !i + d
    done;
    Domain.DLS.set width_key outer
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

(* The minor heap budget, in words, of the domains running campaigns at
   one time: 4 MB, two of OCaml's default 256k-word heaps.  A campaign
   iteration allocates mostly short-lived verifier state, and at the
   default size 5.6% of iterations absorbed a ~220 us minor collection,
   half of the campaign's latency p90.  One domain at 512k words cut p90
   by 23-25% (6 of 6 paired runs, 2 vCPU); two lanes at 512k words each
   made p50 worse in 8 of 8 runs, so lanes split the budget and a
   two-lane run keeps the default 256k each (DESIGN.md §8.5). *)
let minor_heap_budget = 524_288

(* Per domain: the size it had of its own (at startup, or as last set
   by anyone else) and the size [with_heap_share] last left it at. *)
type held = { mutable own : int; mutable set : int }

let held_key : held Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { own = 0; set = -1 })

let with_heap_share (f : unit -> 'a) : 'a =
  let h = Domain.DLS.get held_key in
  let current = (Gc.get ()).Gc.minor_heap_size in
  if current <> h.set then h.own <- current;
  let share = max h.own (minor_heap_budget / width ()) in
  (* a resize first empties the minor heaps, a stop-the-world collection,
     and maps the new heap afresh, so an unchanged size is never set *)
  if share <> current then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = share };
  h.set <- (Gc.get ()).Gc.minor_heap_size;
  f ()
