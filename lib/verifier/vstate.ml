open Vimport

(* Verifier state: register file and stack for each call frame, plus the
   acquired-reference and spin-lock bookkeeping, mirroring the kernel's
   bpf_verifier_state / bpf_func_state.

   Representation is chosen for the analyzer's hot path: frames live in
   a fixed-capacity array indexed by frame number (the kernel's
   frame[MAX_CALL_FRAMES]), the per-byte stack classification is a
   [Bytes.t] so the pruning comparison runs a word at a time, and
   spilled registers sit in a dense option array.  The pruning probe
   runs [states_equal] on each stored state directly: a free list of
   recycled states and a kind-signature pre-filter were measured to buy
   no end-to-end time (DESIGN.md section 12).

   Live stack region: a frame keeps only the stack it has written.  Its
   [base] (a multiple of 8) is the lowest written index rounded down to
   a word, the kernel's allocated_stack counted from the bottom; [stack]
   holds the tags of bytes [base, stack_bytes) and [spills] the slots
   [base / 8, spill_slots).  Below [base] every byte reads as
   [b_invalid] and every slot as [None] by construction, not by an
   invariant kept in place.  A write below [base] reallocates exactly
   down to the written word; a frame with nothing written has
   [base = stack_bytes] and empty buffers.  Programs mostly touch the
   top of the 512 bytes, so a frame is a few words, not a page.

   A state copy pays only for what it changes: [copy] copies each
   frame's registers (nearly every instruction writes one) but shares
   the stack and spill buffers, marking both frames [shared].  Every
   write to a buffer goes through [own] first, which copies the buffers
   of a shared frame; nothing outside this module touches them.  Only
   frames below [nframes] are ever copied, so the global [dummy_frame]
   is never shared between states or domains. *)

(* Stack byte classification, one char per byte.  The codes matter only
   relative to each other; see [byte_ok] for the subsumption lattice.
   [b_invalid] must stay '\000': the pruning walk reads a word below a
   frame's [base] as [0L]. *)
let b_invalid = '\000' (* STACK_INVALID: never written *)
let b_misc = '\001'    (* STACK_MISC: written, unknown bytes *)
let b_zero = '\002'    (* STACK_ZERO: known-zero bytes *)
let b_spill = '\003'   (* STACK_SPILL: part of a tracked register spill *)

type frame = {
  mutable frameno : int;
  regs : Regstate.t array;                  (* R0..R10 *)
  mutable stack : Bytes.t;                  (* index i = fp-512+base+i *)
  mutable spills : Regstate.t option array; (* slot base/8+s -> reg *)
  mutable base : int;      (* live region [base, 512); see above *)
  mutable shared : bool;   (* buffers may be another frame's too *)
  mutable callsite : int;  (* pc to return to; -1 in frame 0 *)
}

(* Fixed capacity: the analyzer rejects at [Venv.max_call_depth] (4)
   frames, so 8 slots is comfortable headroom. *)
let max_frames = 8

type t = {
  mutable frames : frame array; (* slots 0..nframes-1 live; frameno = index *)
  mutable nframes : int;
  mutable refs : int list;      (* acquired reference ids *)
  mutable active_lock : int option; (* map id whose lock is held *)
}

let stack_bytes = Prog.stack_size
let spill_slots = stack_bytes / 8

let new_frame ~(frameno : int) ~(callsite : int) : frame =
  let regs = Array.make 11 Regstate.not_init in
  regs.(10) <- Regstate.fp frameno;
  { frameno; regs; stack = Bytes.empty; spills = [||]; base = stack_bytes;
    shared = false; callsite }

let copy_frame (f : frame) : frame =
  f.shared <- true;
  { frameno = f.frameno; regs = Array.copy f.regs; stack = f.stack;
    spills = f.spills; base = f.base; shared = true; callsite = f.callsite }

(* Make [f]'s buffers its own before a write. *)
let own (f : frame) : unit =
  if f.shared then begin
    f.stack <- Bytes.copy f.stack;
    f.spills <- Array.copy f.spills;
    f.shared <- false
  end

(* Make [f]'s buffers its own and cover stack index [i]: below [base]
   they are reallocated down to [i]'s word, invalid and unspilled. *)
let own_down_to (f : frame) (i : int) : unit =
  if i < f.base then begin
    let nb = i land lnot 7 in
    let grow = f.base - nb in
    let stack = Bytes.make (stack_bytes - nb) b_invalid in
    Bytes.blit f.stack 0 stack grow (Bytes.length f.stack);
    let spills = Array.make (spill_slots - (nb / 8)) None in
    Array.blit f.spills 0 spills (grow / 8) (Array.length f.spills);
    f.stack <- stack;
    f.spills <- spills;
    f.base <- nb;
    f.shared <- false
  end
  else own f

(* Stack tag of byte [i] (0 <= i < stack_bytes) and spill of slot [slot]:
   the readers for code outside this module. *)
let stack_byte (f : frame) (i : int) : char =
  if i < f.base then b_invalid else Bytes.get f.stack (i - f.base)

let spill (f : frame) (slot : int) : Regstate.t option =
  let s = slot - (f.base / 8) in
  if s < 0 then None else f.spills.(s)

(* [fn slot r] for every tracked spill of [f], lowest slot first. *)
let iter_spills (f : frame) (fn : int -> Regstate.t -> unit) : unit =
  let first = f.base / 8 in
  Array.iteri
    (fun s -> function Some r -> fn (first + s) r | None -> ())
    f.spills

(* Placeholder for dead frame-array slots.  Shared (never read, never
   written, never copied: only slots below [nframes] are touched). *)
let dummy_frame = new_frame ~frameno:0 ~callsite:(-1)

let empty_state () : t =
  { frames = Array.make max_frames dummy_frame; nframes = 0; refs = [];
    active_lock = None }

let initial ~(ctx : Regstate.t) : t =
  let f = new_frame ~frameno:0 ~callsite:(-1) in
  f.regs.(1) <- ctx;
  let t = empty_state () in
  t.frames.(0) <- f;
  t.nframes <- 1;
  t

let cur_frame (t : t) : frame =
  if t.nframes = 0 then invalid_arg "Vstate.cur_frame: no frames";
  t.frames.(t.nframes - 1)

let frame_count (t : t) : int = t.nframes

(* Frame by frame number ([frameno] always equals its index); the
   innermost frame when out of range, matching the historical
   list-search fallback. *)
let find_frame (t : t) (fno : int) : frame =
  if fno >= 0 && fno < t.nframes then t.frames.(fno) else cur_frame t

let iter_frames (t : t) (fn : frame -> unit) : unit =
  for i = 0 to t.nframes - 1 do
    fn t.frames.(i)
  done

let push_top_frame (t : t) (f : frame) : unit =
  if t.nframes >= max_frames then
    invalid_arg "Vstate.push_top_frame: frame capacity exceeded";
  t.frames.(t.nframes) <- f;
  t.nframes <- t.nframes + 1

let pop_top_frame (t : t) : frame =
  if t.nframes <= 1 then invalid_arg "Vstate.pop_top_frame: no callee";
  let f = t.frames.(t.nframes - 1) in
  t.nframes <- t.nframes - 1;
  f

let copy (t : t) : t =
  let dst = empty_state () in
  dst.nframes <- t.nframes;
  dst.refs <- t.refs;
  dst.active_lock <- t.active_lock;
  for i = 0 to t.nframes - 1 do
    dst.frames.(i) <- copy_frame t.frames.(i)
  done;
  dst

let reg (t : t) (r : Insn.reg) : Regstate.t =
  (cur_frame t).regs.(Insn.reg_to_int r)

let set_reg (t : t) (r : Insn.reg) (v : Regstate.t) : unit =
  let i = Insn.reg_to_int r in
  if i = 10 then invalid_arg "Vstate.set_reg: frame pointer is read-only";
  (cur_frame t).regs.(i) <- v

(* Apply [f] to every register (all frames) sharing nullable-pointer
   [id]: how a null check on one copy updates the others. *)
let map_regs_with_id (t : t) ~(id : int) (fn : Regstate.t -> Regstate.t) :
  unit =
  iter_frames t (fun fr ->
      Array.iteri
        (fun i r ->
           match r.Regstate.kind with
           | Regstate.Ptr p when p.id = id && id <> 0 -> fr.regs.(i) <- fn r
           | _ -> ())
        fr.regs;
      for s = 0 to Array.length fr.spills - 1 do
        match fr.spills.(s) with
        | Some r -> begin
            match r.Regstate.kind with
            | Regstate.Ptr p when p.id = id && id <> 0 ->
              own fr;
              fr.spills.(s) <- Some (fn r)
            | _ -> ()
          end
        | None -> ()
      done)

(* Same, for packet pointers sharing [id] (range propagation). *)
let map_packet_regs (t : t) ~(id : int) (fn : Regstate.t -> Regstate.t) :
  unit =
  iter_frames t (fun fr ->
      Array.iteri
        (fun i r ->
           match r.Regstate.kind with
           | Regstate.Ptr { pk = Regstate.P_packet; id = id'; _ }
             when id' = id ->
             fr.regs.(i) <- fn r
           | _ -> ())
        fr.regs)

(* -- Stack access ------------------------------------------------------ *)

(* Translate a frame-pointer-relative offset (negative) to a stack array
   index. *)
let stack_index (off : int) : int option =
  let i = stack_bytes + off in
  if i >= 0 && i < stack_bytes then Some i else None

(* Record a store of [size] bytes at fp+[off].  A full 8-byte aligned
   store of a register spills it; everything else downgrades the bytes
   to misc/zero and kills any overlapping spill. *)
let stack_write (f : frame) ~(off : int) ~(size : int)
    (stored : Regstate.t) : unit =
  let zero =
    match Regstate.const_value stored with Some 0L -> true | _ -> false
  in
  match stack_index off with
  | None -> ()
  | Some i ->
    own_down_to f i;
    let b = i - f.base in
    if size = 8 && i mod 8 = 0 then begin
      Bytes.fill f.stack b 8 b_spill;
      f.spills.(b / 8) <- Some stored
    end
    else begin
      let c = if zero then b_zero else b_misc in
      for j = b to b + size - 1 do
        f.spills.(j / 8) <- None;
        Bytes.set f.stack j c
      done
    end

(* Read [size] bytes at fp+[off]: the resulting register state, or the
   rejection's reason and message when [off] is off the stack or
   uninitialized bytes are read. *)
let stack_read (f : frame) ~(off : int) ~(size : int) :
  (Regstate.t, Reject_reason.t * string) result =
  match stack_index off with
  | None -> Error (Oob_access, "stack offset out of range")
  | Some base ->
    match (if base mod 8 = 0 then spill f (base / 8) else None) with
    | Some spilled when size = 8 -> Ok spilled
    | Some spilled when Regstate.is_const spilled ->
      (* narrow read at the base of an intact constant spill: on the
         little-endian stack the low [size] bytes ARE the low bytes of
         the constant.  The full-width value is returned; the load path
         truncates it to the access width (Bug12 gates the stale
         pre-fix behavior that skipped that truncation). *)
      Ok spilled
    | _ ->
      let rec scan i all_zero =
        if i >= size then Ok (if all_zero then `Zero else `Misc)
        else
          let c = stack_byte f (base + i) in
          if c = b_invalid then
            Error (Reject_reason.Uninit_access, "invalid read from stack")
          else scan (i + 1) (all_zero && c = b_zero)
      in
      (match scan 0 true with
       | Error e -> Error e
       | Ok `Zero -> Ok (Regstate.const_scalar 0L)
       | Ok `Misc -> Ok Regstate.unknown_scalar)

(* Are [size] bytes at fp+[off] fully initialized (helper Mem_rd args)? *)
let stack_initialized (f : frame) ~(off : int) ~(size : int) : bool =
  match stack_index off with
  | None -> false
  | Some base ->
    let rec go i =
      i >= size
      || (stack_byte f (base + i) <> b_invalid && go (i + 1))
    in
    go 0

(* Mark [size] bytes as written (helper Mem_wr args). *)
let stack_mark_written (f : frame) ~(off : int) ~(size : int) : unit =
  match stack_index off with
  | None -> ()
  | Some i ->
    own_down_to f i;
    let b = i - f.base in
    for j = b to b + size - 1 do
      f.spills.(j / 8) <- None;
      Bytes.set f.stack j b_misc
    done

(* -- Pruning ----------------------------------------------------------- *)

(* The comparison walks are top-level recursive functions, not local
   closures: the probe runs at every jump target against up to
   {!Venv.max_explored_per_insn} stored states, and must not allocate. *)

(* Stack-byte subsumption: invalid old bytes accept anything, misc needs
   any written byte, zero needs zero, spill needs spill. *)
let byte_ok (o : char) (c : char) : bool =
  o = b_invalid || (if o = b_misc then c <> b_invalid else o = c)

(* The walks below take each side's buffer with the stack index its
   first byte stands for ([ob], [cb]; slots [os], [cs]), bound once per
   comparison. *)

let rec word_bytes_ok (o : Bytes.t) (ob : int) (c : Bytes.t) (cb : int)
    (i : int) (stop : int) : bool =
  i >= stop
  || (byte_ok (Bytes.unsafe_get o (i - ob)) (Bytes.unsafe_get c (i - cb))
      && word_bytes_ok o ob c cb (i + 1) stop)

(* Bytes [i, stack_bytes) of [o] subsume those of [c]; [i] is a multiple
   of 8 at or above both bases.  Equal words (the common case) pass on
   one compare. *)
let rec bytes_within (o : Bytes.t) (ob : int) (c : Bytes.t) (cb : int)
    (i : int) : bool =
  i >= stack_bytes
  || ((Bytes.get_int64_ne o (i - ob) = Bytes.get_int64_ne c (i - cb)
       || word_bytes_ok o ob c cb i (i + 8))
      && bytes_within o ob c cb (i + 8))

(* Words [i, stop) of [o] are all invalid: what [o] needs where the
   other side lies below its base.  An invalid word is [0L]. *)
let rec words_invalid (o : Bytes.t) (ob : int) (i : int) (stop : int) :
  bool =
  i >= stop
  || (Bytes.get_int64_ne o (i - ob) = 0L && words_invalid o ob (i + 8) stop)

let rec spills_within (o : Regstate.t option array) (os : int)
    (c : Regstate.t option array) (cs : int) (slot : int) (bug3 : bool) :
  bool =
  slot >= spill_slots
  || ((match o.(slot - os) with
       | None -> true
       | Some old_reg as osp ->
         let csp = if slot < cs then None else c.(slot - cs) in
         osp == csp
         || (match csp with
             | Some cur_reg ->
               Regstate.reg_within ~old:old_reg ~cur:cur_reg ~bug3
             | None ->
               (* old spill may have degraded to misc in cur *)
               (match old_reg.Regstate.kind with
                | Regstate.Scalar -> not old_reg.Regstate.precise
                | _ -> false)))
      && spills_within o os c cs (slot + 1) bug3)

(* Only [old]'s live region needs a look: below [old.base] every byte is
   invalid and every slot empty, which accepts anything.  Below
   [cur.base] every byte of [cur] is invalid, which only an invalid
   byte accepts. *)
let stack_within ~(old : frame) ~(cur : frame) ~(bug3 : bool) : bool =
  let ob = old.base and cb = cur.base in
  let mid = if cb > ob then cb else ob in
  words_invalid old.stack ob ob mid
  && bytes_within old.stack ob cur.stack cb mid
  && spills_within old.spills (ob / 8) cur.spills (cb / 8) (ob / 8) bug3

(* [reg_within] is reflexive, so a shared register value passes on a
   pointer compare. *)
let rec regs_within (o : Regstate.t array) (c : Regstate.t array) (i : int)
    (bug3 : bool) : bool =
  i > 10
  || ((o.(i) == c.(i) || Regstate.reg_within ~old:o.(i) ~cur:c.(i) ~bug3)
      && regs_within o c (i + 1) bug3)

let frame_within ~(old : frame) ~(cur : frame) ~(bug3 : bool) : bool =
  old.callsite = cur.callsite
  && regs_within old.regs cur.regs 0 bug3
  && stack_within ~old ~cur ~bug3

let rec frames_within (old : t) (cur : t) (i : int) (bug3 : bool) : bool =
  i >= old.nframes
  || (frame_within ~old:old.frames.(i) ~cur:cur.frames.(i) ~bug3
      && frames_within old cur (i + 1) bug3)

let states_equal ~(old : t) ~(cur : t) ~(bug3 : bool) : bool =
  old.nframes = cur.nframes
  && old.active_lock = cur.active_lock
  && List.compare_lengths old.refs cur.refs = 0
  && frames_within old cur 0 bug3

(* -- Widening (bounded-loop verification) ------------------------------ *)

(* Widen a stored loop-head state [old] against an incoming state
   [cur]: a fresh state subsuming both under [states_equal], or [None]
   when the pair diverges structurally (frame shape, bookkeeping, or a
   register pair no sound widening covers) and the analyzer must fall
   back to unrolling.

   Register pairs widen through [Regstate.widen].  Stack bytes join
   down the classification lattice: equal bytes stay, any side
   never-written makes the byte never-written (a read must still
   reject — the kernel's STACK_INVALID meet), and any other
   disagreement degrades to written-unknown.  A spill slot present on
   both sides widens as a register; a slot [old] tracked but [cur]
   lost degrades to untracked (its bytes are handled by the byte
   rule). *)
let widen_state ~(th : Regstate.thresholds) ~(force : bool) ~(old : t) ~(cur : t) : t option =
  if
    old.nframes <> cur.nframes
    || old.active_lock <> cur.active_lock
    || List.compare_lengths old.refs cur.refs <> 0
  then None
  else begin
    let out = copy old in
    try
      for i = 0 to old.nframes - 1 do
        let of_ = old.frames.(i)
        and cf = cur.frames.(i)
        and wf = out.frames.(i) in
        if of_.callsite <> cf.callsite then raise Exit;
        for r = 0 to 10 do
          match
            Regstate.widen ~th ~force ~old:of_.regs.(r) ~cur:cf.regs.(r)
          with
          | Some w -> wf.regs.(r) <- w
          | None -> raise Exit
        done;
        (* below [of_.base] the old side is invalid and unspilled, so
           the join leaves the copy's bytes and slots as they are: the
           widened frame keeps [of_.base].  [wf] shares [of_]'s buffers
           until a byte or slot actually moves. *)
        let wb = wf.base in
        for b = wb to stack_bytes - 1 do
          let ob = stack_byte of_ b and cb = stack_byte cf b in
          let jb =
            if ob = cb then ob
            else if ob = b_invalid || cb = b_invalid then b_invalid
            else b_misc
          in
          if jb <> ob then begin
            own wf;
            Bytes.set wf.stack (b - wb) jb
          end
        done;
        for slot = wb / 8 to spill_slots - 1 do
          match spill of_ slot, spill cf slot with
          | None, _ -> ()
          | Some _, None ->
            own wf;
            wf.spills.(slot - (wb / 8)) <- None
          | Some o, Some c -> (
            match Regstate.widen ~th ~force ~old:o ~cur:c with
            | Some w when w == o -> ()
            | Some w ->
              own wf;
              wf.spills.(slot - (wb / 8)) <- Some w
            | None ->
              own wf;
              wf.spills.(slot - (wb / 8)) <- None)
        done
      done;
      Some out
    with Exit -> None
  end
