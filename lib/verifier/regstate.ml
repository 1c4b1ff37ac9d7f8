open Vimport

(* Abstract register state: the heart of the verifier's analysis.

   Mirrors the kernel's struct bpf_reg_state: a register is either
   uninitialized, a scalar tracked by a tnum plus signed/unsigned 64-bit
   ranges, or a typed pointer with a constant offset component [off], a
   variable offset [var_off]+ranges, an optional maybe_null flag with an
   [id] linking copies of the same nullable value, and for packet
   pointers a proven [range] against data_end. *)

type map_info = {
  mi_fd : int;
  mi_type : Map.map_type;
  mi_key_size : int;
  mi_value_size : int;
  mi_max_entries : int;
  mi_has_spin_lock : bool;
}

let map_info_of_def ~(fd : int) (d : Map.def) : map_info =
  {
    mi_fd = fd;
    mi_type = d.Map.mtype;
    mi_key_size = d.Map.key_size;
    mi_value_size = d.Map.value_size;
    mi_max_entries = d.Map.max_entries;
    mi_has_spin_lock = d.Map.has_spin_lock;
  }

type ptr_kind =
  | P_ctx
  | P_stack of int (* frame number *)
  | P_map_ptr of map_info
  | P_map_value of map_info
  | P_btf of Btf.desc
  | P_packet
  | P_packet_end
  | P_mem of int (* dynamically allocated memory of known size (ringbuf) *)

let ptr_kind_name = function
  | P_ctx -> "ctx"
  | P_stack _ -> "fp"
  | P_map_ptr _ -> "map_ptr"
  | P_map_value _ -> "map_value"
  | P_btf d -> "ptr_" ^ d.Btf.btf_name
  | P_packet -> "pkt"
  | P_packet_end -> "pkt_end"
  | P_mem _ -> "ringbuf_mem"

type ptr_info = { pk : ptr_kind; maybe_null : bool; id : int; ref_id : int }

type rkind =
  | Not_init
  | Scalar
  | Ptr of ptr_info

type t = {
  kind : rkind;
  off : int;          (* constant offset component (pointers) *)
  var_off : Tnum.t;   (* variable offset (pointers) / value (scalars) *)
  smin : int64;
  smax : int64;
  umin : int64;
  umax : int64;
  range : int;        (* packet pointers: proven bytes beyond off *)
  precise : bool;     (* scalar feeds a pointer offset or size *)
  from_kfunc : bool;  (* scalar produced by a kfunc call (Bug#3 hook) *)
}

let not_init : t =
  { kind = Not_init; off = 0; var_off = Tnum.unknown; smin = Int64.min_int;
    smax = Int64.max_int; umin = 0L; umax = -1L (* U64_MAX *); range = 0;
    precise = false; from_kfunc = false }

let unknown_scalar : t =
  { not_init with kind = Scalar }

let make_const (v : int64) : t =
  { kind = Scalar; off = 0; var_off = Tnum.const v; smin = v; smax = v;
    umin = v; umax = v; range = 0; precise = false; from_kfunc = false }

(* One shared record per small constant, built once: every immediate an
   ALU op, a conditional jump or a store reads would otherwise build a
   fresh one on every visit.  [t] has no mutable field, so a record can
   serve every load in every domain. *)
let small_consts : t array =
  Array.init 1024 (fun i -> make_const (Int64.of_int (i - 512)))

(* [v] in [-512, 512) reads the table; any other builds its record. *)
let const_scalar (v : int64) : t =
  if v >= -512L && v < 512L then small_consts.(Int64.to_int v + 512)
  else make_const v

let pointer ?(maybe_null = false) ?(id = 0) ?(ref_id = 0) ?(off = 0)
    (pk : ptr_kind) : t =
  { kind = Ptr { pk; maybe_null; id; ref_id }; off;
    var_off = Tnum.const 0L; smin = 0L; smax = 0L; umin = 0L; umax = 0L;
    range = 0; precise = false; from_kfunc = false }

let fp (frameno : int) : t = pointer (P_stack frameno)
let ctx_pointer : t = pointer P_ctx

let is_init (r : t) : bool = r.kind <> Not_init
let is_scalar (r : t) : bool = r.kind = Scalar

let is_pointer (r : t) : bool =
  match r.kind with Ptr _ -> true | Scalar | Not_init -> false

let ptr_kind (r : t) : ptr_kind option =
  match r.kind with
  | Ptr p -> Some p.pk
  | Scalar | Not_init -> None

let is_maybe_null (r : t) : bool =
  match r.kind with
  | Ptr p -> p.maybe_null
  | Scalar | Not_init -> false

let is_const (r : t) : bool = is_scalar r && Tnum.is_const r.var_off

let const_value (r : t) : int64 option =
  if is_const r then Some r.var_off.Tnum.value else None

(* -- Bounds bookkeeping (kernel __update_reg_bounds and friends) ------ *)

(* The three bounds steps below return [r] itself when no field changes,
   so a stable register costs [sync] no allocation.  They bind each
   bound on its own (no tuples) and compare unsigned through these
   local helpers, so the intermediate words stay unboxed. *)

let[@inline] ule (a : int64) (b : int64) : bool =
  Int64.add a Int64.min_int <= Int64.add b Int64.min_int

(* On a tie these return [a], the register's own (already boxed) field,
   so a bound that does not move costs no box. *)
let[@inline] umax_of (a : int64) (b : int64) : int64 =
  if ule b a then a else b

let[@inline] umin_of (a : int64) (b : int64) : int64 =
  if ule a b then a else b

let[@inline] smax_of (a : int64) (b : int64) : int64 = if b > a then b else a
let[@inline] smin_of (a : int64) (b : int64) : int64 = if b < a then b else a

let[@inline] with_bounds (r : t) (smin : int64) (smax : int64)
    (umin : int64) (umax : int64) : t =
  if smin = r.smin && smax = r.smax && umin = r.umin && umax = r.umax then r
  else { r with smin; smax; umin; umax }

(* Refresh min/max from var_off knowledge. *)
let update_bounds (r : t) : t =
  let tmin = r.var_off.Tnum.value in
  let tmax = Int64.logor tmin r.var_off.Tnum.mask in
  (* signed bounds from tnum only when the sign bit is known *)
  let sign_known = Int64.logand r.var_off.Tnum.mask Int64.min_int = 0L in
  with_bounds r
    (if sign_known then smax_of r.smin tmin else r.smin)
    (if sign_known then smin_of r.smax tmax else r.smax)
    (umax_of r.umin tmin) (umin_of r.umax tmax)

(* Cross-deduce signed and unsigned bounds (kernel __reg_deduce_bounds,
   simplified to the sound core). *)
let deduce_bounds (r : t) : t =
  let smin = r.smin and smax = r.smax in
  (* if the signed range does not cross the sign boundary, it constrains
     the unsigned range *)
  let one_sign = smin >= 0L || smax < 0L in
  let umin = if one_sign then umax_of r.umin smin else r.umin in
  let umax = if one_sign then umin_of r.umax smax else r.umax in
  (* an unsigned range entirely below the sign boundary, or entirely
     above it (as signed both negative), constrains the signed one *)
  let one_half = ule umax Int64.max_int || ule Int64.min_int umin in
  with_bounds r
    (if one_half then smax_of smin umin else smin)
    (if one_half then smin_of smax umax else smax)
    umin umax

(* Shrink var_off using the unsigned range. *)
let bound_offset (r : t) : t =
  let var_off = Tnum.intersect_range r.var_off ~min:r.umin ~max:r.umax in
  if var_off == r.var_off then r else { r with var_off }

(* One propagation round is not a fixpoint: bound_offset can shrink
   var_off below the unsigned range (e.g. umin=1, umax=2 with
   var_off={0;mask=5} intersects down to {0;mask=1}, whose hull tops out
   at 1 < umax), and the tightened tnum then implies tighter ranges that
   the single pass never re-derives.  Iterate the kernel's
   update/deduce/bound trio until stable — the domains are finite
   lattices and every step only tightens, so this terminates (bounded
   anyway, defensively).  Every step moves each field one way only, so
   a round that ends where it started changed nothing: it returned its
   input itself, and that is the fixpoint test. *)
let sync_round (r : t) : t = bound_offset (deduce_bounds (update_bounds r))

let equal_bounds (a : t) (b : t) : bool =
  a.smin = b.smin && a.smax = b.smax && a.umin = b.umin && a.umax = b.umax
  && Tnum.equal a.var_off b.var_off

let rec sync_fix (r : t) (n : int) : t =
  let r' = sync_round r in
  if n = 0 || r' == r then r' else sync_fix r' (n - 1)

let sync (r : t) : t = sync_fix r 8

(* An impossible range means the verifier followed a dead branch. *)
let is_bottom (r : t) : bool =
  is_scalar r && (r.smin > r.smax || Word.ugt r.umin r.umax)

let scalar_of_tnum (t : Tnum.t) : t =
  sync { unknown_scalar with var_off = t; umin = Tnum.umin t;
         umax = Tnum.umax t }

(* Scalar with the given unsigned range. *)
let scalar_range ~(umin : int64) ~(umax : int64) : t =
  sync { unknown_scalar with umin; umax;
         var_off = Tnum.range ~min:umin ~max:umax }

(* Mark as 32-bit: value was zero-extended from 32 bits. *)
let truncate32 (r : t) : t =
  let var_off = Tnum.cast r.var_off ~size:4 in
  sync
    { r with var_off; umin = Tnum.umin var_off; umax = Tnum.umax var_off;
      smin = Int64.min_int; smax = Int64.max_int }

(* -- Comparison for state pruning ------------------------------------- *)

(* Is [cur] safe assuming [old] was verified safe?  (old subsumes cur) *)
let reg_within ~(old : t) ~(cur : t) ~(bug3 : bool) : bool =
  match old.kind, cur.kind with
  | Not_init, _ -> true (* old tolerated anything *)
  | Scalar, Scalar ->
    (* We conservatively treat every scalar as precise (the kernel
       prunes more aggressively using precision backtracking; skipping
       that machinery only costs extra exploration, never soundness). *)
    if bug3 && old.from_kfunc then
      (* Bug#3: backtracking failed to mark kfunc results precise, so
         the buggy pruning treats them as interchangeable *)
      true
    else
      old.smin <= cur.smin && old.smax >= cur.smax
      && Word.ule old.umin cur.umin && Word.uge old.umax cur.umax
      && Tnum.subset ~of_:old.var_off cur.var_off
  | Ptr op, Ptr cp ->
    op.pk = cp.pk && old.off = cur.off
    && Tnum.equal old.var_off cur.var_off
    && (op.maybe_null || not cp.maybe_null)
    && cur.range >= old.range
  | Scalar, (Not_init | Ptr _)
  | Ptr _, (Not_init | Scalar) -> false

(* -- Widening (bounded-loop verification) ------------------------------ *)

(* Threshold sets for range widening, kernel-of-the-Apron-idiom: when a
   bound escapes during a loop, it jumps outward to the next threshold
   instead of creeping one step per iteration.  The fixed part covers 0,
   ±1 and the type-width extrema; the caller adds the branch constants
   harvested from the program under analysis, which is what lets a
   counted loop's exit test converge exactly at its bound. *)
type thresholds = {
  th_signed : int64 array;   (* signed: least first, greatest last *)
  th_unsigned : int64 array; (* unsigned: least first, greatest last *)
}

let signed_base =
  [| Int64.min_int; Int64.of_int32 Int32.min_int; -1L; 0L; 1L;
     Int64.of_int32 Int32.max_int; Int64.max_int |]

let unsigned_base = [| 0L; 1L; 0xFFFF_FFFFL; -1L (* U64_MAX *) |]

(* [base] and [consts] as one array, neither sorted nor deduplicated:
   [th_floor] and [th_ceil] scan every element anyway.  They start from
   the first and the last element, so [base]'s least element (its
   first) stays first and its greatest (its last) goes last. *)
let threshold_set (base : int64 array) (consts : int64 array) :
  int64 array =
  let nb = Array.length base and nc = Array.length consts in
  let a = Array.make (nb + nc) base.(nb - 1) in
  Array.blit base 0 a 0 (nb - 1);
  Array.blit consts 0 a (nb - 1) nc;
  a

let thresholds_of_consts (consts : int64 array) : thresholds =
  {
    th_signed = threshold_set signed_base consts;
    th_unsigned = threshold_set unsigned_base consts;
  }

let mk_thresholds (consts : int64 list) : thresholds =
  thresholds_of_consts (Array.of_list consts)

let no_thresholds : thresholds = mk_thresholds []

(* Largest threshold <= x / smallest >= x under [cmp].  The sets start
   with the least value and end with the greatest, so the searches
   always succeed. *)
let th_floor (a : int64 array) cmp (x : int64) : int64 =
  let best = ref a.(0) in
  for i = 1 to Array.length a - 1 do
    let t = a.(i) in
    if cmp t x <= 0 && cmp t !best >= 0 then best := t
  done;
  !best

let th_ceil (a : int64 array) cmp (x : int64) : int64 =
  let last = Array.length a - 1 in
  let best = ref a.(last) in
  for i = 0 to last - 1 do
    let t = a.(i) in
    if cmp t x >= 0 && cmp t !best <= 0 then best := t
  done;
  !best

(* Widen [old] against [cur], both scalars: any bound of [cur] that
   escaped [old]'s jumps to the next threshold outward; stable bounds
   keep [old]'s value.  The tnum widens bit-wise (Tnum.widen) and the
   result is re-synced — [sync] is monotone field-wise and both inputs
   are sync-stable, so the sync never pulls the result back below
   either input and the widened register stays [C_sync_stable]. *)
let widen_scalar ~(th : thresholds) ~(old : t) ~(cur : t) : t =
  let scmp = Int64.compare and ucmp = Int64.unsigned_compare in
  let smin =
    if old.smin <= cur.smin then old.smin
    else th_floor th.th_signed scmp cur.smin
  and smax =
    if old.smax >= cur.smax then old.smax
    else th_ceil th.th_signed scmp cur.smax
  and umin =
    if Word.ule old.umin cur.umin then old.umin
    else th_floor th.th_unsigned ucmp cur.umin
  and umax =
    if Word.uge old.umax cur.umax then old.umax
    else th_ceil th.th_unsigned ucmp cur.umax
  in
  sync
    { kind = Scalar; off = 0;
      var_off = Tnum.widen old.var_off cur.var_off;
      smin; smax; umin; umax; range = 0;
      precise = old.precise || cur.precise;
      from_kfunc = old.from_kfunc || cur.from_kfunc }

(* Widen one register pair.  [Some w] is a register subsuming both
   (under [reg_within]); [None] means the pair diverges in a way no
   sound scalar widening covers (pointer kind or provenance changed) —
   the analyzer then falls back to unrolling.  With [force] set (the
   last widening round at a loop head) diverging scalars go straight
   to the unknown scalar, which every later scalar is within. *)
let widen ~(th : thresholds) ~(force : bool) ~(old : t) ~(cur : t) :
  t option =
  if reg_within ~old ~cur ~bug3:false then Some old
  else
    match old.kind, cur.kind with
    | Scalar, Scalar ->
      if force then
        Some
          { unknown_scalar with
            precise = old.precise || cur.precise;
            from_kfunc = old.from_kfunc || cur.from_kfunc }
      else Some (widen_scalar ~th ~old ~cur)
    | _, Not_init -> Some not_init
    | (Scalar | Ptr _), (Scalar | Ptr _) -> None
    | Not_init, _ -> Some not_init

let to_string (r : t) : string =
  match r.kind with
  | Not_init -> "?"
  | Scalar ->
    if is_const r then Printf.sprintf "%Ld" r.var_off.Tnum.value
    else
      Printf.sprintf "scalar(umin=%Lu,umax=%Lu,smin=%Ld,smax=%Ld%s)"
        r.umin r.umax r.smin r.smax
        (if Tnum.is_unknown r.var_off then ""
         else ",var_off=" ^ Tnum.to_string r.var_off)
  | Ptr p ->
    Printf.sprintf "%s%s(off=%d%s%s)" (ptr_kind_name p.pk)
      (if p.maybe_null then "_or_null" else "")
      r.off
      (if Tnum.is_const r.var_off then ""
       else ",var=" ^ Tnum.to_string r.var_off)
      (if r.range > 0 then Printf.sprintf ",r=%d" r.range else "")
