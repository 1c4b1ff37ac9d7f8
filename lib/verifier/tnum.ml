open Vimport

(* Tristate numbers: the verifier's bit-level abstract domain, a port of
   the kernel's lib/tnum.c.  A value [{value; mask}] represents every
   concrete 64-bit word that agrees with [value] on the bits cleared in
   [mask]; set bits of [mask] are unknown.  Invariant: value land mask = 0. *)

type t = { value : int64; mask : int64 }

let const (v : int64) : t = { value = v; mask = 0L }
let unknown : t = { value = 0L; mask = -1L }

let is_const (t : t) : bool = t.mask = 0L
let is_unknown (t : t) : bool = t.mask = -1L && t.value = 0L

(* Does abstract value [t] contain concrete [x]? *)
let contains (t : t) (x : int64) : bool =
  Int64.logand x (Int64.lognot t.mask) = t.value

(* Is [b] a subset of [a]?  (every concrete value of b is one of a) *)
let subset ~(of_ : t) (b : t) : bool =
  (* b's known bits must include a's known bits and agree on them *)
  Int64.logand b.mask (Int64.lognot of_.mask) = 0L
  && Int64.logand b.value (Int64.lognot of_.mask) = of_.value

let equal (a : t) (b : t) : bool = a.value = b.value && a.mask = b.mask

(* Smallest/largest unsigned concrete values. *)
let umin (t : t) : int64 = t.value
let umax (t : t) : int64 = Int64.logor t.value t.mask

(* fls64 of [chi > 0]: one more than the index of its highest set bit.
   Below 2^62 the word fits an [int], so the search runs unboxed, by
   halving, with no loop over all 64 bits. *)
let[@inline] fls_pos (chi : int64) : int =
  if Int64.shift_right_logical chi 62 <> 0L then 63
  else begin
    let x = ref (Int64.to_int chi) and n = ref 0 in
    if !x lsr 32 <> 0 then (x := !x lsr 32; n := 32);
    if !x lsr 16 <> 0 then (x := !x lsr 16; n := !n + 16);
    if !x lsr 8 <> 0 then (x := !x lsr 8; n := !n + 8);
    if !x lsr 4 <> 0 then (x := !x lsr 4; n := !n + 4);
    if !x lsr 2 <> 0 then (x := !x lsr 2; n := !n + 2);
    if !x lsr 1 <> 0 then (x := !x lsr 1; n := !n + 1);
    !n + !x
  end

(* The mask of [range ~min ~max]: no unknown bit for one value, every
   bit when the sign bit differs, else every bit up to the highest one
   in which [min] and [max] differ. *)
let[@inline] range_mask (min : int64) (max : int64) : int64 =
  let chi = Int64.logxor min max in
  if chi = 0L then 0L
  else if chi < 0L then -1L
  else Int64.sub (Int64.shift_left 1L (fls_pos chi)) 1L

(* tnum_range: tightest tnum containing the unsigned range [min, max]. *)
let range ~(min : int64) ~(max : int64) : t =
  let m = range_mask min max in
  { value = Int64.logand min (Int64.lognot m); mask = m }

(* [intersect t (range ~min ~max)], and [t] itself when that changes
   nothing, so a stable register's bound refresh allocates nothing. *)
let intersect_range (t : t) ~(min : int64) ~(max : int64) : t =
  let m = range_mask min max in
  let mask = Int64.logand t.mask m in
  let value =
    Int64.logand
      (Int64.logor t.value (Int64.logand min (Int64.lognot m)))
      (Int64.lognot mask)
  in
  if value = t.value && mask = t.mask then t else { value; mask }

let lshift (t : t) (shift : int) : t =
  { value = Int64.shift_left t.value shift;
    mask = Int64.shift_left t.mask shift }

let rshift (t : t) (shift : int) : t =
  { value = Int64.shift_right_logical t.value shift;
    mask = Int64.shift_right_logical t.mask shift }

(* Arithmetic shift right of [t] interpreted at [insn_bitness] bits. *)
let arshift (t : t) (shift : int) ~(bits : int) : t =
  if bits = 32 then
    let sext v =
      Word.sext32 (Int64.shift_right (Word.sext32 v) shift)
    in
    { value = Word.to_u32 (sext t.value); mask = Word.to_u32 (sext t.mask) }
  else
    { value = Int64.shift_right t.value shift;
      mask = Int64.shift_right t.mask shift }

let add (a : t) (b : t) : t =
  let sm = Int64.add a.mask b.mask in
  let sv = Int64.add a.value b.value in
  let sigma = Int64.add sm sv in
  let chi = Int64.logxor sigma sv in
  let mu = Int64.logor chi (Int64.logor a.mask b.mask) in
  { value = Int64.logand sv (Int64.lognot mu); mask = mu }

let sub (a : t) (b : t) : t =
  let dv = Int64.sub a.value b.value in
  let alpha = Int64.add dv a.mask in
  let beta = Int64.sub dv b.mask in
  let chi = Int64.logxor alpha beta in
  let mu = Int64.logor chi (Int64.logor a.mask b.mask) in
  { value = Int64.logand dv (Int64.lognot mu); mask = mu }

let and_ (a : t) (b : t) : t =
  let alpha = Int64.logor a.value a.mask in
  let beta = Int64.logor b.value b.mask in
  let v = Int64.logand a.value b.value in
  { value = v; mask = Int64.logand (Int64.logand alpha beta) (Int64.lognot v) }

let or_ (a : t) (b : t) : t =
  let v = Int64.logor a.value b.value in
  let mu = Int64.logor a.mask b.mask in
  { value = v; mask = Int64.logand mu (Int64.lognot v) }

let xor (a : t) (b : t) : t =
  let v = Int64.logxor a.value b.value in
  let mu = Int64.logor a.mask b.mask in
  { value = Int64.logand v (Int64.lognot mu); mask = mu }

(* Half-multiply: kernel's tnum_mul.  A certain 1 bit of [a] contributes
   the (shifted) whole of [b]; an uncertain bit contributes a fully
   unknown value of [b]'s magnitude. *)
let mul (a : t) (b : t) : t =
  let rec go (a : t) (b : t) (acc : t) : t =
    if a.value = 0L && a.mask = 0L then acc
    else begin
      let acc =
        if Int64.logand a.value 1L = 1L then add acc b
        else if Int64.logand a.mask 1L = 1L then
          add acc { value = 0L; mask = Int64.logor b.value b.mask }
        else acc
      in
      go (rshift a 1) (lshift b 1) acc
    end
  in
  go a b (const 0L)

(* Intersection: both a and b are known to hold. *)
let intersect (a : t) (b : t) : t =
  let v = Int64.logor a.value b.value in
  let mu = Int64.logand a.mask b.mask in
  { value = Int64.logand v (Int64.lognot mu); mask = mu }

(* Union (join): either a or b holds. *)
let union (a : t) (b : t) : t =
  let mu =
    Int64.logor (Int64.logor a.mask b.mask) (Int64.logxor a.value b.value)
  in
  { value = Int64.logand a.value (Int64.lognot mu); mask = mu }

(* Widening: a union that accelerates towards ⊤ so loop analysis
   converges.  Any bit that becomes unknown in the union but was known
   in [a] is treated as a counter bit still climbing: it and every bit
   below it are smeared to unknown at once, so a chain
   [widen a (step a)] stabilizes in at most O(log 64) rounds instead of
   one round per bit.  Extensive by construction — the result's mask
   strictly contains the union's — and idempotent once [a] absorbs
   [b]. *)
let widen (a : t) (b : t) : t =
  let u = union a b in
  if equal u a then a
  else begin
    let grown = Int64.logand u.mask (Int64.lognot a.mask) in
    let rec smear x n =
      if n >= 64 then x
      else smear (Int64.logor x (Int64.shift_right_logical x n)) (2 * n)
    in
    let fill = smear grown 1 in
    { value = Int64.logand u.value (Int64.lognot fill);
      mask = Int64.logor u.mask fill }
  end

(* Truncate to the low [size] bytes (zero extension). *)
let cast (t : t) ~(size : int) : t =
  if size >= 8 then t
  else begin
    let bits = size * 8 in
    let m = Int64.sub (Int64.shift_left 1L bits) 1L in
    { value = Int64.logand t.value m; mask = Int64.logand t.mask m }
  end

let is_aligned (t : t) (size : int64) : bool =
  Int64.logand (Int64.logor t.value t.mask) (Int64.sub size 1L) = 0L

let to_string (t : t) : string =
  if is_const t then Printf.sprintf "%Ld" t.value
  else if is_unknown t then "unknown"
  else Printf.sprintf "(value=%#Lx; mask=%#Lx)" t.value t.mask
