(* Deterministic PRNG (splitmix64) so fuzzing campaigns, tests and
   benches are reproducible from a seed. *)

(* The one int64 of state lives unboxed in 8 bytes (native byte order:
   only this module reads it back), so advancing the stream allocates
   no box the way a mutable [int64] field would. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Snapshot/restore of the stream position: the entire generator state
   is one int64, so checkpointing a campaign (or replaying a test from a
   known position) is a single word. *)
let state (t : t) : int64 = get64 t 0

let of_state (s : int64) : t =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create (seed : int) : t = of_state (Int64.of_int (seed * 2654435761 + 1))

let[@inline] next (t : t) : int64 =
  let z = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform int in [0, n): the draw read as unsigned, modulo [n].  A
   draw with its sign bit clear takes the signed remainder, which is
   the same value; one with it set halves the draw, divides and fixes
   up the remainder as [Int64.unsigned_rem] does.  Both stay unboxed. *)
let int (t : t) (n : int) : int =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let x = next t and d = Int64.of_int n in
  if x >= 0L then Int64.to_int (Int64.rem x d)
  else begin
    let q =
      Int64.shift_left (Int64.div (Int64.shift_right_logical x 1) d) 1
    in
    let r = Int64.sub x (Int64.mul q d) in
    Int64.to_int (if r >= d then Int64.sub r d else r)
  end

let bool (t : t) : bool = Int64.logand (next t) 1L = 1L

(* True with probability [p]. *)
let chance (t : t) (p : float) : bool =
  let u =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    /. 9007199254740992.0
  in
  u < p

let choose (t : t) (xs : 'a list) : 'a =
  match xs with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth xs (int t (List.length xs))

(* [choose t (Array.to_list a)]: the same draw picks the same element. *)
let pick (t : t) (a : 'a array) : 'a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  Array.unsafe_get a (int t (Array.length a))

let choose_opt (t : t) (xs : 'a list) : 'a option =
  match xs with [] -> None | _ -> Some (choose t xs)

(* Set bits of a mask [m >= 0], by index. *)
let rec popcount (m : int) (n : int) : int =
  if m = 0 then n else popcount (m land (m - 1)) (n + 1)

let rec highest_from (m : int) (i : int) : int =
  if m lsr i = 1 then i else highest_from m (i + 1)

let highest_bit (m : int) : int = highest_from m 0

(* Clear the [k] lowest set bits of [m]. *)
let rec drop_low (m : int) (k : int) : int =
  if k = 0 then m else drop_low (m land (m - 1)) (k - 1)

(* [choose_opt t l] where [l] lists the set bits of [mask] highest
   first, without building [l]: the same single draw picks the same
   bit, the [k]-th highest of [n] being the [n - 1 - k]-th lowest.  -1
   when [mask] is empty (and then nothing is drawn). *)
let choose_bit (t : t) (mask : int) : int =
  if mask = 0 then -1
  else begin
    let n = popcount mask 0 in
    let m = drop_low mask (n - 1 - int t n) in
    highest_bit (m land -m)
  end

(* Weighted choice: [(weight, value); ...]. *)
let weighted (t : t) (xs : (int * 'a) list) : 'a =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 xs in
  if total <= 0 then invalid_arg "Rng.weighted: no weight";
  let pick = int t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.weighted: unreachable"
    | (w, v) :: rest -> if pick < acc + w then v else go (acc + w) rest
  in
  go 0 xs

(* Values that historically find bugs: boundaries and magic constants. *)
let interesting_int64 =
  [ 0L; 1L; -1L; 2L; 7L; 8L; 255L; 256L; 4095L; 4096L;
    0x7FFF_FFFFL; 0x8000_0000L; 0xFFFF_FFFFL; 0x1_0000_0000L;
    Int64.max_int; Int64.min_int ]

let interesting_array = Array.of_list interesting_int64

let interesting (t : t) : int64 =
  if chance t 0.5 then pick t interesting_array
  else Int64.of_int (int t 512 - 256)
