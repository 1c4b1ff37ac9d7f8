(* KASAN-style shadow memory for the simulated kernel address space.

   One shadow byte tracks each 8-byte granule of the address space:
   0 means the whole granule is addressable, 1..7 that only the first N
   bytes are, and dedicated poison codes mark redzones, freed memory and
   unallocated space.  The sanitizing functions the paper adds to the
   kernel (the bpf_asan functions) consult exactly this structure, as do the
   KASAN-instrumented kernel routines. *)

let granule = 8

type poison =
  | Addressable of int (* 1..7: partial granule *)
  | Fully_addressable
  | Redzone
  | Freed
  | Unallocated

(* Internal byte encoding, mirroring KASAN's. *)
let code_of_poison = function
  | Fully_addressable -> 0
  | Addressable n ->
    if n < 1 || n > 7 then invalid_arg "Shadow: partial granule size" else n
  | Redzone -> 0xFA
  | Freed -> 0xFB
  | Unallocated -> 0xFE

let poison_of_code = function
  | 0 -> Fully_addressable
  | n when n >= 1 && n <= 7 -> Addressable n
  | 0xFA -> Redzone
  | 0xFB -> Freed
  | _ -> Unallocated

(* Shadow codes keyed by granule number.  [Int64.div] by 8 maps every
   address into the range of [int] and distinct granules to distinct
   keys, so the table compares plain ints; a granule number is its own
   hash, which spreads the runs of adjacent granules an allocation
   marks over adjacent buckets. *)
module Granules = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash (g : int) = g land max_int
  end)

type t = { table : int Granules.t }

let create () = { table = Granules.create 4096 }

let granule_of (addr : int64) : int =
  Int64.to_int (Int64.div addr (Int64.of_int granule))

let code_at (t : t) (addr : int64) : int =
  match Granules.find_opt t.table (granule_of addr) with
  | Some c -> c
  | None -> code_of_poison Unallocated

let poison_at (t : t) (addr : int64) : poison = poison_of_code (code_at t addr)

let set_granule (t : t) (g : int) (p : poison) : unit =
  match p with
  | Unallocated -> Granules.remove t.table g
  | _ -> Granules.replace t.table g (code_of_poison p)

(* Mark [size] bytes starting at [addr] as addressable.  [addr] must be
   granule-aligned (allocations in the simulated kernel always are); a
   trailing partial granule is encoded with its valid prefix length. *)
let unpoison (t : t) ~(addr : int64) ~(size : int) : unit =
  if Int64.rem addr (Int64.of_int granule) <> 0L then
    invalid_arg "Shadow.unpoison: unaligned base";
  let full = size / granule in
  let rest = size mod granule in
  let g0 = granule_of addr in
  for i = 0 to full - 1 do
    set_granule t (g0 + i) Fully_addressable
  done;
  if rest > 0 then set_granule t (g0 + full) (Addressable rest)

(* Poison [size] bytes (rounded up to whole granules) with [p]. *)
let poison (t : t) ~(addr : int64) ~(size : int) (p : poison) : unit =
  if Int64.rem addr (Int64.of_int granule) <> 0L then
    invalid_arg "Shadow.poison: unaligned base";
  let granules = (size + granule - 1) / granule in
  let g0 = granule_of addr in
  for i = 0 to granules - 1 do
    set_granule t (g0 + i) p
  done

type violation = { bad_addr : int64; bad_poison : poison }

(* KASAN access check: every byte of [addr, addr+size) must be
   addressable.  Returns the first offending address and its poison. *)
let check (t : t) ~(addr : int64) ~(size : int) : (unit, violation) result =
  let rec byte i =
    if i >= size then Ok ()
    else begin
      let a = Int64.add addr (Int64.of_int i) in
      let within = Int64.to_int (Int64.rem a (Int64.of_int granule)) in
      let within = if within < 0 then within + granule else within in
      match poison_of_code (code_at t a) with
      | Fully_addressable ->
        (* whole granule valid: skip to its end *)
        byte (i + (granule - within))
      | Addressable n when within < n -> byte (i + (n - within))
      | Addressable _ | Redzone | Freed | Unallocated ->
        Error { bad_addr = a; bad_poison = poison_of_code (code_at t a) }
    end
  in
  if size <= 0 then Ok () else byte 0

let poison_to_string = function
  | Fully_addressable -> "addressable"
  | Addressable n -> Printf.sprintf "partial(%d)" n
  | Redzone -> "redzone"
  | Freed -> "use-after-free"
  | Unallocated -> "wild-access"
