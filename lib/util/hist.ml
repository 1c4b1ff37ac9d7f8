(* Fixed-bucket integer histogram (see hist.mli): k ascending upper
   bounds, k + 1 counters, nothing that grows with the samples.
   [quantile] ranks like Percentile and answers with a bucket bound. *)

type t = { bounds : int array; counts : int array }

let create (bounds : int array) : t =
  { bounds; counts = Array.make (Array.length bounds + 1) 0 }

(* binary search for the number of bounds <= v; a top-level loop, so
   [add] allocates nothing *)
let index (h : t) (v : int) : int =
  let lo = ref 0 and hi = ref (Array.length h.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if v < h.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let add (h : t) (v : int) : unit =
  let i = index h v in
  h.counts.(i) <- h.counts.(i) + 1

let absorb (into : t) (src : t) : unit =
  if into.bounds <> src.bounds then
    invalid_arg "Hist.absorb: different ladders";
  Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) src.counts

let total (h : t) : int = Array.fold_left ( + ) 0 h.counts

let upper (h : t) (i : int) : int =
  if i < Array.length h.bounds then h.bounds.(i) else max_int

let quantile (h : t) (p : int) : int =
  let n = total h in
  if n = 0 then 0
  else begin
    let rank = p * (n - 1) / 100 in
    let i = ref 0 and seen = ref h.counts.(0) in
    while !seen <= rank do
      incr i;
      seen := !seen + h.counts.(!i)
    done;
    upper h !i
  end

let count_le (h : t) (x : int) : int =
  let n = ref 0 and i = ref 0 in
  while !i < Array.length h.counts && upper h !i <= x do
    n := !n + h.counts.(!i);
    incr i
  done;
  !n

let buckets (h : t) : (int * int) list =
  List.mapi (fun i n -> (i, n)) (Array.to_list h.counts)
  |> List.filter (fun (_, n) -> n > 0)
