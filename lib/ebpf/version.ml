(* Kernel versions used throughout the reproduction.  The paper evaluates
   Linux v5.15, v6.1 and the bpf-next development branch; features (helpers,
   kfuncs, verifier passes) and injected historical bugs are gated on this
   type. *)

type t = V5_15 | V6_1 | Bpf_next

let all = [ V5_15; V6_1; Bpf_next ]

let to_string = function
  | V5_15 -> "v5.15"
  | V6_1 -> "v6.1"
  | Bpf_next -> "bpf-next"

let of_string = function
  | "v5.15" | "5.15" -> Some V5_15
  | "v6.1" | "6.1" -> Some V6_1
  | "bpf-next" | "bpf_next" | "next" -> Some Bpf_next
  | _ -> None

(* Total order on release recency: v5.15 < v6.1 < bpf-next. *)
let rank = function V5_15 -> 0 | V6_1 -> 1 | Bpf_next -> 2
let compare a b = Int.compare (rank a) (rank b)
let at_least v minimum = rank v >= rank minimum
