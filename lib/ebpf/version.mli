(** Kernel versions the reproduction simulates.  The paper evaluates
    Linux v5.15, v6.1 and the bpf-next development branch; verifier
    features, helpers, tracepoints and the injected historical bugs are
    all gated on this type. *)

type t = V5_15 | V6_1 | Bpf_next

val all : t list
(** In release order. *)

val to_string : t -> string
val of_string : string -> t option

val compare : t -> t -> int

val at_least : t -> t -> bool
(** [at_least v minimum] is true when [v] is at least as recent as
    [minimum]. *)
