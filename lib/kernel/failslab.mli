(** Deterministic allocation fault injection, modeled on Linux's
    CONFIG_FAILSLAB / CONFIG_FAULT_INJECTION framework.

    A fault plan is a seeded, rate-configurable decision stream
    consulted at every fallible allocation site in the simulated kernel.
    It draws from a private splitmix64 stream — never the campaign RNG —
    so enabling fault injection does not perturb program generation, and
    a checkpointed plan resumes the exact same decision stream.

    Injected failures must always surface as clean [-ENOMEM]/[Error]
    outcomes: they model the environment misbehaving, never the verifier
    — the oracle treats them as noise, not findings. *)

type t

val create : ?space:int -> ?seed:int -> rate:float -> unit -> t
(** A plan failing each eligible allocation with probability [rate].
    The first [space] attempts never fail (the kernel's fault_attr grace
    count), letting sessions boot under aggressive rates.
    @raise Invalid_argument when [rate] is outside [\[0, 1\]]. *)

val off : unit -> t
(** A disabled plan (rate 0): [should_fail] is always false and touches
    no state. *)

val enabled : t -> bool

val rate : t -> float
val seed : t -> int
(** The [rate] and [seed] the plan was created with. *)

val should_fail : t -> site:string -> bool
(** Draw the next decision for an allocation at [site].  Deterministic
    in (seed, rate, space, call sequence). *)

val attempts : t -> int
(** Allocation attempts consulted so far (enabled plans only). *)

val injected : t -> int
(** Failures injected so far. *)

val pp_summary : Format.formatter -> t -> unit
