(** A runtime locking-correctness validator in the spirit of Linux
    lockdep: tracks held lock classes per execution and flags the
    deadlock patterns the paper's indicator-#2 bugs manifest as. *)

type context = Normal | Softirq | Hardirq | Nmi

type violation =
  | Recursive_lock of string   (** class acquired while already held *)
  | Unlock_not_held of string
  | Held_at_exit of string list
  | Lock_in_nmi of string      (** acquisition in a forbidden context *)

val violation_to_string : violation -> string

type t = {
  mutable held : string list;  (** innermost first *)
  mutable ctx : context;
  mutable violations : violation list;
}

val create : unit -> t

val acquire : t -> string -> unit
(** Record an acquisition; flags recursion and NMI-context locking. *)

val release : t -> string -> unit
(** Record a release; flags unlock-of-unheld. *)

val end_of_execution : t -> unit
(** Flag locks still held when an execution returns, and reset. *)

val take_violations : t -> violation list
(** Drain accumulated violations, oldest first. *)
