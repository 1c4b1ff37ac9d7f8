(** The XDP dispatcher: a trampoline table updated on attach/detach.

    Injected Bug#7: updates were not synchronized with concurrent
    executions, so a dispatch could dereference a slot the update had
    cleared.  The race window is modelled deterministically: with the
    bug, the second and later updates leave one stale NULL slot that the
    next dispatch dereferences. *)

type t = {
  mutable slots : int option array;
  mutable update_count : int;
  mutable stale_null : bool;
}

val create : unit -> t

val attach : ?bug7:bool -> t -> prog_id:int -> bool
(** Attach a program; [false] when all slots are busy. *)

val dispatch : t -> (int option, Report.t) result
(** Dispatch an event to slot 0; with the Bug#7 window armed, returns
    the null-deref report instead. *)
