(** Run independent tasks on at most one domain per core, the calling
    domain included.

    [run ~tasks f] computes [f 0 .. f (tasks - 1)] over
    [d = count ~tasks] lanes: the calling domain is lane 0, and
    [d - 1] spawned domains are lanes [1 .. d - 1].  Lane [k] runs
    tasks [k], [k + d], ... in index order.  The caller never parks
    while the other lanes work (DESIGN.md §8.4 explains why that
    matters to the stop-the-world minor collector). *)

val count : tasks:int -> int
(** [min tasks (Domain.recommended_domain_count ())], at least 1. *)

val run :
  ?prof:Prof.t -> tasks:int -> (int -> 'a) -> ('a, exn) result array
(** Results in task-index order.  A task that raises is recorded as
    [Error] and every other task still runs; [run] returns only once
    every lane has finished, so nothing is left running.

    [prof] (default {!Prof.disabled}) is the caller's handle: it gets
    a "spawn" span around starting lanes [1 .. d - 1] and a "join"
    span around waiting for them once lane 0 is done.
    @raise Invalid_argument when [tasks < 0]. *)
