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

val width : unit -> int
(** The lane count [d] of the {!run} the calling domain is running a
    task of, or 1 outside any {!run}.  Lane 0 gets its previous value
    back when {!run} returns. *)

val run :
  ?prof:Prof.t -> tasks:int -> (int -> 'a) -> ('a, exn) result array
(** Results in task-index order.  A task that raises is recorded as
    [Error] and every other task still runs; [run] returns only once
    every lane has finished, so nothing is left running.

    [prof] (default {!Prof.disabled}) is the caller's handle: it gets
    a "spawn" span around starting lanes [1 .. d - 1] and a "join"
    span around waiting for them once lane 0 is done.
    @raise Invalid_argument when [tasks < 0]. *)

val minor_heap_budget : int
(** Minor heap words shared by the lanes of one {!run}: 524 288 words
    (4 MB), split evenly, so one lane gets 512k words and each of two
    lanes OCaml's default 256k (DESIGN.md §8.5). *)

val with_heap_share : (unit -> 'a) -> 'a
(** [with_heap_share f] runs [f] with the calling domain's minor heap at
    [max own (minor_heap_budget / width ())] words and leaves it there:
    the next call in the domain resizes only when {!width} changed.
    [own] is the size the domain had of its own: its startup size, or
    the size someone else set since the last call (say, from
    [OCAMLRUNPARAM=s=] or a [Gc.set]), so a larger size is kept.  Only
    the calling domain's heap changes: on OCaml 5 the minor heap size
    is per domain, and a spawned domain starts at the startup size, not
    at its spawner's.  Nothing [f] computes may depend on the heap
    size. *)
