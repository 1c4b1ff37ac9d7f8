(** eBPF maps backed by simulated kernel memory.

    Array maps are one contiguous allocation (only whole-array overruns
    trip KASAN, as in the kernel); hash maps allocate per element with
    RCU-deferred frees; ring buffers hand out reserve/submit chunks with
    reference semantics the verifier must enforce.

    The hash-map delete path carries injected Bug#9: when the bucket
    trylock is lost, the buggy slow path reads one slot past the bucket
    table (caught by KASAN inside the routine — indicator #2). *)

type map_type = Array_map | Hash_map | Ringbuf

val map_type_to_string : map_type -> string

type def = {
  mtype : map_type;
  key_size : int;
  value_size : int;
  max_entries : int;
  has_spin_lock : bool; (** value starts with a 4-byte bpf_spin_lock *)
}

val array_def : ?value_size:int -> ?max_entries:int -> unit -> def
val hash_def :
  ?key_size:int -> ?value_size:int -> ?max_entries:int ->
  ?has_spin_lock:bool -> unit -> def
val ringbuf_def : ?max_entries:int -> unit -> def

type t = private {
  id : int;
  def : def;
  backing : backing;
  mutable deferred_free : Kmem.region list;
}

and backing =
  | Array_backing of Kmem.region
  | Hash_backing of {
      elems : (string, Kmem.region) Hashtbl.t;
      buckets : Kmem.region;
      mutable delete_count : int;
    }
  | Ringbuf_backing of { mutable live_chunks : Kmem.region list }

type error =
  | E_no_space
  | E_no_such_key
  | E_bad_op of string
  | E_nomem  (** injected allocation failure (failslab) *)

val create : Kmem.t -> id:int -> def -> t

val lookup : t -> key:Bytes.t -> int64 option
(** Address of the value for [key], or [None] (NULL). *)

val update : ?failslab:Failslab.t -> Kmem.t -> t -> key:Bytes.t ->
  value:Bytes.t -> (unit, error) result
(** Insert or update.  With a fault plan, inserting a fresh hash
    element (an allocation) can fail with [E_nomem]; in-place updates
    never allocate and never fail. *)

val delete : ?bug9:bool -> Kmem.t -> t -> key:Bytes.t ->
  (unit, error) result * Kmem.fault option
(** Delete an element (defer-freed until {!end_of_execution}).  With
    [bug9], the contended bucket path returns the internal KASAN fault
    for the caller to surface as indicator #2. *)

val ringbuf_reserve :
  ?failslab:Failslab.t -> Kmem.t -> t -> size:int -> int64 option
(** Reserve a chunk; [None] on bad size or an injected allocation
    failure — either way the program sees NULL and must handle it. *)

val ringbuf_release : Kmem.t -> t -> addr:int64 -> bool

val end_of_execution : Kmem.t -> t -> unit
(** The RCU grace period: deferred frees happen, poisoning the shadow
    for subsequent executions. *)
