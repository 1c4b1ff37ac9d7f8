open Import

(* eBPF maps backed by simulated kernel memory.

   - Array maps: one contiguous allocation (values adjacent, as in the
     kernel), so only accesses past the whole array trip KASAN.
   - Hash maps: one allocation per element, so inter-element overflows
     are caught; elements deleted by programs are freed only at the end
     of the execution (RCU grace period), matching kernel lifetime rules.
   - Ring buffers: reserve/submit chunk allocation with reference
     semantics the verifier must enforce.

   The hash-map delete path carries injected Bug#9: when the bucket
   lock cannot be taken, the buggy slow path iterates one slot past the
   bucket array, an OOB read inside a kernel routine (indicator #2). *)

type map_type = Array_map | Hash_map | Ringbuf

let map_type_to_string = function
  | Array_map -> "array"
  | Hash_map -> "hash"
  | Ringbuf -> "ringbuf"

type def = {
  mtype : map_type;
  key_size : int;
  value_size : int;
  max_entries : int;
  has_spin_lock : bool; (* value starts with a 4-byte bpf_spin_lock *)
}

let array_def ?(value_size = 48) ?(max_entries = 4) () =
  { mtype = Array_map; key_size = 4; value_size; max_entries;
    has_spin_lock = false }

let hash_def ?(key_size = 8) ?(value_size = 48) ?(max_entries = 8)
    ?(has_spin_lock = false) () =
  { mtype = Hash_map; key_size; value_size; max_entries; has_spin_lock }

let ringbuf_def ?(max_entries = 4096) () =
  { mtype = Ringbuf; key_size = 0; value_size = 0; max_entries;
    has_spin_lock = false }

type backing =
  | Array_backing of Kmem.region
  | Hash_backing of {
      elems : (string, Kmem.region) Hashtbl.t;
      buckets : Kmem.region; (* internal bucket table, Bug#9's victim *)
      mutable delete_count : int;
    }
  | Ringbuf_backing of { mutable live_chunks : Kmem.region list }

type t = {
  id : int;
  def : def;
  backing : backing;
  mutable deferred_free : Kmem.region list;
}

type error =
  | E_no_space
  | E_no_such_key
  | E_bad_op of string
  | E_nomem (* injected allocation failure (failslab) *)

let create (mem : Kmem.t) ~(id : int) (def : def) : t =
  let backing =
    match def.mtype with
    | Array_map ->
      Array_backing
        (Kmem.alloc mem ~kind:(Kmem.Map_array id)
           ~size:(def.value_size * def.max_entries))
    | Hash_map ->
      Hash_backing
        {
          elems = Hashtbl.create 16;
          buckets =
            Kmem.alloc mem ~kind:(Kmem.Kernel_internal "htab_buckets")
              ~size:(8 * def.max_entries);
          delete_count = 0;
        }
    | Ringbuf -> Ringbuf_backing { live_chunks = [] }
  in
  { id; def; backing; deferred_free = [] }

let key_to_string (key : Bytes.t) : string = Bytes.to_string key

(* Address of the value for [key], or None (NULL) when absent. *)
let lookup (t : t) ~(key : Bytes.t) : int64 option =
  match t.backing with
  | Array_backing region ->
    let idx = Int64.to_int (Word.get_le key 0 4) in
    if idx >= 0 && idx < t.def.max_entries then
      Some (Int64.add region.Kmem.base (Int64.of_int (idx * t.def.value_size)))
    else None
  | Hash_backing h -> begin
      match Hashtbl.find_opt h.elems (key_to_string key) with
      | Some region when region.Kmem.live -> Some region.Kmem.base
      | Some _ | None -> None
    end
  | Ringbuf_backing _ -> None

let update ?failslab (mem : Kmem.t) (t : t) ~(key : Bytes.t)
    ~(value : Bytes.t) : (unit, error) result =
  (* inserting a fresh hash element allocates; in-place updates do not *)
  let elem_alloc_fails () =
    match failslab with
    | Some plan -> Failslab.should_fail plan ~site:"htab_elem_alloc"
    | None -> false
  in
  match t.backing with
  | Array_backing region ->
    let idx = Int64.to_int (Word.get_le key 0 4) in
    if idx < 0 || idx >= t.def.max_entries then Error E_no_such_key
    else begin
      Bytes.blit value 0 region.Kmem.data (idx * t.def.value_size)
        (min (Bytes.length value) t.def.value_size);
      Ok ()
    end
  | Hash_backing h ->
    let ks = key_to_string key in
    (match Hashtbl.find_opt h.elems ks with
     | Some region when region.Kmem.live ->
       Bytes.blit value 0 region.Kmem.data 0
         (min (Bytes.length value) t.def.value_size);
       Ok ()
     | Some _ | None ->
       if Hashtbl.length h.elems >= t.def.max_entries then Error E_no_space
       else if elem_alloc_fails () then Error E_nomem
       else begin
         let region =
           Kmem.alloc mem ~kind:(Kmem.Map_elem t.id) ~size:t.def.value_size
         in
         Bytes.blit value 0 region.Kmem.data 0
           (min (Bytes.length value) t.def.value_size);
         Hashtbl.replace h.elems ks region;
         Ok ()
       end)
  | Ringbuf_backing _ -> Error (E_bad_op "update on ringbuf")

(* Deletion.  Hash map elements are defer-freed (RCU); Bug#9 makes the
   contended slow path read one slot beyond the bucket table, which the
   KASAN-checked kernel routine catches.  Returns the internal fault so
   the caller (helper implementation) can surface it as indicator #2. *)
let delete ?(bug9 = false) (mem : Kmem.t) (t : t) ~(key : Bytes.t) :
  (unit, error) result * Kmem.fault option =
  match t.backing with
  | Array_backing _ -> (Error (E_bad_op "delete on array map"), None)
  | Hash_backing h ->
    h.delete_count <- h.delete_count + 1;
    (* every third delete simulates losing the bucket trylock race *)
    let contended = h.delete_count mod 3 = 0 in
    let fault =
      if contended && bug9 then begin
        let buckets = h.buckets in
        let past_end =
          Int64.add buckets.Kmem.base (Int64.of_int buckets.Kmem.size)
        in
        match Kmem.checked_load mem ~addr:past_end ~size:8 with
        | Error f -> Some f
        | Ok _ -> None
      end
      else None
    in
    let ks = key_to_string key in
    (match Hashtbl.find_opt h.elems ks with
     | Some region when region.Kmem.live ->
       Hashtbl.remove h.elems ks;
       t.deferred_free <- region :: t.deferred_free;
       (Ok (), fault)
     | Some _ | None -> (Error E_no_such_key, fault))
  | Ringbuf_backing _ -> (Error (E_bad_op "delete on ringbuf"), None)

let ringbuf_reserve ?failslab (mem : Kmem.t) (t : t) ~(size : int) :
  int64 option =
  match t.backing with
  | Ringbuf_backing r ->
    if size <= 0 || size > t.def.max_entries then None
    else if
      (match failslab with
       | Some plan -> Failslab.should_fail plan ~site:"ringbuf_reserve"
       | None -> false)
    then None (* the program sees NULL, as a real reserve failure *)
    else begin
      let chunk = Kmem.alloc mem ~kind:(Kmem.Ringbuf_chunk t.id) ~size in
      r.live_chunks <- chunk :: r.live_chunks;
      Some chunk.Kmem.base
    end
  | Array_backing _ | Hash_backing _ -> None

let ringbuf_release (mem : Kmem.t) (t : t) ~(addr : int64) : bool =
  match t.backing with
  | Ringbuf_backing r -> begin
      match List.find_opt (fun c -> c.Kmem.base = addr) r.live_chunks with
      | Some chunk ->
        r.live_chunks <-
          List.filter (fun c -> c.Kmem.base <> addr) r.live_chunks;
        Kmem.free mem chunk;
        true
      | None -> false
    end
  | Array_backing _ | Hash_backing _ -> false

(* End of a program execution: the RCU grace period elapses and deferred
   frees happen, poisoning the shadow for subsequent executions. *)
let end_of_execution (mem : Kmem.t) (t : t) : unit =
  List.iter (Kmem.free mem) t.deferred_free;
  t.deferred_free <- []
