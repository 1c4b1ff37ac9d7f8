open Cimport

(* Content-addressed verdict cache (docs/SERVICE.md).

   The in-memory tier is a plain LRU: a hash table from key to an
   intrusive doubly-linked node, list head = most recently used.  Every
   operation is O(1); eviction pops the tail.  A second table maps the
   wire identity a request arrived with to the node its key named; a
   node carries at most one, which leaves the table when the node is
   evicted.  The on-disk tier reuses
   the Checkpoint container, so persistence inherits the atomic
   write-then-rename and corruption-is-Error-never-raise contract the
   campaign checkpoints already test. *)

module Reject_reason = Bvf_verifier.Reject_reason

type verdict = {
  cv_accepted : bool;
  cv_insns : int;
  cv_insn_processed : int;
  cv_errno : string;
  cv_reason : Reject_reason.t option;
  cv_pc : int;
  cv_msg : string;
  cv_vlog : string;
  cv_vstats : Vstats.t option;
}

(* Cached logs are service payload, not debugging transcripts: cap them
   well below Vlog.default_cap so a million cached verdicts stay
   storable. *)
let vlog_cap = 64 * 1024

let cap_vlog (log : string) : string =
  if String.length log <= vlog_cap then log
  else String.sub log 0 vlog_cap ^ "\n... log truncated\n"

type wire_id = {
  wi_prog_type : string;
  wi_attach : string option;
  wi_offload : bool;
  wi_prog : string;
}

(* Hashing the program text alone is enough: identities that share it
   share a bucket, and [equal] tells them apart. *)
module Wire_tbl = Hashtbl.Make (struct
    type t = wire_id

    let equal (a : t) (b : t) : bool =
      String.equal a.wi_prog b.wi_prog
      && String.equal a.wi_prog_type b.wi_prog_type
      && Option.equal String.equal a.wi_attach b.wi_attach
      && a.wi_offload = b.wi_offload

    let hash (w : t) : int = Hashtbl.hash w.wi_prog
  end)

type node = {
  n_key : string;
  mutable n_verdict : verdict;
  mutable n_wire : wire_id option;  (* its entry in [wires] *)
  mutable n_prev : node option; (* towards the MRU head *)
  mutable n_next : node option; (* towards the LRU tail *)
}

type stats = {
  cs_hits : int;
  cs_misses : int;
  cs_insertions : int;
  cs_evictions : int;
}

type t = {
  t_cap : int;
  tbl : (string, node) Hashtbl.t;
  wires : node Wire_tbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
}

let create ~cap : t =
  if cap < 1 then invalid_arg "Vcache.create: cap must be >= 1";
  { t_cap = cap; tbl = Hashtbl.create (min cap 1024);
    wires = Wire_tbl.create (min cap 1024); head = None;
    tail = None; hits = 0; misses = 0; insertions = 0; evictions = 0 }

let length (t : t) : int = Hashtbl.length t.tbl

(* The attach line of a key.  A name that could be read as another
   line is escaped: one holding a line break, the absent marker "-", or
   one starting with the escape mark '\\' is written as '\\' and its
   [String.escaped] form.  Every other name is written as is. *)
let add_attach (b : Buffer.t) (attach : string option) : unit =
  match attach with
  | None -> Buffer.add_char b '-'
  | Some a
    when a <> "-" && not (String.contains a '\n')
         && not (String.starts_with ~prefix:"\\" a) ->
    Buffer.add_string b a
  | Some a ->
    Buffer.add_char b '\\';
    Buffer.add_string b (String.escaped a)

(* One line per part, the program's bytes last.  No line but the last
   holds a line break, so the text splits into its parts one way
   only. *)
let key_of_wire ~(config_fp : string) ~(maps_fp : string)
    ~(prog_type : Prog.prog_type) ~(attach : string option)
    ~(offload : bool) (wire : Bytes.t) : string =
  let b = Buffer.create (Bytes.length wire + 160) in
  Buffer.add_string b config_fp;
  Buffer.add_char b '\n';
  Buffer.add_string b maps_fp;
  Buffer.add_char b '\n';
  Buffer.add_string b (Prog.prog_type_to_string prog_type);
  Buffer.add_char b '\n';
  add_attach b attach;
  Buffer.add_char b '\n';
  Buffer.add_string b (if offload then "offload" else "host");
  Buffer.add_char b '\n';
  Buffer.add_bytes b wire;
  Digest.to_hex (Digest.string (Buffer.contents b))

let key ?(log_level = 0) ~(config_fp : string) ~(maps_fp : string)
    (req : Verifier.request) : string =
  (* a nonzero level adds a log to the verdict, so it keys apart;
     level 0 adds nothing *)
  let config_fp =
    if log_level = 0 then config_fp
    else Printf.sprintf "%s log_level=%d" config_fp log_level
  in
  let config_fp, wire =
    match Encode.encode req.Verifier.r_insns with
    | wire -> (config_fp, wire)
    | exception Invalid_argument _ ->
      (* a branch escapes the array: key the structure instead, under a
         first line that no config fingerprint has, so no wire bytes
         name it *)
      ( "unencodable\n" ^ config_fp,
        Bytes.unsafe_of_string (Marshal.to_string req.Verifier.r_insns []) )
  in
  key_of_wire ~config_fp ~maps_fp ~prog_type:req.Verifier.r_prog_type
    ~attach:req.Verifier.r_attach ~offload:req.Verifier.r_offload wire

(* -- Intrusive list maintenance ------------------------------------- *)

let unlink (t : t) (n : node) : unit =
  (match n.n_prev with
   | Some p -> p.n_next <- n.n_next
   | None -> t.head <- n.n_next);
  (match n.n_next with
   | Some s -> s.n_prev <- n.n_prev
   | None -> t.tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front (t : t) (n : node) : unit =
  n.n_next <- t.head;
  n.n_prev <- None;
  (match t.head with Some h -> h.n_prev <- Some n | None -> ());
  t.head <- Some n;
  if t.tail = None then t.tail <- Some n

let touch (t : t) (n : node) : unit =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let hit (t : t) (n : node) : unit =
  t.hits <- t.hits + 1;
  touch t n

let find (t : t) (k : string) : verdict option =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
    hit t n;
    Some n.n_verdict
  | None ->
    t.misses <- t.misses + 1;
    None

let find_wire (t : t) (w : wire_id) : (string * verdict) option =
  match Wire_tbl.find_opt t.wires w with
  | Some n ->
    hit t n;
    Some (n.n_key, n.n_verdict)
  | None -> None

let unbind_wire (t : t) (n : node) : unit =
  Option.iter (Wire_tbl.remove t.wires) n.n_wire;
  n.n_wire <- None

let bind_wire (t : t) (k : string) (w : wire_id) : unit =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some n ->
    unbind_wire t n;
    Option.iter (unbind_wire t) (Wire_tbl.find_opt t.wires w);
    n.n_wire <- Some w;
    Wire_tbl.replace t.wires w n

let evict_tail (t : t) : unit =
  match t.tail with
  | None -> ()
  | Some n ->
    unlink t n;
    unbind_wire t n;
    Hashtbl.remove t.tbl n.n_key;
    t.evictions <- t.evictions + 1

let insert (t : t) (k : string) (v : verdict) : unit =
  (match Hashtbl.find_opt t.tbl k with
   | Some n ->
     n.n_verdict <- v;
     touch t n
   | None ->
     if Hashtbl.length t.tbl >= t.t_cap then evict_tail t;
     let n =
       { n_key = k; n_verdict = v; n_wire = None; n_prev = None;
         n_next = None }
     in
     Hashtbl.replace t.tbl k n;
     push_front t n);
  t.insertions <- t.insertions + 1

let stats (t : t) : stats =
  { cs_hits = t.hits; cs_misses = t.misses;
    cs_insertions = t.insertions; cs_evictions = t.evictions }

let entries (t : t) : (string * verdict) list =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk ((n.n_key, n.n_verdict) :: acc) n.n_next
  in
  walk [] t.head

(* -- On-disk tier ---------------------------------------------------- *)

(* /3: a nonzero log level enters the key; a /2 file may hold a
   level-2 log under a level-0 key *)
let tag = "bvf-vcache/3"

let save (t : t) ~(path : string) : (unit, Checkpoint.error) result =
  Checkpoint.save ~path ~tag (entries t)

let load ~(path : string) ~(cap : int) : (t, Checkpoint.error) result =
  match Checkpoint.load ~path ~tag with
  | Error e -> Error e
  | Ok (saved : (string * verdict) list) ->
    let t = create ~cap in
    (* insert oldest first so recency order survives the round trip;
       beyond [cap] the oldest entries fall off, as they would have *)
    List.iter (fun (k, v) -> insert t k v) (List.rev saved);
    t.insertions <- 0;
    t.evictions <- 0;
    Ok t
