(* kcov-style branch coverage over the verifier's decision points.

   Every interesting branch in the analysis calls [hit] with a static
   site name (and optionally a small variant discriminator, e.g. the
   register type a check dispatched on), mirroring how kcov assigns an
   edge id per basic block.  A campaign keeps one global [t] and asks
   each verification run for the set of new edges — the fuzzer's
   feedback signal and the metric of Table 3 / Figure 6.

   Hit counts live in a flat array indexed by edge id, not a hashtable:
   recording an edge is THE hottest operation in the whole analyzer
   (several calls per simulated instruction), and an array bump is an
   order of magnitude cheaper than hashing into a table twice.  Edge
   ids are dense by construction ([site_id * variants_per_site +
   variant]), so the array wastes little space. *)

type t = {
  interner : (string, int) Hashtbl.t;
  mutable next_site : int;
  mutable counts : int array; (* edge id -> hit count (0 = never hit) *)
  mutable distinct : int;     (* number of non-zero entries in counts *)
  memo_sites : string array;  (* direct-mapped memo over [interner]: *)
  memo_ids : int array;       (* call sites pass literal strings, so a
                                 pointer compare usually resolves the
                                 site without hashing it; -1 = empty *)
}

let variants_per_site = 256
let memo_slots = 128

let create () =
  { interner = Hashtbl.create 256; next_site = 0;
    counts = Array.make (64 * variants_per_site) 0; distinct = 0;
    memo_sites = Array.make memo_slots "";
    memo_ids = Array.make memo_slots (-1) }

(* Keep [counts] large enough for every edge of every interned site;
   growth is amortized over site interning, which is rare and cold. *)
let ensure_capacity (t : t) : unit =
  let need = t.next_site * variants_per_site in
  if need > Array.length t.counts then begin
    let cap = max need (2 * Array.length t.counts) in
    let counts = Array.make cap 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end

(* Cheap deterministic slot for the memo — must not walk the string.
   Length, first and last byte place every site name of the verifier in
   a slot of its own (test_loadcost checks it), so a campaign never
   hashes a name after its first hit.  The mask is the memo's own
   length, which a map restored from an older checkpoint may have
   smaller. *)
let memo_slot (t : t) (site : string) : int =
  let len = String.length site in
  if len = 0 then 0
  else
    (len * 6 + Char.code (String.unsafe_get site 0)
     + (Char.code (String.unsafe_get site (len - 1)) lsl 4))
    land (Array.length t.memo_sites - 1)

let site_id (t : t) (site : string) : int =
  let slot = memo_slot t site in
  let memo = Array.unsafe_get t.memo_sites slot
  and memo_id = Array.unsafe_get t.memo_ids slot in
  (* two call sites may pass equal names as distinct literals *)
  if memo_id >= 0 && (memo == site || String.equal memo site) then memo_id
  else begin
    let id =
      match Hashtbl.find_opt t.interner site with
      | Some id -> id
      | None ->
        let id = t.next_site in
        t.next_site <- id + 1;
        Hashtbl.replace t.interner site id;
        ensure_capacity t;
        id
    in
    t.memo_sites.(slot) <- site;
    t.memo_ids.(slot) <- id;
    id
  end

let edge_id (t : t) (site : string) (variant : int) : int =
  (site_id t site * variants_per_site) + (variant land (variants_per_site - 1))

let record (t : t) (edge : int) : unit =
  (* edges from [edge_id] always fit ([ensure_capacity]); foreign ids
     (merge of another map's set) may not *)
  if edge >= Array.length t.counts then begin
    let cap = max (edge + 1) (2 * Array.length t.counts) in
    let counts = Array.make cap 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end;
  let n = Array.unsafe_get t.counts edge in
  if n = 0 then t.distinct <- t.distinct + 1;
  Array.unsafe_set t.counts edge (n + 1)

(* The one-call fast path the analysis loop uses. *)
let hit (t : t) (site : string) (variant : int) : unit =
  record t (edge_id t site variant)

let edge_count (t : t) : int = t.distinct

(* -- One analysis's hits -------------------------------------------------

   A campaign memoises the analysis of each corpus entry, so a repeat of
   the entry replays the walk's hits instead of walking again.  The
   recorder notes, in O(hits) and into flat int arrays, which edges an
   analysis touched and what each one's count was before its first
   touch; [recorded] turns that into the hit multiset, [replay] adds it
   back. *)

type recorder = {
  mutable stamp : int array;   (* edge -> last analysis that touched it *)
  mutable base : int array;    (* edge -> its count before that touch *)
  mutable touched : int array; (* this analysis's edges, in touch order *)
  mutable n_touched : int;
  mutable analysis : int;      (* the current analysis; stamps start at 0 *)
}

type hits = { h_edges : int array; h_counts : int array }

let recorder () : recorder =
  { stamp = [||]; base = [||]; touched = Array.make 64 0; n_touched = 0;
    analysis = 0 }

let begin_analysis (r : recorder) : unit =
  r.analysis <- r.analysis + 1;
  r.n_touched <- 0

(* First touch of [edge] in the current analysis: stamp it, keep its
   count, list it.  Both tables grow with the map they index. *)
let first_touch (r : recorder) (t : t) (edge : int) : unit =
  if edge >= Array.length r.stamp then begin
    let cap = max (Array.length t.counts) (2 * Array.length r.stamp) in
    let grow a = Array.append a (Array.make (cap - Array.length a) 0) in
    r.stamp <- grow r.stamp;
    r.base <- grow r.base
  end;
  Array.unsafe_set r.stamp edge r.analysis;
  Array.unsafe_set r.base edge (Array.unsafe_get t.counts edge);
  if r.n_touched = Array.length r.touched then
    r.touched <- Array.append r.touched r.touched;
  Array.unsafe_set r.touched r.n_touched edge;
  r.n_touched <- r.n_touched + 1

(* [hit], noting the edge in [r] *)
let hit_recorded (t : t) (r : recorder) (site : string) (variant : int) :
  unit =
  let edge = edge_id t site variant in
  if edge >= Array.length r.stamp
     || Array.unsafe_get r.stamp edge <> r.analysis
  then first_touch r t edge;
  record t edge

let recorded (t : t) (r : recorder) : hits =
  let n = r.n_touched in
  let edges = Array.sub r.touched 0 n in
  let counts = Array.make n 0 in
  for i = 0 to n - 1 do
    let e = edges.(i) in
    counts.(i) <- t.counts.(e) - r.base.(e)
  done;
  { h_edges = edges; h_counts = counts }

let replay (t : t) (h : hits) : unit =
  for i = 0 to Array.length h.h_edges - 1 do
    let e = h.h_edges.(i) in
    let n = t.counts.(e) in
    if n = 0 then t.distinct <- t.distinct + 1;
    t.counts.(e) <- n + h.h_counts.(i)
  done

(* -- Cross-map merging -------------------------------------------------- *)

(* Numeric edge ids depend on the order sites happened to be interned,
   which differs between independently-grown maps (e.g. two campaign
   shards).  Merging therefore goes through the portable identity of an
   edge: its (site name, variant) pair. *)

let named_edges (t : t) : ((string * int) * int) list =
  let names = Hashtbl.create (Hashtbl.length t.interner) in
  Hashtbl.iter (fun site id -> Hashtbl.replace names id site) t.interner;
  let acc = ref [] in
  for edge = Array.length t.counts - 1 downto 0 do
    let hits = t.counts.(edge) in
    if hits > 0 then begin
      let sid = edge / variants_per_site
      and variant = edge mod variants_per_site in
      match Hashtbl.find_opt names sid with
      | Some site -> acc := ((site, variant), hits) :: !acc
      | None -> () (* unreachable: every recorded edge was interned *)
    end
  done;
  List.sort compare !acc

let absorb_named (t : t) (edges : ((string * int) * int) list) : int =
  List.fold_left
    (fun fresh ((site, variant), hits) ->
       let id = edge_id t site variant in
       let seen = t.counts.(id) in
       t.counts.(id) <- seen + hits;
       if seen = 0 then begin
         t.distinct <- t.distinct + 1;
         fresh + 1
       end
       else fresh)
    0 edges

let union (ts : t list) : t =
  let u = create () in
  List.iter (fun t -> ignore (absorb_named u (named_edges t))) ts;
  u

(* -- Introspection (bvf cov) -------------------------------------------- *)

(* Subsystem attribution: the part of the site name before the first
   ':' ("check_alu:op" -> "check_alu"); sites without one group under
   their full name. *)
let site_prefix (site : string) : string =
  match String.index_opt site ':' with
  | Some i -> String.sub site 0 i
  | None -> site

(* Edges grouped by site prefix, each group carrying (distinct edges,
   summed hits) plus its per-edge listing.  Groups and edges sorted. *)
let grouped (t : t) :
  (string * (int * int * ((string * int) * int) list)) list =
  let tbl : (string, ((string * int) * int) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (((site, _), _) as e) ->
       let p = site_prefix site in
       Hashtbl.replace tbl p
         (e :: Option.value (Hashtbl.find_opt tbl p) ~default:[]))
    (named_edges t);
  Hashtbl.fold
    (fun prefix edges acc ->
       let edges = List.sort compare edges in
       let hits = List.fold_left (fun n (_, h) -> n + h) 0 edges in
       (prefix, (List.length edges, hits, edges)) :: acc)
    tbl []
  |> List.sort compare

(* Edge-set difference through portable names: edges of [b] absent from
   [a] (gained) and edges of [a] absent from [b] (lost), sorted.  Hit
   counts are ignored — the diff is over coverage, not intensity. *)
let diff ~(old_cov : t) ~(new_cov : t) :
  (string * int) list * (string * int) list =
  let names c =
    List.map fst (named_edges c) |> List.fold_left
      (fun tbl e -> Hashtbl.replace tbl e (); tbl)
      (Hashtbl.create 256)
  in
  let old_names = names old_cov and new_names = names new_cov in
  let only of_tbl not_in =
    Hashtbl.fold
      (fun e () acc -> if Hashtbl.mem not_in e then acc else e :: acc)
      of_tbl []
    |> List.sort compare
  in
  (only new_names old_names, only old_names new_names)
