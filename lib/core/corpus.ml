open Cimport

(* Coverage-guided corpus: programs that exercised new verifier branches
   are preserved and serve as mutation seeds, mirroring the Syzkaller
   feedback loop BVF reuses (paper section 5).

   Long campaigns additionally need the reboot-storm breaker: a corpus
   entry whose descendants keep crashing the kernel would otherwise be
   re-picked forever (it carries high edge weight precisely because it
   reaches deep code).  Entries implicated in enough *consecutive* fatal
   reboots are quarantined — removed from the pick pool — the way
   syzkaller suppresses crash-reproducing seeds. *)

type entry = {
  request : Verifier.request;
  new_edges : int;      (* edges this entry contributed when added *)
  added_at : int;       (* iteration number *)
  mutable blamed : int; (* consecutive fatal reboots implicated in *)
}

type t = {
  mutable entries : entry list;
  mutable total : int;
  mutable quarantined : int; (* entries removed by the storm breaker *)
  max_size : int;
}

let create ?(max_size = 256) () =
  { entries = []; total = 0; quarantined = 0; max_size }

let size (t : t) : int = t.total

let quarantined (t : t) : int = t.quarantined

let add (t : t) ~(iteration : int) ~(new_edges : int)
    (request : Verifier.request) : unit =
  if new_edges > 0 then begin
    t.entries <-
      { request; new_edges; added_at = iteration; blamed = 0 } :: t.entries;
    t.total <- t.total + 1;
    if t.total > t.max_size then begin
      (* drop the weakest old half when full *)
      let sorted =
        List.sort (fun a b -> compare b.new_edges a.new_edges) t.entries
      in
      let keep = t.max_size / 2 in
      t.entries <- List.filteri (fun i _ -> i < keep) sorted;
      t.total <- keep
    end
  end

let entries (t : t) : entry list = t.entries

(* Energy of an entry: the weight {!pick_entry} gives it (edges
   contributed plus a recency bonus). *)
let energy (e : entry) : int = 1 + e.new_edges + (e.added_at / 64)

(* Rebuild a corpus from entries gathered elsewhere (e.g. the shards of
   a parallel campaign, with [added_at] already remapped to global
   iterations).  Entries are re-scored under their new iteration
   numbers; when over capacity only the highest-energy ones survive.
   The sort is stable, so the result is deterministic in the input
   order. *)
let of_entries ?(max_size = 256) (es : entry list) : t =
  let scored =
    List.stable_sort (fun a b -> compare (energy b) (energy a)) es
  in
  let kept =
    if List.length scored <= max_size then scored
    else List.filteri (fun i _ -> i < max_size) scored
  in
  { entries = kept; total = List.length kept; quarantined = 0; max_size }

(* Pick a seed entry: weighted towards entries that contributed more
   edges, with a recency bonus.  The draw is [Rng.weighted]'s over the
   [(energy, entry)] list, folded without building it. *)
let rec entry_at (pick : int) (acc : int) : entry list -> entry = function
  | [] -> invalid_arg "Corpus.pick_entry: unreachable"
  | e :: rest ->
    let acc = acc + energy e in
    if pick < acc then e else entry_at pick acc rest

let pick_entry (t : t) (rng : Rng.t) : entry option =
  match t.entries with
  | [] -> None
  | entries ->
    let total = List.fold_left (fun acc e -> acc + energy e) 0 entries in
    Some (entry_at (Rng.int rng total) 0 entries)

let pick (t : t) (rng : Rng.t) : Verifier.request option =
  Option.map (fun e -> e.request) (pick_entry t rng)

(* -- Reboot-storm breaker --------------------------------------------- *)

(* A run seeded from [e] ended in a fatal reboot.  After
   [quarantine_after] consecutive implications the entry is removed.
   Returns true when the entry was quarantined. *)
let blame (t : t) (e : entry) ~(quarantine_after : int) : bool =
  e.blamed <- e.blamed + 1;
  if e.blamed >= quarantine_after then begin
    let before = t.total in
    t.entries <- List.filter (fun x -> x != e) t.entries;
    t.total <- List.length t.entries;
    if t.total < before then t.quarantined <- t.quarantined + 1;
    true
  end
  else false

(* A run seeded from [e] completed without a fatal reboot: the storm is
   over, the entry is rehabilitated. *)
let absolve (e : entry) : unit = e.blamed <- 0
