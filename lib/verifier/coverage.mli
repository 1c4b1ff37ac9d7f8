(** kcov-style branch coverage over the verifier's decision points.

    Every interesting branch in the analysis registers a static site
    name plus a small variant discriminator; a campaign keeps one global
    [t] and measures the set of new edges per run — the fuzzer's
    feedback signal and the metric of Table 3 / Figure 6. *)

type t = {
  interner : (string, int) Hashtbl.t;
  mutable next_site : int;
  mutable counts : int array;
      (** edge id -> hit count, dense by construction (0 = never hit) *)
  mutable distinct : int;  (** non-zero entries in [counts] *)
  memo_sites : string array;
      (** direct-mapped memo over [interner], one slot per verifier site *)
  memo_ids : int array;  (** the memo's site ids; -1 marks an empty slot *)
}

val create : unit -> t

val memo_slot : t -> string -> int
(** The memo slot of a site name; every verifier site has its own. *)

val edge_id : t -> string -> int -> int
val record : t -> int -> unit

val hit : t -> string -> int -> unit
(** [hit t site variant] = [record t (edge_id t site variant)] — the
    one-call fast path the analysis loop uses. *)

val edge_count : t -> int
(** Distinct edges observed so far. *)

(** {1 One analysis's hits}

    What a memoised analysis replays in place of a walk (DESIGN.md
    §12).  Edge ids belong to the map they were recorded in. *)

type recorder
(** Reusable scratch noting the edges one analysis touches, O(1) per
    hit. *)

type hits
(** The hit multiset of one analysis: each edge it touched, with how
    many times. *)

val recorder : unit -> recorder

val begin_analysis : recorder -> unit
(** Start noting a new analysis; forgets the previous one. *)

val hit_recorded : t -> recorder -> string -> int -> unit
(** {!hit}, also noting the edge in the recorder's current analysis. *)

val recorded : t -> recorder -> hits
(** The hits of the recorder's current analysis in [t], the map it hit.
    Read it before another analysis hits [t]. *)

val replay : t -> hits -> unit
(** Add the multiset to [t], which must be the map it was recorded in:
    the counts a walk making those hits leaves. *)

val named_edges : t -> ((string * int) * int) list
(** Every observed edge as its portable identity — the
    [(site name, variant)] pair with its hit count — sorted.  Numeric
    edge ids are interner-order dependent and must not be compared
    across independently grown maps; these names can be. *)

val absorb_named : t -> ((string * int) * int) list -> int
(** Merge a {!named_edges} listing (interning sites as needed, summing
    hit counts); returns how many edges were new to this map. *)

val union : t list -> t
(** A fresh map holding the union of the given maps' edges (hit counts
    summed).  Deterministic: sites are interned in sorted name order,
    regardless of the input maps' interner histories. *)

(** {1 Introspection — the [bvf cov] core} *)

val site_prefix : string -> string
(** Subsystem attribution: the site name up to the first [':']
    (["check_alu:op"] -> ["check_alu"]); unchanged when there is none. *)

val grouped : t -> (string * (int * int * ((string * int) * int) list)) list
(** Edges grouped by {!site_prefix}: [(prefix, (distinct_edges,
    summed_hits, edge_listing))], groups and listings sorted. *)

val diff : old_cov:t -> new_cov:t -> (string * int) list * (string * int) list
(** [(gained, lost)]: edges of [new_cov] absent from [old_cov] and vice
    versa, as sorted portable [(site, variant)] names.  Hit counts are
    ignored — the diff is over coverage, not intensity. *)
