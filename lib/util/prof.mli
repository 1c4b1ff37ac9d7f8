(** Span profiler: nested named spans with allocation attribution.

    One {!t} handle per domain/shard/worker; a handle is owned by
    exactly one domain, so recording never takes a lock.  A {!session}
    groups a run's handles and becomes one Chrome trace-event file
    (one [pid] per track, loadable in Perfetto).

    Every session handle keeps always-on per-name {!total}s, the one
    accounting path for phase time and allocation.  Span recording is
    opt-in, lives entirely outside campaign digests and telemetry, and
    a profiled run is byte-identical in both to an unprofiled one — the
    same discipline as [--progress]. *)

type span = {
  sp_track : int;     (** shard/worker index; the trace's [pid] *)
  sp_name : string;
  sp_depth : int;     (** nesting depth at open time; 0 = top level *)
  sp_start_s : float; (** absolute {!Mclock} seconds *)
  sp_dur_s : float;   (** inclusive wall time *)
  sp_self_s : float;  (** [dur] minus direct children *)
  sp_minor_w : float; (** minor words allocated during the span *)
  sp_major_w : float; (** major words allocated during the span *)
}

type t
(** A per-domain recording handle. *)

type frame
(** An open span. *)

type total = {
  tt_name : string;
  tt_count : int;      (** stops and records *)
  tt_s : float;        (** inclusive seconds *)
  tt_minor_w : float;
}

val disabled : t
(** The shared no-op handle: {!start}/{!stop} still return the elapsed
    time and minor-words delta, but it keeps no spans or totals. *)

val start : t -> string -> frame
val stop : t -> frame -> float * float
(** [stop h fr] closes the span, adds it to the totals (allocation-free
    after a name's first stop) and returns
    [(inclusive seconds, minor words allocated)]. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span h name f] wraps [f] in a span; exception-safe; calls [f]
    directly on {!disabled}. *)

val record :
  t -> name:string -> dur_s:float -> ?minor_w:float -> ?major_w:float ->
  unit -> unit
(** Post-hoc span for a section measured elsewhere (e.g. the verifier's
    sanitation time): charged as a child of the currently open frame,
    ending now.  Zero-duration records leave no span. *)

val totals : t -> total list
(** In first-seen order. *)

(** {1 Sessions} *)

type session

val session : ?spans:bool -> unit -> session
(** [spans] (default [true]): [false] makes handles keep totals only. *)

val active : session -> bool
(** Whether the session records spans. *)

val track : session -> ?name:string -> int -> t
(** [track s i] makes a fresh handle recording under track id [i] (the
    trace's [pid]).  Create handles before spawning the domains that
    use them; registration is the only locked operation. *)

val absorb :
  session -> ?name:string -> trk:int -> totals:total list -> span list ->
  unit
(** Add totals and spans recorded elsewhere (e.g. a worker process)
    under track [trk]. *)

val spans : session -> span list
(** Every recorded span, sorted by (track, start).  Only call after
    the domains using the session's handles have been joined. *)

val tracks : session -> (int * string) list

val session_totals : ?trk:int -> session -> total list
(** The session's totals (only track [trk]'s, if given) summed by name.
    Only call after the domains using its handles have been joined. *)

(** {1 Chrome trace-event JSON} *)

val write_chrome :
  string -> tracks:(int * string) list -> span list -> unit
(** Write a Perfetto-loadable trace: one complete ("X") event per span
    with [ts]/[dur] in microseconds, [pid] = track, [tid] = depth,
    self time in a nonstandard [sdur] field and allocation deltas in
    [args]. *)

val read_chrome : string -> span list * (int * string) list * string list
(** Parse a trace back: [(spans, tracks, complaints)].  Complaints
    (invalid JSON, missing fields, negative durations, spans that
    partially overlap an enclosing span) do not discard the events
    that did parse, so callers choose their own strictness. *)

(** {1 Aggregation} *)

type agg = {
  ag_name : string;
  ag_count : int;
  ag_total_s : float; (** inclusive *)
  ag_self_s : float;
  ag_p50_s : float;   (** per-span inclusive duration percentiles *)
  ag_p95_s : float;
  ag_minor_w : float;
  ag_major_w : float;
}

val aggregate : span list -> agg list
(** Per-name rollup, sorted by self time descending. *)

val track_attribution : span list -> (int * float * float) list
(** Per track: [(track, wall seconds first-start..last-end, seconds in
    top-level spans)] — the "how much of the shard's time is named"
    check. *)
