(** Campaign telemetry: a JSONL event stream (one JSON object per line)
    written as the campaign runs, plus the aggregation behind
    [bvf stats].

    Determinism contract: events emitted by the campaign itself carry
    {b no wall-clock times} — two campaigns with the same seed produce
    byte-identical traces whatever the machine load, and a [--jobs 1]
    trace equals the sequential one.  The only timed record, [Profile],
    is appended once by the CLI after the run, from the merged phase
    counters. *)

type event =
  | Generated of { iter : int; prog_type : string; insns : int }
      (** a program left the generator *)
  | Accepted of {
      iter : int;
      prog_type : string;
      insns : int;           (** post-rewrite instruction count *)
      insn_processed : int;  (** verification effort *)
    }
  | Rejected of {
      iter : int;
      prog_type : string;
      reason : Bvf_verifier.Reject_reason.t;
      errno : string;        (** kernel-style errno name, e.g. EACCES *)
      pc : int;
      msg : string;          (** canonical verifier message *)
    }
  | Finding of {
      iter : int;
      fingerprint : string;
      bug : string option;   (** ground-truth attribution, when known *)
      correctness : bool;
    }  (** first sighting only; dedup'd like {!Campaign.stats} *)
  | Vstats of {
      iter : int;
      insn_processed : int;
      total_states : int;
      peak_states : int;
      max_states_per_insn : int;
      prune_hits : int;
      prune_misses : int;
      loops_detected : int;
      branch_hwm : int;
      widen_rounds : int;
      loop_heads : int;
    }
      (** veristat-style verifier counters of the iteration's analysis.
          Deterministic (no wall times), so part of the byte-identical
          trace contract.  Emitted only when the analysis ran.
          [widen_rounds] and [loop_heads] postdate the frozen counter
          schema; traces without them parse as zero. *)
  | Checkpoint of { iter : int }
  | Quarantined of { iter : int }
      (** the iteration was skipped because a harness crash in a
          previous run quarantined it ({!Campaign.run}'s [skip]): disturbed
          work is listed in the trace, never silently dropped *)
  | Shard_merge of { shards : int; events : int }
      (** appended by {!merge_shards} *)
  | Profile of {
      programs : int;
      gen_s : float;
      verify_s : float;
      sanitize_s : float;
      exec_s : float;
      wall_s : float;
      gen_w : float;
      verify_w : float;
      sanitize_w : float;
      exec_w : float;
    }
      (** CLI-appended phase profile; the only event carrying times.
          The [_w] fields are per-phase minor-words attribution and
          postdate the schema: older traces parse with them at zero. *)
  | Service_hit of { seq : int; key : string }
      (** a service request's verdict came from the cache *)
  | Service_miss of { seq : int; key : string }
      (** a service request had to be verified *)
  | Service_admitted of {
      seq : int;
      key : string;
      insns : int;           (** post-rewrite instruction count *)
      insn_processed : int;  (** verification effort (0 on a hit) *)
    }  (** a service request was accepted by the verifier *)
  | Service_rejected of {
      seq : int;
      key : string;
      reason : Bvf_verifier.Reject_reason.t;
    }  (** a service request was rejected by the verifier *)
      (** The four service events are emitted by [bvf batch]/[bvf serve]
          (docs/SERVICE.md): one cache event and one verdict event per
          request, where [seq] is the global request sequence number and
          [key] the {!Vcache} content hash.  Deterministic except for
          the hit/miss split, which depends on cache history. *)

val iter_of : event -> int option
(** The iteration an event belongs to; the request sequence number for
    service events; [None] for [Shard_merge] and [Profile]. *)

val to_json : event -> string
(** One-line JSON encoding (no trailing newline). *)

val of_json : string -> event option
(** Inverse of {!to_json}; [None] on blank lines, parse errors or
    unknown ["ev"] tags, so readers skip foreign lines instead of
    failing. *)

(** {1 Sinks} *)

type sink
(** An open trace file.  All [emit]s are appended in call order. *)

val null : sink
(** Swallows everything: the default when no [--trace] was given. *)

val create : ?iter_map:(int -> int) -> string -> sink
(** Open (truncate) [path].  [iter_map] rewrites every event's
    iteration on emit — sharded campaigns pass their local-to-global
    mapping so merged traces are numbered like a sequential run. *)

val emit : sink -> event -> unit
val close : sink -> unit
(** Flush and close; [emit] after [close] (and everything on {!null})
    is a no-op. *)

val flush : sink -> unit
(** Push buffered events to disk without closing — the supervisor's
    workers flush at every heartbeat so a SIGKILL loses at most the
    current iteration's events. *)

val pos : sink -> int
(** Byte offset after flushing: everything emitted so far is on disk
    below this offset.  Worker checkpoints record it so a restart can
    {!reopen} the trace exactly at the barrier. *)

val reopen : ?iter_map:(int -> int) -> string -> pos:int -> sink
(** Reopen [path] for appending from byte [pos], truncating whatever a
    crashed writer appended past it — replayed iterations never appear
    twice in the trace. *)

val read_file : string -> event list
(** Parse a JSONL trace, skipping unparsable lines. *)

val merge_shards : into:string -> string list -> int
(** Merge per-shard trace files into [into]: concatenate, stable-sort
    by {!iter_of} (shard-merge/profile records stay last), append a
    [Shard_merge] event.  Returns the number of merged events.  Missing
    shard files are treated as empty. *)

(** {1 Flat JSON helpers}

    Every JSON line in the repository is read and escaped by
    {!Bvf_util.Json}; use it directly.  These three aliases remain only
    because the benchmark harness ([perfbench/]) names them. *)

type jvalue = Bvf_util.Json.t =
  | Jstr of string
  | Jnum of float
  | Jbool of bool
  | Jnull
  | Jarr of jvalue list
  | Jobj of (string * jvalue) list
(** Alias of {!Bvf_util.Json.t}, kept for [perfbench/]. *)

exception Parse
(** Alias of {!Bvf_util.Json.Parse}, kept for [perfbench/]. *)

val parse_object : string -> (string * jvalue) list
(** Alias of {!Bvf_util.Json.parse_object}, kept for [perfbench/]. *)

(** {1 Aggregation — the [bvf stats] core} *)

(** Distribution of one deterministic counter over a trace's vstats
    events: total plus nearest-rank p50/p95. *)
type dist = { d_total : int; d_p50 : int; d_p95 : int }

type vstats_summary = {
  vsu_count : int;  (** vstats events seen *)
  vsu_insn_processed : dist;
  vsu_peak_states : dist;
  vsu_widen_rounds : dist;
  vsu_loop_heads : int;  (** loop heads summed across all analyses *)
}

(** Service traffic over a trace's service events (see docs/SERVICE.md
    and docs/OBSERVABILITY.md). *)
type service_summary = {
  ssu_requests : int;  (** verdict events: admitted + rejected *)
  ssu_hits : int;
  ssu_misses : int;
  ssu_admitted : int;
  ssu_rejected : int;
}

type summary = {
  su_events : int;
  su_generated : int;
  su_accepted : int;
  su_rejected : int;
  su_findings : int;
  su_checkpoints : int;
  su_quarantined : int;
  su_by_type : (string * (int * int)) list;
      (** prog type -> (generated, accepted), sorted by name *)
  su_reasons : (Bvf_verifier.Reject_reason.t * int) list;
      (** rejection taxonomy, most frequent first *)
  su_vstats : vstats_summary option;
      (** verifier-counter distributions; [None] when the trace carries
          no vstats events (pre-PR-5 traces stay summarizable) *)
  su_service : service_summary option;
      (** service traffic; [None] when the trace carries no service
          events (campaign traces are unaffected) *)
  su_profile : event option;  (** the last [Profile] record, if any *)
}

val summarize : event list -> summary

val unknown_rejections : summary -> int
(** Rejections classified as {!Bvf_verifier.Reject_reason.Unknown}: the
    taxonomy-gap count the CI gate fails on. *)

val pp_summary : Format.formatter -> summary -> unit
(** The acceptance table: totals, per-prog-type acceptance, the
    rejection taxonomy histogram, and the phase profile when present. *)
