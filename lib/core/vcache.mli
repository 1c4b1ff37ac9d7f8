(** Content-addressed verdict cache: the service layer's front tier.

    Verification is deterministic — verdict, canonical rejection
    message, capped log and performance counters are a pure function of
    (program bytes, map specs, kernel config) — so a verdict computed
    once can be replayed for every later submission of the same program
    under the same configuration.  {!key} digests those three inputs
    ([config_fingerprint], [maps_fingerprint] and the program's wire
    bytes with its load attributes); the cache maps keys to {!verdict}
    records, and a second index maps the wire identity a request
    arrived with ({!wire_id}) to the entry it was answered from.

    Two tiers: an in-memory LRU (bounded by [cap], strict recency
    eviction) and an optional on-disk tier reusing the {!Checkpoint}
    atomic write-then-rename container — a service restart reloads its
    warmed state, and a torn or corrupt file is an [Error], never an
    exception.

    Soundness and the invalidation rules (config change, verifier ABI
    bump, schema tag bump) are documented in docs/SERVICE.md. *)

(** The cached outcome of one verification: everything
    {!Bvf_verifier.Verifier.load_with_stats} reports except the loaded
    program itself (program ids are per-session, so the rewritten
    instruction stream is recomputed on demand, never cached). *)
type verdict = {
  cv_accepted : bool;
  cv_insns : int;
      (** post-rewrite instruction count when accepted; the original
          count when rejected *)
  cv_insn_processed : int;  (** verification effort *)
  cv_errno : string;        (** kernel-style errno name; [""] on accept *)
  cv_reason : Bvf_verifier.Reject_reason.t option;
      (** rejection taxonomy bucket; [None] on accept *)
  cv_pc : int;              (** rejection pc; 0 on accept *)
  cv_msg : string;          (** canonical rejection message; [""] on accept *)
  cv_vlog : string;         (** verifier log, capped at {!vlog_cap} *)
  cv_vstats : Bvf_verifier.Vstats.t option;
      (** performance counters; [None] when the load failed before an
          analysis environment existed *)
}

val vlog_cap : int
(** Byte cap on a cached verifier log (64 KiB).  Service responses are
    meant to be cheap to store by the million; a level-2 log of a
    branchy program is not.  Truncation appends a marker line, exactly
    like {!Bvf_verifier.Vlog}. *)

val cap_vlog : string -> string
(** Apply {!vlog_cap} to a log string (identity when under the cap). *)

type t

val create : cap:int -> t
(** An empty cache evicting strictly least-recently-used entries beyond
    [cap].
    @raise Invalid_argument when [cap < 1]. *)

val length : t -> int

val key : ?log_level:int -> config_fp:string -> maps_fp:string ->
  Bvf_verifier.Verifier.request -> string
(** The cache key: hex MD5 of the config fingerprint, the map
    fingerprint, the program type, the attach point, the offload flag
    and the program's canonical wire bytes ({!Bvf_ebpf.Encode.encode}
    of its instructions), one line each, the bytes last.  A nonzero
    [log_level] (default 0) is appended to the config line as
    [" log_level=N"]: the verdict's [cv_vlog] depends on it, and a
    level-0 key is the same text as without the argument.  An attach
    name holding a line break, equal to ["-"] (the line of an absent
    one) or starting with ['\\'] is written as ['\\'] and its
    [String.escaped] form, so the text splits into its parts one way
    only: two requests share a key only when they carry the same
    program and attributes.  A program that [encode] rejects (a branch
    escapes the array) is keyed by its marshalled instructions under a
    first line ["unencodable"], which no config fingerprint equals. *)

val find : t -> string -> verdict option
(** Lookup; a hit refreshes the entry's recency and bumps the hit
    counter, a miss bumps the miss counter. *)

(** A program request as it arrived, before any decoding: the
    [prog_type] and [prog] strings, the [attach] string if any, and
    whether [offload] is [true].  Never the request id. *)
type wire_id = {
  wi_prog_type : string;
  wi_attach : string option;
  wi_offload : bool;
  wi_prog : string;  (** the hex text, as sent *)
}

val find_wire : t -> wire_id -> (string * verdict) option
(** The key and verdict of the entry [wire_id] is bound to.  A hit is
    counted and refreshes the entry's recency exactly as a {!find} hit
    under that key does; a miss changes nothing (the caller decodes,
    keys and {!find}s, which counts it). *)

val bind_wire : t -> string -> wire_id -> unit
(** Bind [wire_id] to the entry under the key, which must be the
    {!key} of the request [wire_id] decodes to; no-op when no entry
    has that key.  An entry holds at most one wire identity: binding
    another drops the previous one, and an evicted entry's goes with
    it, so the index never outgrows the cache. *)

val insert : t -> string -> verdict -> unit
(** Insert (or refresh) a verdict, evicting the least recently used
    entry when the cache is full. *)

(** Monotonic operation counters (never part of any result: cache
    traffic is an observation, not an outcome). *)
type stats = {
  cs_hits : int;
  cs_misses : int;
  cs_insertions : int;
  cs_evictions : int;
}

val stats : t -> stats

val entries : t -> (string * verdict) list
(** Every entry, most recently used first. *)

(** {1 On-disk tier}

    A saved cache is a {!Checkpoint} container (tag
    ["bvf-vcache/3"]).  Bump the tag whenever the {!verdict} schema or
    the key text changes: stale files then fail with [Tag_mismatch]
    instead of unmarshalling garbage or answering from entries saved
    under another key text. *)

val save : t -> path:string -> (unit, Checkpoint.error) result
(** Atomically persist the entries (recency order preserved).  The
    operation counters are not persisted — a reloaded cache starts
    cold-counted but warm-keyed. *)

val load : path:string -> cap:int -> (t, Checkpoint.error) result
(** Reload a saved cache under a (possibly different) [cap]: the most
    recently used [cap] entries survive.  Any damage — truncation, bit
    flips, a foreign tag — is an [Error], never an exception, exactly
    like {!Checkpoint.load}. *)
