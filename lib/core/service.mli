(** Verification as a service: the [bvf batch] / [bvf serve] core.

    The service treats the deterministic verifier as a reusable oracle:
    programs arrive as JSONL requests (or wire-format files), verdicts
    leave as JSONL responses, and a content-addressed {!Vcache} in front
    answers repeat submissions without re-running the analysis.  The
    full contract — cache key, soundness argument, schemas, exit
    codes — is docs/SERVICE.md.

    Every service session carries the fixed map population of the
    {!Selftests} corpus session ({!Selftests.install_maps}), so a
    program exported from the corpus verifies identically here and the
    map fingerprint is a constant of the service, not of the request. *)

(** One parsed service request. *)
type request = {
  q_id : string;  (** caller-chosen identifier, echoed in the response *)
  q_req : Bvf_verifier.Verifier.request;
}

(** An input line/file: the id survives even when the payload does not
    parse, so every input yields exactly one response line. *)
type input = {
  in_id : string;
  in_req : (Bvf_verifier.Verifier.request, string) result;
}

val create_session : Bvf_kernel.Kconfig.t -> Bvf_runtime.Loader.t
(** A fresh session with the self-test maps installed
    ({!Selftests.install_maps}).  Each batch worker gets its own:
    sessions share no mutable state. *)

val fingerprints : Bvf_runtime.Loader.t -> string * string
(** [(config_fp, maps_fp)] of a session — the non-program components of
    the {!Vcache.key}. *)

val verify_request :
  ?log_level:int -> Bvf_runtime.Loader.t ->
  Bvf_verifier.Verifier.request -> Vcache.verdict
(** One cold verification, folded into the cacheable verdict record
    (log already capped at {!Vcache.vlog_cap}).  Pure in the service
    sense: the result depends only on (request, session config, session
    maps), never on what the session verified before. *)

(** {1 JSONL codec}

    Flat objects, one per line, parsed with {!Bvf_util.Json.parse_object}
    — the same codec every JSON line in the repository goes through.  A
    nested value makes the line ["malformed JSON"]; [\u] escapes decode
    to UTF-8 and ids are echoed byte-exact.  Field reference:
    docs/SERVICE.md. *)

val request_of_json : string -> (request, string) result
(** Parse a request line: required ["id"], ["prog_type"], ["prog"] (hex
    of the wire-format program, either case, with space, tab, CR and LF
    between digits skipped); optional ["attach"] (string) and
    ["offload"] (bool, default false).  A non-hex byte in ["prog"] is
    reported before an odd digit count. *)

val bytes_of_hex : string -> (Bytes.t, string) result
(** The bytes of a ["prog"] field's hex text: digits of either case,
    with space, tab, CR and LF between them skipped.  [Error] names the
    first non-hex byte ("prog is not hex"), else an odd digit count. *)

val input_of_json : fallback_id:string -> string -> input
(** {!request_of_json} as an {!input}: a failed parse keeps the line's
    id when it got far enough to carry one, [fallback_id] otherwise. *)

val request_to_json : request -> string
(** Inverse of {!request_of_json} (no trailing newline).  Used by
    [bvf selftests --export] to write batch-ready corpora.
    @raise Invalid_argument if a branch escapes the program
    (wire-format programs are complete by construction). *)

val response_to_json :
  id:string -> key:string -> ?hit:bool -> Vcache.verdict -> string
(** Encode a verdict response.  Everything before the optional trailing
    ["cache"] field (present when [hit] is given) is a pure function of
    the verdict — stripping that one field makes warm and cold runs
    byte-identical, which is how the determinism gates compare them. *)

val error_to_json : id:string -> string -> string
(** The response to an unparsable input: [{"id":...,"verdict":"error",
    "msg":...}]. *)

(** {1 Input sources} *)

val read_jsonl : string -> input list
(** Requests from a JSONL file, in line order, read with
    {!Bvf_util.Json.read_line}.  Blank lines are skipped; a malformed
    line becomes an [Error] input whose id is ["line<N>"] (1-based)
    unless the line yielded an id before failing, and a line longer
    than {!Bvf_util.Json.max_line} bytes an [Error] input ["line<N>"]
    whose bytes were never kept. *)

val read_dir : string -> input list
(** Requests from a directory, in sorted filename order: [*.bin] (raw
    wire bytes) and [*.hex] (hex text, whitespace ignored).  The
    filename is the id; a [NAME.<prog_type>.bin] infix selects the
    program type, anything else verifies as [socket_filter].  An entry
    that cannot be read is an [Error] input ("cannot read NAME: ..."). *)

(** {1 Tally}

    The one accounting record of a batch run or a serve loop: counters
    plus a fixed-size histogram of cold-verify time, so a long-lived
    serve keeps the same memory after any number of requests. *)

val verify_ladder : int array
(** The latency ladder in nanoseconds: ten geometric steps per decade
    (about 26% apart) from 1 us to 10 s, 100 us, 1 ms and 10 ms among
    them. *)

type tally = {
  mutable tl_requests : int;  (** valid requests answered *)
  mutable tl_invalid : int;  (** inputs answered with an error line *)
  mutable tl_admitted : int;
  mutable tl_rejected : int;
  mutable tl_hits : int;
  mutable tl_misses : int;
  tl_verify_ns : Bvf_util.Hist.t;
      (** cold-verify time of every miss, nanoseconds *)
}

val tally : unit -> tally

val record :
  tally -> sink:Telemetry.sink -> cache:Vcache.t -> key:string ->
  ?verify_s:float -> Vcache.verdict -> unit
(** Count one answered valid request: a cache hit without [verify_s], a
    miss verified in [verify_s] seconds with it.  Emits its cache and
    verdict events (seq = the valid-request index) and inserts a miss's
    verdict into [cache]. *)

val tally_to_json :
  ?id:string -> ?wall_s:float -> cache:Vcache.t -> tally -> string
(** The one tally line (keys in docs/SERVICE.md; p50/p95 are
    {!Bvf_util.Hist.quantile} bucket bounds), with the size and
    eviction count of the session's [cache].  With [id] it opens with
    the id and ["metrics":true] (serve's metrics reply); with [wall_s]
    it ends with ["wall_s"] (batch's summary). *)

(** {1 Batch} *)

(** Per-input outcome, in input order. *)
type outcome =
  | Verdict of { o_key : string; o_hit : bool; o_verdict : Vcache.verdict }
  | Invalid of string  (** parse/decode failure message *)

type item = { it_id : string; it_outcome : outcome }

val item_to_json : item -> string
(** The batch result line for one item ({!response_to_json} with the
    cache field, or {!error_to_json}). *)

val run_batch :
  ?log_level:int -> ?sink:Telemetry.sink ->
  ?prof:Bvf_util.Prof.session -> jobs:int -> cache:Vcache.t ->
  Bvf_kernel.Kconfig.t -> input list -> item list * tally
(** Verify a batch with the cache in front.  The cache is probed before
    any verification, so a program repeated within one batch is a miss
    each time; misses are verified by [jobs] workers (each with its own
    {!create_session} session, round-robin assignment) run over
    {!Bvf_util.Lanes}, at most one domain per core with worker 0 in the
    calling domain, and the items are then {!record}ed in input order
    back in the calling domain, so results are independent of domain
    scheduling and [--jobs 1] output equals [--jobs N] output
    byte-for-byte.

    Keys are {!Vcache.key} under [log_level] (default 0), so a
    response's [vlog] never depends on what level filled the cache.

    [prof] (default: a session that records no spans) records the
    batch as profiler spans: track [d] carries worker [d]'s per-miss
    "verify" spans, track [jobs] the coordinator's "probe" and "join"
    passes.  Pure observation — never affects output bytes.
    @raise Invalid_argument when [jobs < 1]. *)

(** {1 Serve} *)

val serve :
  ?log_level:int -> ?sink:Telemetry.sink -> ?prof:Bvf_util.Prof.t ->
  cache:Vcache.t -> session:Bvf_runtime.Loader.t -> stop:(unit -> bool) ->
  in_channel -> out_channel -> tally
(** The request loop: one JSONL request per input line, one response
    line (flushed) per request, until end of input or [stop ()] turns
    true — the CLI's SIGINT/SIGTERM handlers flip it, so a drain
    finishes the in-flight request, persists the cache and exits.
    Single-domain by design: a serve loop is latency-shaped, and the
    cache answers the repeat-heavy part of the workload.  Returns the
    loop's tally.

    Each line is parsed once, and those fields decide its kind: a flat
    JSON object with ["metrics":true] is a {b metrics request}
    (docs/SERVICE.md), whatever other fields it carries, and the loop
    answers it with {!tally_to_json} of the tally so far, echoing the
    optional ["id"] (default ["metrics"]).  Metrics requests touch no
    counter, emit no telemetry and never reach the verifier, so they
    are invisible to the byte-identity contract of every other
    response.

    Lines are read with {!Bvf_util.Json.read_line}: a line longer
    than {!Bvf_util.Json.max_line} bytes is skipped unkept and answered
    with an error naming ["line<N>"], and the next line is served.

    A program line is first looked up by its wire identity
    ({!Vcache.find_wire}: [prog_type], [attach], [offload] and the
    [prog] text as sent, never the id).  A bound identity answers from
    its entry with nothing decoded or keyed.  Any other program line is
    decoded, keyed with {!Vcache.key} under [log_level] (as in
    {!run_batch}) and looked up with {!Vcache.find} (verified on a
    miss), and its identity is then bound to the entry
    that answered it ({!Vcache.bind_wire}).  Every response byte, tally
    counter, telemetry event and LRU state equals what parsing each
    line in full with {!request_of_json} and looking {!Vcache.key} up
    gives (docs/SERVICE.md).  [prof] (default
    {!Bvf_util.Prof.disabled}) records a "verify" span per cache
    miss. *)
