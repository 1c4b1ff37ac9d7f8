(** Helpers of the repository benchmark: percentiles, the Zipf request
    sampler, response checking and failure accounting.  Pure functions,
    tested by [test_pstats.ml]. *)

(** {1 Percentiles} *)

(** Every percentile is {!Bvf_util.Percentile.of_sorted}, the tree's one
    nearest-rank definition (index [p*(n-1)/100] of the ascending
    sample); these helpers add the ten-beyond rule on top of it. *)

val beyond : int -> int -> int
(** [beyond n p]: how many of [n] samples lie strictly above the index
    {!Bvf_util.Percentile.of_sorted} picks for percentile [p]. *)

val tail_ladder : int list
(** Candidate tail percentiles, highest first: 99, 95, 90, 75, 50. *)

val tail_percentile : int -> int option
(** The highest {!tail_ladder} percentile with at least ten samples
    beyond it among [n] samples; [None] when even p50 has fewer. *)

val median : float list -> float
(** {!Bvf_util.Percentile.of_samples} at 50; [0.] when empty. *)

val window_rates : w:int -> float array -> float list
(** [window_rates ~w times]: [times] holds a start timestamp followed by
    ascending completion timestamps (seconds).  Returns the rate
    [w / span] of each consecutive run of [w] completions, in order; an
    incomplete last run is dropped.
    @raise Invalid_argument when [w < 1]. *)

val spread_order : int -> int array
(** [spread_order n]: a permutation of [0..n-1] whose every prefix is
    spread evenly over the range: the bit-reversal order of the next
    power of two, values [>= n] skipped.  Taking a sorted array in this
    order makes any leading stretch a representative sample of it. *)

(** {1 Zipf sampler} *)

type zipf

val zipf : n:int -> s:float -> zipf
(** Ranks [0..n-1] with weight [1 / (rank + 1) ** s].
    @raise Invalid_argument when [n < 1]. *)

val zipf_draw : zipf -> Bvf_core.Rng.t -> int
(** One rank.  Consumes exactly one RNG draw, so a sequence is a pure
    function of the generator's seed. *)

(** {1 Serve responses} *)

val strip_cache : string -> string * string option
(** Remove the trailing ["cache"] field of a service response (the only
    history-dependent field, docs/SERVICE.md): [(rest, Some "hit")] for
    [{...,"cache":"hit"}], the line unchanged and [None] without one. *)

(** Why one operation failed.  Serve requests fail with the first four
    kinds plus [Repeat_mismatch]; campaign iterations with the last
    three. *)
type failure =
  | No_response       (** the server closed its output *)
  | Unparsable        (** not a JSON object with a cache field *)
  | Verdict_error     (** answered ["verdict":"error"] *)
  | Wrong_verdict     (** differs from the in-process reference *)
  | Repeat_mismatch   (** differs from this program's first answer *)
  | Env_error         (** a campaign iteration ended in [st_env_errors] *)
  | Exception         (** a campaign raised *)
  | Digest_mismatch   (** a repeated campaign changed its digest *)

val failure_name : failure -> string
val all_failures : failure list

val check_response :
  expected:string -> first:string option -> accepted:bool ->
  string option -> (string, failure) result
(** Check one serve response line against the reference bytes
    [expected] (the response with no cache field).  [first] is the
    stripped first answer to the same program, if any; [accepted] asks
    for a known ["verdict":"accepted"] answer (self-tests).  [Ok] carries
    the stripped line. *)

(** {1 Failure accounting} *)

type tally

val tally : unit -> tally
val attempt : tally -> int -> unit
val fail : tally -> ?count:int -> failure -> unit
val attempted : tally -> int
val failed : tally -> int
val count : tally -> failure -> int

val error_rate : tally -> float
(** [failed / attempted]; [0.] before any attempt. *)
