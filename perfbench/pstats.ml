(* Benchmark helpers; see pstats.mli. *)

module Percentile = Bvf_util.Percentile

(* Bvf_util.Percentile's index rule: element p*(n-1)/100 of the sorted
   sample, so everything above that index lies beyond it *)
let beyond (n : int) (p : int) : int = if n = 0 then 0 else n - 1 - (p * (n - 1) / 100)

let tail_ladder = [ 99; 95; 90; 75; 50 ]

let tail_percentile (n : int) : int option =
  List.find_opt (fun p -> beyond n p >= 10) tail_ladder

let median (xs : float list) : float = Percentile.of_samples xs 50

let window_rates ~(w : int) (times : float array) : float list =
  if w < 1 then invalid_arg "Pstats.window_rates: w < 1";
  let windows = max 0 (Array.length times - 1) / w in
  List.init windows (fun i ->
      float_of_int w /. (times.((i + 1) * w) -. times.(i * w)))

let spread_order (n : int) : int array =
  let bits = ref 0 in
  while 1 lsl !bits < n do incr bits done;
  let reverse i =
    let r = ref 0 in
    for b = 0 to !bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (!bits - 1 - b))
    done;
    !r
  in
  Array.of_list
    (List.filter (fun r -> r < n) (List.init (1 lsl !bits) reverse))

(* -- Zipf ----------------------------------------------------------------- *)

type zipf = { cdf : float array }

let zipf ~(n : int) ~(s : float) : zipf =
  if n < 1 then invalid_arg "Pstats.zipf: n < 1";
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !acc
  done;
  Array.iteri (fun r c -> cdf.(r) <- c /. !acc) cdf;
  { cdf }

(* 53 uniform bits from one draw, then the first rank whose cumulative
   weight reaches them *)
let zipf_draw (z : zipf) (rng : Bvf_core.Rng.t) : int =
  let bits = Int64.shift_right_logical (Bvf_core.Rng.next rng) 11 in
  let u = Int64.to_float bits /. 9007199254740992. in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* -- Serve responses ------------------------------------------------------ *)

let cache_marker = ",\"cache\":\""

let strip_cache (line : string) : string * string option =
  let n = String.length line and m = String.length cache_marker in
  (* the field is last: find the marker's final occurrence *)
  let rec find i =
    if i < 0 then None
    else if String.sub line i m = cache_marker then Some i
    else find (i - 1)
  in
  match find (n - m) with
  | Some i when n >= i + m + 2 && String.sub line (n - 2) 2 = "\"}" ->
    let word = String.sub line (i + m) (n - 2 - (i + m)) in
    if word <> "" && not (String.contains word '"') then
      (String.sub line 0 i ^ "}", Some word)
    else (line, None)
  | _ -> (line, None)

type failure =
  | No_response
  | Unparsable
  | Verdict_error
  | Wrong_verdict
  | Repeat_mismatch
  | Env_error
  | Exception
  | Digest_mismatch

let all_failures =
  [ No_response; Unparsable; Verdict_error; Wrong_verdict; Repeat_mismatch;
    Env_error; Exception; Digest_mismatch ]

let failure_name = function
  | No_response -> "no_response"
  | Unparsable -> "unparsable"
  | Verdict_error -> "verdict_error"
  | Wrong_verdict -> "wrong_verdict"
  | Repeat_mismatch -> "repeat_mismatch"
  | Env_error -> "env_error"
  | Exception -> "exception"
  | Digest_mismatch -> "digest_mismatch"

let accepted_field = "\"verdict\":\"accepted\""

let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_response ~(expected : string) ~(first : string option)
    ~(accepted : bool) (line : string option) : (string, failure) result =
  match line with
  | None -> Error No_response
  | Some line ->
    let stripped, cache = strip_cache line in
    let repeat_ok =
      match first with Some f -> f = stripped | None -> true
    in
    let right =
      stripped = expected
      && ((not accepted) || contains stripped accepted_field)
    in
    (* the reference is a well-formed response, so a line equal to it
       plus a cache field needs no parse: that is the common case *)
    if cache <> None && repeat_ok && right then Ok stripped
    else
      match Bvf_core.Telemetry.parse_object line with
      | exception Bvf_core.Telemetry.Parse -> Error Unparsable
      | _ when cache = None -> Error Unparsable
      | fields ->
        if List.assoc_opt "verdict" fields
           = Some (Bvf_core.Telemetry.Jstr "error")
        then Error Verdict_error
        else if not repeat_ok then Error Repeat_mismatch
        else Error Wrong_verdict

(* -- Failure accounting --------------------------------------------------- *)

type tally = { mutable attempted : int; counts : (failure, int) Hashtbl.t }

let tally () = { attempted = 0; counts = Hashtbl.create 8 }
let attempt t n = t.attempted <- t.attempted + n

let fail t ?(count = 1) k =
  Hashtbl.replace t.counts k
    (count + Option.value (Hashtbl.find_opt t.counts k) ~default:0)

let attempted t = t.attempted
let count t k = Option.value (Hashtbl.find_opt t.counts k) ~default:0
let failed t = Hashtbl.fold (fun _ n acc -> acc + n) t.counts 0

let error_rate t =
  if t.attempted = 0 then 0.
  else float_of_int (failed t) /. float_of_int t.attempted
