(* Monotonic wall clock: an Mtime-style wrapper over Unix.gettimeofday.

   Unix.gettimeofday follows the system realtime clock, which NTP slews
   and administrators step: a timer delta taken across an adjustment can
   come out negative, and the profiler's phase totals and per-program
   verification times must never go backwards.  This module
   is the one place that reads the wall clock for *durations*: it clamps
   the raw reading to be globally non-decreasing, so any delta between
   two [now_s] readings is >= 0 by construction.

   The high-water mark is a process-global [Atomic.t] because campaign
   shards read the clock concurrently from several domains; the CAS loop
   keeps the published value monotone without a lock. *)

let last : float Atomic.t = Atomic.make 0.0

let rec now_s () : float =
  let t = Unix.gettimeofday () in
  let prev = Atomic.get last in
  if t >= prev then
    if Atomic.compare_and_set last prev t then t else now_s ()
  else prev (* clock stepped backwards: hold the high-water mark *)

let elapsed_s ~(since : float) : float =
  let dt = now_s () -. since in
  if dt > 0.0 then dt else 0.0

let time_s (f : unit -> 'a) : 'a * float =
  let t0 = now_s () in
  let v = f () in
  (v, elapsed_s ~since:t0)
