(* Deterministic allocation fault injection, modeled on Linux's
   CONFIG_FAILSLAB / CONFIG_FAULT_INJECTION framework.

   A fault plan is a seeded, rate-configurable decision stream consulted
   at every fallible allocation site in the simulated kernel (map
   creation, hash-element insertion, ringbuf reserve, verifier state
   allocation, execution scratch).  Each consultation draws one value
   from a private splitmix64 stream — never from the campaign's RNG —
   so enabling or re-rating fault injection does not perturb program
   generation, and a campaign checkpoint that saves the plan's state
   resumes the exact same decision stream.

   Like the kernel's fault_attr, a plan supports a [space] grace count
   (the first N attempts never fail, so a session can boot) and keeps
   per-site statistics for reporting. *)

type t = {
  fs_rate : float;            (* P(failure) per eligible attempt *)
  fs_seed : int;
  mutable fs_space : int;     (* attempts left in the grace period *)
  mutable fs_rng : int64;     (* private splitmix64 state *)
  mutable fs_attempts : int;  (* allocation attempts consulted *)
  mutable fs_injected : int;  (* failures injected *)
  fs_sites : (string, int) Hashtbl.t; (* site -> injected count *)
}

let create ?(space = 0) ?(seed = 1) ~(rate : float) () : t =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Failslab.create: rate must be in [0, 1]";
  {
    fs_rate = rate;
    fs_seed = seed;
    fs_space = space;
    fs_rng = Int64.of_int ((seed * 0x9E3779B9) lxor 0x5F5_5AB);
    fs_attempts = 0;
    fs_injected = 0;
    fs_sites = Hashtbl.create 16;
  }

(* A disabled plan: rate 0, shared nowhere, consumes no stream state on
   the fast path. *)
let off () : t = create ~rate:0.0 ()

let enabled (t : t) : bool = t.fs_rate > 0.0
let rate (t : t) : float = t.fs_rate
let seed (t : t) : int = t.fs_seed

let attempts (t : t) : int = t.fs_attempts
let injected (t : t) : int = t.fs_injected

let injected_at (t : t) ~(site : string) : int =
  Option.value (Hashtbl.find_opt t.fs_sites site) ~default:0

let sites (t : t) : (string * int) list =
  Hashtbl.fold (fun s n acc -> (s, n) :: acc) t.fs_sites []
  |> List.sort compare

(* splitmix64 step on the private stream. *)
let next (t : t) : int64 =
  t.fs_rng <- Int64.add t.fs_rng 0x9E3779B97F4A7C15L;
  let z = t.fs_rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Should the allocation at [site] fail?  Disabled plans return false
   without touching any state, so a kernel running without fault
   injection behaves bit-identically to one with no plan at all. *)
let should_fail (t : t) ~(site : string) : bool =
  if t.fs_rate <= 0.0 then false
  else begin
    t.fs_attempts <- t.fs_attempts + 1;
    if t.fs_space > 0 then begin
      t.fs_space <- t.fs_space - 1;
      ignore (next t); (* keep the stream position attempt-indexed *)
      false
    end
    else begin
      let u =
        Int64.to_float (Int64.shift_right_logical (next t) 11)
        /. 9007199254740992.0
      in
      let fail = u < t.fs_rate in
      if fail then begin
        t.fs_injected <- t.fs_injected + 1;
        Hashtbl.replace t.fs_sites site (1 + injected_at t ~site)
      end;
      fail
    end
  end

let pp_summary fmt (t : t) : unit =
  if not (enabled t) then Format.fprintf fmt "failslab: off@."
  else
    Format.fprintf fmt
      "failslab: rate %.2f seed %d, %d/%d allocations failed (%s)@."
      t.fs_rate t.fs_seed t.fs_injected t.fs_attempts
      (String.concat ", "
         (List.map (fun (s, n) -> Printf.sprintf "%s:%d" s n) (sites t)))
