(* A runtime locking-correctness validator in the spirit of Linux lockdep.

   It tracks the stack of held lock classes per execution and flags:
   - recursive acquisition of a lock class already held (the deadlock
     pattern of the paper's Figure 2),
   - release of a lock that is not held (inconsistent lock state),
   - locks still held when an execution ends,
   - acquisition in a context that forbids sleeping/locking (NMI-like).

   These reports are the capture mechanism for indicator #2 deadlock
   bugs (#4, #5, #10 in Table 2). *)

type context = Normal | Softirq | Hardirq | Nmi

type violation =
  | Recursive_lock of string
  | Unlock_not_held of string
  | Held_at_exit of string list
  | Lock_in_nmi of string

let violation_to_string = function
  | Recursive_lock c ->
    Printf.sprintf "possible recursive locking detected: class %s" c
  | Unlock_not_held c ->
    Printf.sprintf "inconsistent lock state: unlock of unheld %s" c
  | Held_at_exit cs ->
    Printf.sprintf "lock held when returning to user space: %s"
      (String.concat ", " cs)
  | Lock_in_nmi c ->
    Printf.sprintf "lock %s acquired in nmi context" c

type t = {
  mutable held : string list;  (* innermost first *)
  mutable ctx : context;
  mutable violations : violation list;
}

let create () = { held = []; ctx = Normal; violations = [] }

let report (t : t) (v : violation) : unit =
  t.violations <- v :: t.violations

let acquire (t : t) (cls : string) : unit =
  if t.ctx = Nmi then report t (Lock_in_nmi cls);
  if List.mem cls t.held then report t (Recursive_lock cls);
  t.held <- cls :: t.held

let release (t : t) (cls : string) : unit =
  if List.mem cls t.held then begin
    (* remove one instance *)
    let rec drop = function
      | [] -> []
      | c :: rest -> if c = cls then rest else c :: drop rest
    in
    t.held <- drop t.held
  end
  else report t (Unlock_not_held cls)

(* Called when a program execution finishes: leaked locks are themselves
   violations, and the held set is reset for the next execution. *)
let end_of_execution (t : t) : unit =
  if t.held <> [] then report t (Held_at_exit t.held);
  t.held <- []

let take_violations (t : t) : violation list =
  let v = List.rev t.violations in
  t.violations <- [];
  v
