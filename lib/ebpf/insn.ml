(* Structured representation of the eBPF instruction set.

   We model the full classic + extended instruction set: ALU/ALU64 with
   register and immediate sources, JMP/JMP32 conditional branches, memory
   loads/stores of all four widths, 128-bit immediate loads with their
   pseudo-source relocations (map fd, map value, BTF object), atomic
   read-modify-write operations, calls (helpers, kfuncs, bpf-to-bpf
   subprograms) and exit.

   Programs are arrays of [t].  Unlike the raw binary encoding where
   LD_IMM64 occupies two 8-byte slots, each element here is one logical
   instruction; all branch offsets are measured in *elements* relative to
   the following instruction.  [Encode] translates to and from the
   slot-based binary encoding, including offset adjustment. *)

type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10 | R11

let reg_to_int = function
  | R0 -> 0 | R1 -> 1 | R2 -> 2 | R3 -> 3 | R4 -> 4 | R5 -> 5
  | R6 -> 6 | R7 -> 7 | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11

let reg_of_int = function
  | 0 -> Some R0 | 1 -> Some R1 | 2 -> Some R2 | 3 -> Some R3
  | 4 -> Some R4 | 5 -> Some R5 | 6 -> Some R6 | 7 -> Some R7
  | 8 -> Some R8 | 9 -> Some R9 | 10 -> Some R10 | 11 -> Some R11
  | _ -> None

let all_regs = [ R0; R1; R2; R3; R4; R5; R6; R7; R8; R9; R10 ]

let pp_reg fmt r = Format.fprintf fmt "r%d" (reg_to_int r)

type size = B | H | W | DW

let size_bytes = function B -> 1 | H -> 2 | W -> 4 | DW -> 8

let pp_size fmt s =
  Format.pp_print_string fmt
    (match s with B -> "u8" | H -> "u16" | W -> "u32" | DW -> "u64")

type alu_op =
  | Add | Sub | Mul | Div | Or | And | Lsh | Rsh | Neg | Mod | Xor
  | Mov | Arsh

let alu_op_to_string = function
  | Add -> "+=" | Sub -> "-=" | Mul -> "*=" | Div -> "/=" | Or -> "|="
  | And -> "&=" | Lsh -> "<<=" | Rsh -> ">>=" | Neg -> "neg" | Mod -> "%="
  | Xor -> "^=" | Mov -> "=" | Arsh -> "s>>="

type cond =
  | Jeq | Jne | Jgt | Jge | Jlt | Jle | Jsgt | Jsge | Jslt | Jsle | Jset

let cond_to_string = function
  | Jeq -> "==" | Jne -> "!=" | Jgt -> ">" | Jge -> ">=" | Jlt -> "<"
  | Jle -> "<=" | Jsgt -> "s>" | Jsge -> "s>=" | Jslt -> "s<"
  | Jsle -> "s<=" | Jset -> "&"

(* Logical negation of a branch condition (used for branch analysis). *)
let cond_negate = function
  | Jeq -> Jne | Jne -> Jeq | Jgt -> Jle | Jle -> Jgt | Jge -> Jlt
  | Jlt -> Jge | Jsgt -> Jsle | Jsle -> Jsgt | Jsge -> Jslt | Jslt -> Jsge
  | Jset -> Jset (* no exact negation; handled specially by callers *)

type src = Imm of int32 | Reg of reg

let pp_src fmt = function
  | Imm i -> Format.fprintf fmt "%ld" i
  | Reg r -> pp_reg fmt r

(* Pseudo-relocations carried by the 128-bit immediate load, mirroring the
   src_reg pseudo values of the kernel (BPF_PSEUDO_MAP_FD etc.).  [Btf_obj]
   plays the role of BPF_PSEUDO_BTF_ID: the address of a typed kernel
   object (e.g. a task_struct), a pointer the program may use without a
   null check. *)
type ld64_kind =
  | Const of int64
  | Map_fd of int
  | Map_value of int * int (* map fd, offset into the value *)
  | Btf_obj of int         (* BTF object id in the simulated kernel *)

type call_target =
  | Helper of int      (* stable helper function id, see {!Helper} *)
  | Kfunc of int       (* kernel function (BTF id); src_reg pseudo 2 *)
  | Local of int       (* bpf-to-bpf call, element offset to target-1 *)

type atomic_op = A_add | A_or | A_and | A_xor | A_xchg | A_cmpxchg

let atomic_op_to_string = function
  | A_add -> "add" | A_or -> "or" | A_and -> "and" | A_xor -> "xor"
  | A_xchg -> "xchg" | A_cmpxchg -> "cmpxchg"

type t =
  | Alu of { op64 : bool; op : alu_op; dst : reg; src : src }
  | Endian of { swap : bool; bits : int; dst : reg }
    (* bswap16/32/64; [swap]=false is the no-op to-little conversion *)
  | Ld_imm64 of reg * ld64_kind
  | Ldx of { sz : size; dst : reg; src : reg; off : int }
  | St of { sz : size; dst : reg; off : int; imm : int32 }
  | Stx of { sz : size; dst : reg; src : reg; off : int }
  | Atomic of
      { sz : size; op : atomic_op; fetch : bool; dst : reg; src : reg;
        off : int }
  | Jmp of { op32 : bool; cond : cond; dst : reg; src : src; off : int }
  | Ja of int
  | Call of call_target
  | Exit

(* Number of 8-byte slots the instruction occupies in the wire encoding. *)
let slots = function Ld_imm64 _ -> 2 | _ -> 1

let prog_slots (prog : t array) : int =
  Array.fold_left (fun acc i -> acc + slots i) 0 prog

(* Registers read / written, used for triage slicing and dead-code style
   analyses.  R10 is always readable (frame pointer); calls clobber
   R0-R5. *)
let src_is (s : src) (r : reg) : bool =
  match s with Reg x -> x = r | Imm _ -> false

let is_arg_reg (r : reg) : bool =
  match r with
  | R1 | R2 | R3 | R4 | R5 -> true
  | R0 | R6 | R7 | R8 | R9 | R10 | R11 -> false

(* The predicates are the definition; the list forms below derive from
   them.  Predicates allocate nothing, so per-instruction scans of whole
   programs (the reserved-register check, loop certificates) stay
   linear without building lists. *)
let reads_reg (i : t) (r : reg) : bool =
  match i with
  | Alu { op = Mov; src; _ } -> src_is src r
  | Alu { op = Neg; dst; _ } | Endian { dst; _ } | St { dst; _ } -> dst = r
  | Alu { dst; src; _ } | Jmp { dst; src; _ } -> dst = r || src_is src r
  | Ld_imm64 _ | Ja _ -> false
  | Ldx { src; _ } -> src = r
  | Atomic { op = A_cmpxchg; dst; src; _ } ->
    (* compares the old value with R0 *)
    dst = r || src = r || r = R0
  | Stx { dst; src; _ } | Atomic { dst; src; _ } -> dst = r || src = r
  | Call _ -> is_arg_reg r
  | Exit -> r = R0

let writes_reg (i : t) (r : reg) : bool =
  match i with
  | Alu { dst; _ } | Endian { dst; _ } | Ld_imm64 (dst, _) | Ldx { dst; _ }
    -> dst = r
  (* cmpxchg loads the old value into R0, never into src; it always
     carries the fetch flag, so it is matched first *)
  | Atomic { op = A_cmpxchg; _ } -> r = R0
  | Atomic { fetch = true; src; _ } -> src = r
  | Atomic _ | St _ | Stx _ | Jmp _ | Ja _ | Exit -> false
  | Call _ -> r = R0 || is_arg_reg r

(* including the hidden R11 that rewrite passes emit *)
let every_reg = all_regs @ [ R11 ]

let regs_read (i : t) : reg list = List.filter (reads_reg i) every_reg

let regs_written (i : t) : reg list = List.filter (writes_reg i) every_reg

(* [Array.of_list (List.rev l)] without a forced minor collection.  The
   stdlib builders ([Array.of_list], [init], [map], [mapi]) seed the
   array with its first element, and for an array above 256 words with
   a young seed the runtime first empties the minor heap — under OCaml
   5 a stop-the-world pause for every domain.  [Exit] is an immediate,
   so seeding with it never forces anything. *)
let array_of_rev_list (l : t list) : t array =
  let n = List.length l in
  let a = Array.make n Exit in
  let rec fill k = function
    | [] -> ()
    | i :: rest ->
      Array.unsafe_set a k i;
      fill (k - 1) rest
  in
  fill (n - 1) l;
  a

let equal (a : t) (b : t) = a = b

let pp fmt (i : t) =
  match i with
  | Alu { op64; op = Neg; dst; _ } ->
    Format.fprintf fmt "%a = -%a%s" pp_reg dst pp_reg dst
      (if op64 then "" else " (w)")
  | Alu { op64; op; dst; src } ->
    Format.fprintf fmt "%a %s %a%s" pp_reg dst (alu_op_to_string op) pp_src
      src
      (if op64 then "" else " (w)")
  | Endian { swap; bits; dst } ->
    Format.fprintf fmt "%a = %s%d %a" pp_reg dst
      (if swap then "bswap" else "le")
      bits pp_reg dst
  | Ld_imm64 (dst, Const v) ->
    Format.fprintf fmt "%a = %Ld ll" pp_reg dst v
  | Ld_imm64 (dst, Map_fd fd) ->
    Format.fprintf fmt "%a = map_fd(%d)" pp_reg dst fd
  | Ld_imm64 (dst, Map_value (fd, off)) ->
    Format.fprintf fmt "%a = map_value(%d)+%d" pp_reg dst fd off
  | Ld_imm64 (dst, Btf_obj id) ->
    Format.fprintf fmt "%a = btf_obj(%d)" pp_reg dst id
  | Ldx { sz; dst; src; off } ->
    Format.fprintf fmt "%a = *(%a *)(%a %+d)" pp_reg dst pp_size sz pp_reg
      src off
  | St { sz; dst; off; imm } ->
    Format.fprintf fmt "*(%a *)(%a %+d) = %ld" pp_size sz pp_reg dst off imm
  | Stx { sz; dst; src; off } ->
    Format.fprintf fmt "*(%a *)(%a %+d) = %a" pp_size sz pp_reg dst off
      pp_reg src
  | Atomic { sz; op; fetch; dst; src; off } ->
    Format.fprintf fmt "lock *(%a *)(%a %+d) %s%s %a" pp_size sz pp_reg dst
      off
      (atomic_op_to_string op)
      (if fetch then "_fetch" else "")
      pp_reg src
  | Jmp { op32; cond; dst; src; off } ->
    Format.fprintf fmt "if %a %s %a goto %+d%s" pp_reg dst
      (cond_to_string cond) pp_src src off
      (if op32 then " (w)" else "")
  | Ja off -> Format.fprintf fmt "goto %+d" off
  | Call (Helper id) -> Format.fprintf fmt "call helper#%d" id
  | Call (Kfunc id) -> Format.fprintf fmt "call kfunc#%d" id
  | Call (Local off) -> Format.fprintf fmt "call local%+d" off
  | Exit -> Format.pp_print_string fmt "exit"

let to_string i = Format.asprintf "%a" pp i
