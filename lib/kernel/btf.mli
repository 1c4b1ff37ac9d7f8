(** BTF-typed kernel objects programs can obtain pointers to.

    [runtime_null] marks objects whose address is NULL on this simulated
    CPU.  The verifier still types them PTR_TO_BTF_ID without a
    maybe_null flag — the asymmetry paper Bug#1 (Listing 2) exploits:
    loads from BTF pointers are exception-tabled and fail gracefully, so
    "no null check required" is safe for dereferences but poisons
    nullness propagation. *)

type desc = {
  btf_id : int;
  btf_name : string;
  btf_size : int;
  runtime_null : bool;
}

val task_struct : desc
val percpu_slot : desc
(** A per-cpu object that is NULL at runtime on this CPU. *)

val catalogue : desc list
val find : int -> desc option

val validated_size : bug2:bool -> desc -> int
(** The window the verifier validates accesses against; with the
    injected Bug#2, 64 bytes too large for [task_struct]. *)
