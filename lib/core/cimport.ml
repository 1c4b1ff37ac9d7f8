(* Short aliases for substrate modules used by the BVF core. *)

module Word = Bvf_ebpf.Word
module Version = Bvf_ebpf.Version
module Insn = Bvf_ebpf.Insn
module Asm = Bvf_ebpf.Asm
module Prog = Bvf_ebpf.Prog
module Helper = Bvf_ebpf.Helper
module Disasm = Bvf_ebpf.Disasm
module Encode = Bvf_ebpf.Encode
module Kconfig = Bvf_kernel.Kconfig
module Kstate = Bvf_kernel.Kstate
module Map = Bvf_kernel.Map
module Btf = Bvf_kernel.Btf
module Report = Bvf_kernel.Report
module Lockdep = Bvf_kernel.Lockdep
module Tracepoint = Bvf_kernel.Tracepoint
module Verifier = Bvf_verifier.Verifier
module Venv = Bvf_verifier.Venv
module Coverage = Bvf_verifier.Coverage
module Loader = Bvf_runtime.Loader
module Exec = Bvf_runtime.Exec
module Reject_reason = Bvf_verifier.Reject_reason
module Vstats = Bvf_verifier.Vstats
module Json = Bvf_util.Json
