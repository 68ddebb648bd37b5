(** A whole SoC smart NIC, assembled, with mode-dependent memory
    protection.

    Modes model the §3.2 commodity architectures plus S-NIC:
    - [Liquidio_se_s]: every NF runs privileged; xkphys gives raw
      physical access to everything.
    - [Liquidio_se_um]: Linux-style kernel; NFs get virtual memory, and
      optionally xkphys ([nf_xkphys]) for fast paths.
    - [Agilio]: no translation at all — all memory accessed by raw
      physical address, by anyone.
    - [Bluefield]: TrustZone. NF memory is secure-world memory: other
      (normal-world) NFs are blocked, but the secure-world NIC OS can
      still read and write every NF's state.
    - [Snic]: single-owner semantics — an NF touches only pages it owns
      (locked TLBs), and the NIC OS is repelled from NF pages by the
      memory denylist (§4.2).

    The ISA-level attacks of §3.3 are expressed directly against this
    interface; the machine decides, per mode, which of them succeed. *)

type mode = Liquidio_se_s | Liquidio_se_um of { nf_xkphys : bool } | Agilio | Bluefield | Snic

val mode_name : mode -> string

(** All five architectures (SE-UM in both flavours), commodity first. *)
val all_modes : mode list

(** Stable short mode identifiers for CLIs, trace files, bench keys and
    CI: "se-s", "se-um", "se-um-xk", "agilio", "bluefield", "snic". *)
val mode_id : mode -> string

val mode_of_id : string -> mode option

type principal = Os | Nf_code of int

type fault =
  | Tlb_fault of int (* vaddr *)
  | Denied of { principal : principal; addr : int; reason : string }

val fault_to_string : fault -> string

type t

type config = {
  mode : mode;
  cores : int; (* programmable cores *)
  dram_bytes : int;
  l2 : Cache.t;
  bus : Bus.t;
  accels : Accel.t list;
  host_mem_bytes : int;
  rx_buffer_bytes : int;
  tx_buffer_bytes : int;
}

val default_config : mode:mode -> config
val create : config -> t

(** [set_faults t plan] arms one gray-failure plan across every device of
    this NIC (DMA engine, packet IO, bus arbiter, accelerators) — all
    draw from the same seeded stream, so one seed reproduces the whole
    machine's fault schedule. Unarmed machines behave exactly as before. *)
val set_faults : t -> Faults.t -> unit

val faults : t -> Faults.t option

(** [set_sink t sink] points every device of this NIC (L2, bus, DMA,
    accelerators, packet IO, core TLBs — including TLBs created later by
    teardown paths) at one trace sink, each device on its own track, and
    names the tracks.  The default is {!Obs.null}: instrumentation then
    costs one branch per emit site.  Use [Obs.for_process sink ~pid]
    before calling to give each NIC of a fleet its own process lane. *)
val set_sink : t -> Obs.sink -> unit

(** The machine's current sink ({!Obs.null} unless {!set_sink} ran). *)
val sink : t -> Obs.sink

(** Track number of the control-plane (API) span lane. *)
val track_ctrl : int

val mode : t -> mode
val mem : t -> Physmem.t
val cores : t -> int
val l2 : t -> Cache.t
val bus : t -> Bus.t
val alloc : t -> Alloc.t
val pktio : t -> Pktio.t
val dma : t -> Dma.t
val accel : t -> Accel.kind -> Accel.t

(** Core management. *)
val bind_core : t -> core:int -> nf:int -> unit

val unbind_cores : t -> nf:int -> unit
val core_tlb : t -> core:int -> Tlb.t
val core_owner : t -> core:int -> int option
val free_cores : t -> int list

(** Mark pages as BlueField secure-world memory. *)
val set_secure : t -> pos:int -> len:int -> bool -> unit

(** {2 Accelerator MMIO}

    Each accelerator cluster's configuration registers (rule-graph
    pointer, instruction-queue pointer, ...) are memory-mapped into one
    DRAM page (§3.1/§4.3). On commodity NICs any core can write them —
    the basis of accelerator hijacking; S-NIC's nf_launch transfers the
    page to the owning function so nobody else can reconfigure its
    threads. *)

val accel_mmio_base : t -> kind:Accel.kind -> cluster:int -> int

(** Register offsets within an MMIO page. *)
val mmio_reg_graph : int

val mmio_reg_iq : int

(** {2 Read-only introspection}

    Ground-truth state queries for external checkers (the model-based
    oracle of [lib/oracle]). None of these consult the mode's access
    policy and none mutate anything — they answer "what is", not "who
    may". *)

(** Owner of the 4 KB page containing a physical address. *)
val page_owner : t -> int -> Physmem.owner

(** Snapshot of a core TLB's installed entries (most recent first). *)
val tlb_entries : t -> core:int -> Tlb.entry list

(** {2 Memory access, checked per mode} *)

type addressing = Virt of { core : int; vaddr : int } | Phys of int

val load_u8 : t -> principal -> addressing -> (int, fault) result
val store_u8 : t -> principal -> addressing -> int -> (unit, fault) result
val load_u64 : t -> principal -> addressing -> (int, fault) result
val store_u64 : t -> principal -> addressing -> int -> (unit, fault) result
val load_bytes : t -> principal -> addressing -> len:int -> (string, fault) result
val store_bytes : t -> principal -> addressing -> string -> (unit, fault) result
