(** In-DRAM buffer allocator with scannable metadata.

    Commodity NIC firmware keeps one shared buffer allocator whose
    metadata lives in ordinary DRAM. The §3.3 attacks work by walking this
    metadata with raw physical reads to locate a victim's buffers. The
    allocator therefore stores its state *in simulated DRAM*, in a fixed
    little-endian layout, rather than in OCaml heap structures:

    {v
    base + 0:  magic "SNICALOC" (8 bytes)
    base + 8:  entry count N (u64)
    base + 16: N descriptors of 32 bytes:
               owner (u64: 0 = NIC OS, k+1 = NF k)
               addr  (u64)
               len   (u64)
               in_use(u64: 0/1)
    v} *)

type t

val magic : string

(** Byte offsets within a descriptor, for attack code that parses raw
    memory. *)
val desc_size : int

val metadata_base : t -> int

(** [init mem ~base ~heap_base ~heap_size ~max_entries] lays out the
    allocator. The metadata region and heap are claimed for the NIC OS. *)
val init : Physmem.t -> base:int -> heap_base:int -> heap_size:int -> max_entries:int -> t

(** [alloc t ?align ~owner len] carves a buffer aligned to [align]
    (a power of two, default one page) and records it in DRAM metadata;
    pages get [owner]. [None] when out of space. Launching functions
    requests natural alignment so their regions map with a handful of
    variable-size TLB entries. *)
val alloc : t -> ?align:int -> owner:Physmem.owner -> int -> int option

(** [free t addr] releases a buffer (zeroing is the caller's concern —
    commodity NICs do not scrub, which is part of the problem). *)
val free : t -> int -> unit

(** Allocations currently live, as (owner, addr, len). *)
val live : t -> (Physmem.owner * int * int) list
