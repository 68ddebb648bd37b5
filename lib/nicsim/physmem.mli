(** Sparse simulated physical memory with per-page ownership.

    On-NIC DRAM is gigabytes, so pages are materialized lazily. Ownership
    is the ground truth that S-NIC's trusted hardware enforces: every 4 KB
    frame belongs to nobody, to the NIC OS, or to exactly one network
    function (single-owner RAM semantics, §4.2). The *enforcement* of
    ownership depends on the machine mode and lives in {!Machine}; this
    module just stores bytes and owners.

    {2 The bulk datapath}

    Multi-byte accesses resolve each 4 KB page once and [Bytes.blit]
    within it, so an N-byte transfer costs O(N/4096) page-table lookups
    instead of O(N). The sparse-page invariant is preserved: a page
    absent from the table reads as zeroes, bulk reads never materialize
    it, and [zero_range] over a whole page drops it back out of the
    table. DMA, packet IO and accelerator streaming all ride this path. *)

type t

type owner = Free | Nic_os | Nf of int

val page_bits : int
(** 12: 4 KB ownership/backing granularity. *)

val page_size : int

(** [create ~size] models [size] bytes of DRAM. Accesses beyond [size]
    raise [Invalid_argument]; the bounds check is overflow-safe, so a
    hostile length near [max_int] cannot wrap past it. *)
val create : size:int -> t

(** Page-table lookups served so far — one per byte on the legacy
    [read_u8]/[write_u8] path, one per 4 KB page on the bulk path. The
    datapath bench gates regressions on this counter. *)
val resolutions : t -> int

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

(** [flip_bit t ~pos ~bit] flips bit [bit] (0..7) of the byte at [pos],
    ignoring ownership — the DRAM-rot primitive for fault injection. *)
val flip_bit : t -> pos:int -> bit:int -> unit

(** Little-endian 64-bit accessors (used by allocator metadata and
    descriptor rings). Values are OCaml ints (62 significant bits). *)
val read_u64 : t -> int -> int

val write_u64 : t -> int -> int -> unit

(** [blit_to_bytes t ~pos buf ~off ~len] copies [len] DRAM bytes starting
    at [pos] into [buf] at [off], one page resolution per 4 KB.
    Never-written pages read as zeroes without being materialized. *)
val blit_to_bytes : t -> pos:int -> Bytes.t -> off:int -> len:int -> unit

(** [blit_from_bytes t ~pos buf ~off ~len] copies [len] bytes from [buf]
    at [off] into DRAM at [pos], one page resolution per 4 KB. *)
val blit_from_bytes : t -> pos:int -> Bytes.t -> off:int -> len:int -> unit

(** [fill t ~pos ~len c] writes [len] copies of [c]. Filling with
    ['\000'] is [zero_range] (drops whole pages back to sparse). *)
val fill : t -> pos:int -> len:int -> char -> unit

val read_bytes : t -> pos:int -> len:int -> string
val write_bytes : t -> pos:int -> string -> unit

(** [zero_range t ~pos ~len] scrubs memory (the work nf_teardown does).
    Fully covered pages are dropped from the table, restoring the sparse
    zero page; partial edge pages are cleared in place. *)
val zero_range : t -> pos:int -> len:int -> unit

(** [is_zero t ~pos ~len] checks a scrub page-at-a-time (verified-scrub
    support: absent pages are zero by the sparse invariant). *)
val is_zero : t -> pos:int -> len:int -> bool

val owner_of : t -> int -> owner

(** [set_owner t ~pos ~len owner] claims whole pages covering the range.
    Raises [Invalid_argument] if the range is not page-aligned. *)
val set_owner : t -> pos:int -> len:int -> owner -> unit

(** All page indices owned by [owner], in ascending order (sorted so
    scrub/teardown walks are deterministic across OCaml versions). *)
val pages_owned : t -> owner -> int list

(** All pages owned by [owner], as ascending (pos, len) runs. *)
val owned_ranges : t -> owner -> (int * int) list

val pp_owner : Format.formatter -> owner -> unit
val owner_equal : owner -> owner -> bool
