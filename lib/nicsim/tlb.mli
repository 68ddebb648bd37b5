(** A small fully-associative TLB with lockable entries.

    S-NIC covers each NF's whole address space with a handful of
    variable-page-size entries configured by [nf_launch] and then locked
    read-only (§4.2); any later miss is a fatal NF bug. The same structure
    fronts virtualized accelerator clusters (§4.3), virtual packet
    pipelines and DMA banks (§4.4). *)

type entry = {
  vbase : int; (* virtual base, aligned to [size] *)
  pbase : int; (* physical base, aligned to [size] *)
  size : int; (* power-of-two bytes *)
  writable : bool;
}

type t

(** [create ?capacity ()] is an empty, unlocked TLB holding at most
    [capacity] entries (default 512). *)
val create : ?capacity:int -> unit -> t

(** [set_sink t sink ~track] directs this TLB's hit/miss counters and
    miss events at [sink], on trace track [track].  Fresh TLBs start on
    {!Obs.null}, which costs one branch per translate. *)
val set_sink : t -> Obs.sink -> track:int -> unit

(** [install t entry] adds a mapping. Raises [Invalid_argument] on
    misalignment, non-power-of-two size, overlap with an existing entry,
    or when the TLB is locked or full. *)
val install : t -> entry -> unit

(** [map_region t ~vbase ~pbase ~len ~writable] covers [len] bytes with a
    greedy sequence of aligned power-of-two entries (the variable-page-size
    packing of §4.2). [vbase], [pbase] and [len] must be page-aligned.
    Returns the number of entries installed. *)
val map_region : t -> vbase:int -> pbase:int -> len:int -> writable:bool -> int

(** After [lock t], installs fail. This models nf_launch setting the TLB
    read-only. *)
val lock : t -> unit

val is_locked : t -> bool

type access = Read | Write

(** [translate t ~vaddr ~access] is the physical address, or [None] on a
    miss / write to a read-only entry. *)
val translate : t -> vaddr:int -> access:access -> int option

(** [translate_run t ~vaddr ~len ~access] is [(paddr, n)] where [n <= len]
    bytes starting at [vaddr] are contiguously mapped by the entry
    covering [vaddr] — the bulk datapath's one-lookup-per-run primitive.
    [None] exactly when [translate] on [vaddr] would miss; a byte past
    the returned run may still be unmapped (call again at [vaddr + n]).
    Counts one hit per run rather than one per byte. *)
val translate_run : t -> vaddr:int -> len:int -> access:access -> (int * int) option

(** All installed entries, most recently installed first. *)
val entries : t -> entry list

(** Total virtual bytes mapped. *)
val mapped_bytes : t -> int
