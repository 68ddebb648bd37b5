(** Hardware accelerator engines (DPI, ZIP, RAID, crypto).

    An accelerator aggregates hardware threads; S-NIC statically groups
    threads into clusters and fronts each cluster with a TLB bank so a
    cluster can be bound to one NF (§4.3, Figure 3). On a commodity NIC
    the threads are shared by all cores and read rules/data from arbitrary
    physical RAM — the DPI-ruleset-stealing attack exploits exactly that.

    Timing uses a simple service model: one request on one thread costs
    [overhead + bytes * per_byte] cycles; the frontend scheduler assigns
    each request to the earliest-free thread of the chosen cluster. *)

type kind = Dpi | Zip | Raid | Crypto

(** Human-readable engine name ("DPI", "ZIP", ...). *)
val kind_name : kind -> string

(** Per-kind service constants (cycles, cycles/byte). *)
val overhead_cycles : kind -> int

val cycles_per_byte : kind -> float

type t

(** [create ~kind ~threads ~cluster_size] groups [threads] into
    [threads / cluster_size] clusters. [cluster_size] must divide
    [threads]. *)
val create : kind:kind -> threads:int -> cluster_size:int -> t

(** The engine's kind. *)
val kind : t -> kind

(** Number of clusters. *)
val cluster_count : t -> int

(** [set_sink t sink ~track_base] traces every request as a span on its
    thread's track ([track_base + cluster * cluster_size + thread]) from
    dispatch to computed retirement, names each thread track, and bumps
    dispatch/retire counters.  A hung request shows as a span stretching
    past {!hang_horizon}. *)
val set_sink : t -> Obs.sink -> track_base:int -> unit

(** Arm a gray-failure plan: a submitted request may hang (cost inflated
    past {!hang_horizon}, wedging its thread until the cluster is
    released) or complete with garbage output (see {!take_garbage}).
    Unarmed engines behave exactly as before. *)
val set_faults : t -> Faults.t -> unit

(** Completion-time pad marking a hung request; a done-clock this far out
    is a wedge, not a queue. *)
val hang_horizon : int

(** [take_garbage t] — true iff the most recent completion produced
    garbage output (injected [Accel_garbage]); reading clears the flag. *)
val take_garbage : t -> bool

(** Ownership (S-NIC mode): clusters are claimed and released whole. *)
val claim_cluster : t -> nf:int -> int option

(** [release_clusters t ~nf] returns every cluster owned by [nf] to the
    free pool with a fresh, unlocked TLB and zeroed thread clocks. *)
val release_clusters : t -> nf:int -> unit

(** Current owner of a cluster, if any. *)
val cluster_owner : t -> cluster:int -> int option

(** Number of unowned clusters. *)
val free_clusters : t -> int

(** Each cluster's TLB bank (configured by nf_launch, then locked). *)
val cluster_tlb : t -> cluster:int -> Tlb.t

(** [submit t ~cluster ~now ~bytes] schedules a request; returns its
    completion time. *)
val submit : t -> cluster:int -> now:int -> bytes:int -> int

(** [submit_any t ~now ~bytes] uses any thread (commodity sharing). *)
val submit_any : t -> now:int -> bytes:int -> int

(** Reset all thread clocks (between experiments). *)
val reset_timing : t -> unit

(** A streaming access that fell outside the cluster's locked TLB bank;
    [vaddr] is the first faulting virtual address. *)
type stream_error = Stream_fault of { vaddr : int; write : bool }

val stream_error_to_string : stream_error -> string

(** [stream t ~cluster ~now ~mem ~src ~src_len ~dst ~f] streams [src_len]
    bytes from virtual address [src] through the cluster's TLB bank, maps
    them with [f], and writes the result at virtual address [dst] — all on
    the bulk datapath (one translation per mapped run, one page resolution
    per 4 KB). Returns [(bytes_written, completion_time)]; service cost is
    charged on the input size via the cluster's earliest-free thread.
    Injected hang/garbage faults apply as for {!submit} — callers should
    consult {!take_garbage}. *)
val stream :
  t ->
  cluster:int ->
  now:int ->
  mem:Physmem.t ->
  src:int ->
  src_len:int ->
  dst:int ->
  f:(string -> string) ->
  (int * int, stream_error) result
