(** One member of the fleet: a booted {!Snic.Api.t} plus the operator's
    book-keeping about it.

    NICs are heterogeneous: each node has a *shape* describing its core
    count, DRAM, accelerator provisioning, and — crucially for placement —
    the page-size menu its locked TLBs support and how many locked
    entries each core's TLB offers (Table 5). A Monitor-class NF needs
    ~183 entries under the Equal-2MB menu, so it simply does not fit on a
    small NIC's 96-entry TLBs; the placement policies must route it to a
    Flex-menu NIC. *)

type shape = {
  label : string;
  cores : int;
  dram_bytes : int;
  accel_clusters : int; (* clusters per accelerator kind *)
  cluster_size : int; (* hardware threads per cluster *)
  page_menu : int list; (* page sizes the locked TLBs support *)
  tlb_budget_per_core : int; (* locked entries per core TLB *)
  vf_slots : int; (* SR-IOV virtual functions the NIC exposes *)
}

val small : shape
val medium : shape
val large : shape

(** [shape_of_index i] — deterministic heterogeneous rack: shapes cycle
    small, medium, large, medium. *)
val shape_of_index : int -> shape

type t

(** [boot ~vendor ~id shape] boots a fresh S-NIC of this shape with a
    serial derived from [id] (all fleet NICs share the operator's NIC
    vendor, each with its own manufactured identity; [identity_seed]
    defaults to a distinct per-[id] value so no two NICs share EK/AK
    material). *)
val boot : ?identity_seed:int -> vendor:Snic.Identity.vendor -> id:int -> shape -> t

val id : t -> int
val api : t -> Snic.Api.t
val shape : t -> shape

(** {2 Liveness} *)

val alive : t -> bool

(** Simulated hardware failure: the NIC stops answering; every function
    on it is lost (no scrub possible — the paper's threat model makes
    scrubbing a teardown-time duty of live hardware). *)
val kill : t -> unit

(** {2 Quarantine (circuit breaker)}

    A quarantined NIC is alive — its hardware still answers, teardowns
    still scrub — but {!admits} refuses new placements until the
    supervisor's probation window expires and readmits it. *)

val quarantined : t -> bool
val quarantine : t -> unit
val unquarantine : t -> unit

(** {2 Operator-side accounting (admission pre-filter; the trusted
    instructions remain the authority)} *)

val free_cores : t -> int
val mem_headroom : t -> int
val nf_count : t -> int

(** Does [demand] fit this node right now? Checks liveness, cores, RAM
    headroom, accelerator clusters and the per-core locked-TLB entry
    budget under this node's page menu. *)
val admits : t -> Workload.demand -> bool

(** Entries [demand] would lock on this node's per-core TLB. *)
val entries_for : t -> Workload.demand -> int

val commit : t -> Workload.demand -> unit
val release : t -> Workload.demand -> unit

(** {2 Virtual-function slot accounting}

    Tenant vNICs consume VF slots ([shape.vf_slots]: 256 on small NICs,
    512 on medium, 1024 on large); {!Vfplace} packs a rack's worth of
    vNICs against these capacities. *)

val vf_slots : t -> int
val vf_used : t -> int
val vf_headroom : t -> int

(** Claim one VF slot; [false] when the node is dead, quarantined, or
    out of slots. *)
val attach_vf : t -> bool

val release_vf : t -> unit
