(** Packet ingress/egress: switch rules, RX/TX buffer accounting and
    per-NF descriptor rings (the packet input/output modules of Figure 1,
    and the raw material of S-NIC's virtual packet pipelines, §4.4).

    The packet input module matches each arriving frame against the
    switching rules (5-tuple predicates, optionally a VXLAN VNI), copies
    it into a buffer drawn from the destination NF's buffer pool in DRAM,
    and pushes a descriptor. The output module drains TX descriptors onto
    the wire. *)

type rule_match = {
  src_prefix : (Net.Ipv4_addr.t * int) option;
  dst_prefix : (Net.Ipv4_addr.t * int) option;
  proto : int option;
  src_port : int option;
  dst_port : int option;
  vni : int option; (* matches VXLAN-encapsulated traffic's VNI *)
}

val match_any : rule_match

type t

(** [create mem alloc ~rx_buffer_bytes ~tx_buffer_bytes] with total
    physical port buffer capacities. *)
val create : Physmem.t -> Alloc.t -> rx_buffer_bytes:int -> tx_buffer_bytes:int -> t

(** Arm a gray-failure plan: ingress may drop ([Faults.Rx_drop]) or
    bit-flip ([Faults.Rx_corrupt]) an arriving frame, and egress may eat
    a departing one ([Faults.Tx_drop], buffer still recycled). Unarmed
    ports behave exactly as before. *)
val set_faults : t -> Faults.t -> unit

(** [set_sink t sink ~track] counts RX enqueues, TX completions and drops
    (drops also get a point event), and forwards the sink to every
    per-NF packet scheduler, current and future. *)
val set_sink : t -> Obs.sink -> track:int -> unit

(** [add_rule t ~m ~nf] directs matching packets to [nf]. Rules are
    consulted in insertion order. *)
val add_rule : t -> m:rule_match -> nf:int -> unit

(** [reserve t ?sched ~nf ~rx_bytes ~tx_bytes] claims port buffer space
    for an NF's virtual packet pipeline and installs its packet scheduler
    (default FIFO); fails when the physical ports lack space. *)
val reserve : ?sched:Sched.policy -> t -> nf:int -> rx_bytes:int -> tx_bytes:int -> (unit, string) result

(** The scheduling discipline of an NF's pipeline. *)
val scheduler_of : t -> nf:int -> Sched.policy option

val release : t -> nf:int -> unit

(** Total bytes currently reserved across NFs. Computed as a
    [Hashtbl.fold] sum — commutative by construction, so insertion
    order cannot leak into the result (the regression suite holds this
    to account). *)
val reserved_rx : t -> int

val reserved_tx : t -> int

(** Remaining unreserved space. *)
val rx_available : t -> int

val tx_available : t -> int

(** [deliver t frame] runs ingress for one wire frame. Returns the NF it
    was queued for, [Error] when no rule matches or the NF's pool is
    exhausted (packet dropped). *)
val deliver : t -> Bytes.t -> (int, string) result

(** [deliver_batch t frames] runs ingress for a list of frames in order
    and returns [(queued, rejected)].  Observationally identical to
    folding {!deliver} over [frames] — same per-frame fault draws, drops
    and scheduler state — but the RX counter is bumped once per batch
    instead of once per frame, which is what the batched front-end
    ([Fleet.Frontend]) amortizes.  [queued + rejected] is always
    [List.length frames]. *)
val deliver_batch : t -> Bytes.t list -> int * int

(** [rx_pop t ~nf] pops the next (physical address, length) descriptor. *)
val rx_pop : t -> nf:int -> (int * int) option

val rx_depth : t -> nf:int -> int

(** [transmit t ~nf ~addr ~len] copies [len] bytes at [addr] to the wire
    and recycles the buffer. *)
val transmit : t -> nf:int -> addr:int -> len:int -> unit

(** Frames that left on the wire, oldest first. *)
val wire_out : t -> Bytes.t list

(** [wire_since t ~count] is the frames that left on the wire after the
    first [count], oldest first: the suffix of {!wire_out} past [count],
    in time linear in its length rather than in the whole history. *)
val wire_since : t -> count:int -> Bytes.t list

val drop_count : t -> int

(** [recycle t ~addr] returns a popped RX buffer to the allocator without
    transmitting (the NF dropped the packet). *)
val recycle : t -> addr:int -> unit

(** [deliver_to t ~nf frame] queues a frame directly into [nf]'s pipeline,
    bypassing the switch rules — the cross-VPP transfer path that an
    extended S-NIC would use for chained functions (§4.8). Fails if the
    NF has no pipeline or its pool is exhausted. *)
val deliver_to : t -> nf:int -> Bytes.t -> (unit, string) result
