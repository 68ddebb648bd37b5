(** Trace-driven multi-core timing model: private L1s, a shared
    (optionally hard-partitioned) L2, and the internal bus (optionally
    temporally partitioned) in front of DRAM.

    This is the gem5 stand-in for Figure 5: the *relative* IPC of a
    domain under S-NIC isolation (hard cache partition + bus temporal
    partitioning) versus the commodity baseline (shared cache,
    free-for-all bus) at identical co-tenancy. Domains advance in global
    time order, so bus contention is order-faithful. *)

type isolation =
  | Baseline (* shared cache, free-for-all bus (commodity) *)
  | Snic (* hard cache partition + temporal bus (the paper's design) *)
  | Cache_only (* hard cache partition, free-for-all bus *)
  | Bus_only (* shared cache, temporal bus *)

type domain_result = {
  nf : string;
  instructions : int;
  cycles : int;
  ipc : float;
  l1_miss_rate : float;
  l2_miss_rate : float;
}

(** [run ?horizon ~l2_bytes ~isolation streams] co-runs [streams] (one
    per domain, wrapped cyclically) for [horizon] cycles (default 2M)
    on the paper's Marvell configuration (32 KB 4-way L1s, 16-way L2,
    64-byte lines) and returns per-domain results. *)
val run : ?horizon:int -> l2_bytes:int -> isolation:isolation -> Workload.t array -> domain_result array

(** [degradation ?horizon ~l2_bytes streams] — per-domain relative IPC
    loss of [Snic] vs [Baseline], in percent. *)
val degradation : ?horizon:int -> l2_bytes:int -> Workload.t array -> (string * float) array
