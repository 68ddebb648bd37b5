(** Memory-usage-over-time model for the Monitor NF (Figure 7).

    The paper replays a five-minute CAIDA slice and plots the NF's actual
    memory against the fixed S-NIC preallocation: the line shows a DPDK
    hugepage-initialization spike at startup, staircase growth as the
    flow table fills, and transient spikes at each HashMap doubling —
    peaking at the preallocation watermark while steady state needs only
    ~68% of it. This module reproduces that curve from the flow-arrival
    rate and the {!Hashmap_model}. *)

type point = {
  t_s : float;
  used_mb : float; (* memory actually in use at t *)
  prealloc_mb : float; (* the fixed S-NIC reservation (flat line) *)
}

(** [monitor ?samples ()] — the curve at [samples] (default 150) even
    steps, calibrated to the paper's Monitor numbers: 1.8 M flows over
    150 s, 113-byte table entries, 14.9 MB of steady DPDK base, and a
    startup staging copy. *)
val monitor : ?samples:int -> unit -> point list

(** Convenience inspection. *)
val peak_mb : point list -> float

val final_mb : point list -> float

(** Number of transient resize spikes visible in the series. *)
val spike_count : point list -> int
