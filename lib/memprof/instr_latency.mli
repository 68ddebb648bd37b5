(** Latency model for the trusted instructions (Figure 6 / Appendix C).

    The paper simulates nf_launch / nf_attest / nf_destroy on a 1.2 GHz
    Marvell NIC with its security co-processor. Phase rates recovered
    from the reported numbers: SHA-256 digesting at ~470 MB/s dominates
    nf_launch and scales with the function's memory; scrubbing at
    ~6.6 GB/s dominates nf_destroy; RSA signing fixes nf_attest at
    ~5.6 ms regardless of function size; TLB setup and
    denylist/allowlist updates are tens of microseconds. *)

type launch = { tlb_setup_ms : float; denylist_ms : float; sha_ms : float; total_ms : float }
type destroy = { allowlist_ms : float; scrub_ms : float; total_ms : float }

val launch : Profiles.t -> launch
val destroy : Profiles.t -> destroy

(** nf_attest: RSA signing + a constant-size SHA. *)
val attest_ms : float

(** The calibrated rates (for documentation and tests). *)
val sha_mb_per_s : float

val tlb_setup_ms : float
val denylist_ms : float
val allowlist_ms : float
