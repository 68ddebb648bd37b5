(** The self-healing layer: health checks, bounded retry with backoff,
    circuit-breaker quarantine, and an accelerator watchdog.

    PR 1's fleet recovered from *fail-stop* losses (a NIC dies, an NF is
    destroyed). This module handles the *gray* failures {!Faults} injects:
    devices that are still up but stalling, corrupting, or hanging. The
    supervisor reacts only through the public control-plane API — place,
    evict, [nf_destroy] — so every recovery path exercises the same
    attestation and scrub machinery as a first placement, and the paper's
    invariants (no unattested function runs; teardown scrubs) are
    re-verified rather than assumed after every repair.

    All randomness (backoff jitter) comes from one seeded stream, and
    time is a logical cycle clock, so a seeded run replays its recovery
    schedule byte for byte. *)

(** Cycles an accelerator canary may take before the watchdog declares
    the unit hung; far below {!Nicsim.Accel.hang_horizon}. *)
val watchdog_budget : int

(** Per-NIC circuit breaker: [Closed] (healthy) → [Open] (quarantined
    until the round shown, window doubling on each re-trip) →
    [Probation] (readmitted, re-trips at the first relapse) → [Closed]. *)
type breaker = Closed | Open of { until_round : int } | Probation of { until_round : int }

type t

(** [create ~seed orch] — the supervisor's jitter stream derives
    from [seed]; recovery-latency samples are also observed into the
    [fleet_recovery_ms] histogram of the orchestrator's telemetry
    registry. *)
val create : seed:int -> Orchestrator.t -> t

(** The logical cycle clock (advanced by ticks and backoff waits). *)
val clock : t -> int

(** [No_capacity] placement outcomes — failures retrying cannot fix. *)
val alarms : t -> int

(** Teardowns whose RAM was not zero afterwards — must stay 0. *)
val scrub_failures : t -> int

(** Current circuit-breaker state of a NIC. *)
val breaker : t -> nic:int -> breaker

(** {2 Per-tenant SLO supervision}

    Sustained SLO violation is a health signal like any other — but the
    faulty unit is a {e tenant}, not a NIC: one noisy neighbor
    over-consuming shared credit degrades its victims' tails while
    every NIC stays healthy.  {!note_qos} therefore drives a
    per-tenant instance of the same breaker state machine, and a trip
    quarantines the {e noisy tenant's} NFs (drain with verified scrubs,
    re-place on probation) instead of the hosting NIC. *)

(** One tenant's round deltas, reported from a {!Nicsim.Qos} arbiter:
    SLO violations and latency samples this round, plus the credits it
    consumed beyond its guarantee (the noisiness signal used for
    attribution when a victim's violation is sustained). *)
type qos_round = { violations : int; samples : int; over_credits : int }

(** [note_qos t ~round stats] — one SLO supervision pass over per-tenant
    round deltas.  Expires quarantine windows into probation (re-placing
    the drained tenant), closes clean probations, scores each tenant's
    round against [slo_bad_share], and on a sustained violation
    ([slo_patience] consecutive bad rounds) trips the breaker of the
    top over-guarantee consumer — windows double per re-trip exactly
    like the NIC breaker. *)
val note_qos : t -> round:int -> (int * qos_round) list -> unit

(** Current breaker state of a tenant ([Closed] if never reported). *)
val tenant_breaker : t -> tenant:int -> breaker

(** [place_with_retry t tenant] — {!Orchestrator.replace} under bounded
    retry: transient failures (stage faults, attestation rejections)
    back off exponentially with seeded jitter and try again, up to
    [max_attempts]; [No_capacity] alarms and returns immediately. *)
val place_with_retry : t -> Orchestrator.tenant -> (unit, Orchestrator.place_error) result

(** [note_evict t tenant] — evict, timestamping the displacement so the
    eventual re-attestation yields a recovery-latency sample. *)
val note_evict : t -> Orchestrator.tenant -> unit

(** One supervision pass: score every alive NIC from fault telemetry and
    active probes (bus heartbeat, DMA pattern loopback), run breaker
    transitions (trip → orderly drain with verified scrubs → probation →
    readmission), sweep accelerator watchdog canaries, then re-place all
    stranded tenants. *)
val tick : t -> round:int -> unit

(** Fault→re-attested latency samples, in milliseconds at 1.2 GHz,
    oldest first. *)
val recovery_samples_ms : t -> float list

(** [recovery_quantile_ms t q] — the [q]-quantile (in [0,1]) of the
    recovery samples via {!Obs.Metrics.quantile_of_samples}: [None]
    until at least 2 samples exist (a single displacement has no p99). *)
val recovery_quantile_ms : t -> float -> float option
