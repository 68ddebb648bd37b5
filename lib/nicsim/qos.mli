(** Per-tenant performance isolation: a credit/budget arbiter fronting
    the three shared NIC resources — {!Bus} transactions, {!Dma}
    transfer bytes and {!Accel} stream cycles.

    S-NIC's temporal partitioning is the {e security} half of
    multi-tenant isolation; OSMOSIS observes that a SmartNIC still
    fails its tenants without the {e performance} half: one noisy
    neighbor on a shared DMA engine or accelerator cluster starves
    everyone else even when every access check passes.  This module
    adds that half as a credit scheme:

    - time is divided into fixed accounting {e epochs} (cycles);
    - each tenant holds a per-resource {e guarantee} (credits refilled
      every epoch) and a {e cap} (burst ceiling per epoch);
    - a request inside the guarantee is always granted — registration
      rejects over-subscription, so guarantees are real;
    - beyond its guarantee a tenant may {e borrow} from slack
      (capacity not promised to anyone, plus credit donated by tenants
      that left their guarantee unused last epoch) — but never from
      credit still reserved for another tenant's unreached guarantee;
    - otherwise the request gets typed {!Throttled} backpressure with
      the cycle at which credit next refills, instead of queueing
      behind (and degrading) its neighbors.

    Unused guaranteed credit is donated to the next epoch's shared
    slack pool (clamped at one epoch's capacity), so idle credit is
    redistributed, never destroyed — the work-conservation property
    [test/test_qos.ml] checks.

    The arbiter also owns per-tenant latency accounting: the fronting
    wrappers sample request latency (completion - issue), and
    {!note_latency} checks each sample against the tenant's SLO,
    counting [slo_violations] through [lib/obs].  Sustained violation
    is the health signal [Fleet.Supervisor] uses to quarantine a noisy
    tenant. *)

(** The three metered shared resources.  Credit units are transaction
    cycles for the bus, transfer bytes for DMA, and stream/service
    cycles for accelerators. *)
type resource = Bus | Dma | Accel

val resource_name : resource -> string
(** ["bus"], ["dma"] or ["accel"]. *)

(** Per-resource credit terms for one tenant, in credits per epoch.
    [cap >= guarantee >= 0]; [cap] bounds total consumption per epoch
    (the burst ceiling), [guarantee] is the refill floor. *)
type share = { guarantee : int; cap : int }

(** One tenant's contract: credit terms on each resource plus an
    optional latency SLO in cycles (a latency sample above [slo]
    counts one SLO violation). *)
type limits = {
  bus : share;
  dma : share;
  accel : share;
  slo : int option;
}

val flat : guarantee:int -> cap:int -> ?slo:int -> unit -> limits
(** Same terms on all three resources — the common case in tests and
    scenarios. *)

type config = {
  epoch : int;  (** cycles per accounting epoch; > 0 *)
  bus_capacity : int;  (** bus credits available per epoch; > 0 *)
  dma_capacity : int;  (** DMA byte credits per epoch; > 0 *)
  accel_capacity : int;  (** accel cycle credits per epoch; > 0 *)
}

type t

val create : config -> t
(** Raises [Invalid_argument] on a non-positive epoch or capacity. *)

val set_sink : t -> Obs.sink -> track_base:int -> unit
(** Route grant/throttle/borrow counters, throttle instants and the
    [qos_latency_cycles] histogram to [sink].  Tracks [track_base]..
    [track_base+2] carry per-resource throttle instants. *)

val register : t -> tenant:int -> limits -> unit
(** Add (or replace) a tenant's contract.  Raises [Invalid_argument]
    if any [cap < guarantee], a term is negative, or the sum of
    registered guarantees on any resource would exceed that resource's
    per-epoch capacity — over-subscribed guarantees are lies, and the
    always-grant invariant depends on rejecting them here. *)

val registered : t -> tenant:int -> bool
val tenants : t -> int list
(** Registered tenant ids, sorted. *)

(** Typed backpressure: who was throttled, on what, and the cycle at
    which credit next refills (the following epoch boundary). *)
type throttle = { tenant : int; resource : resource; until : int }

type verdict = Granted | Throttled of throttle

val admit : t -> tenant:int -> resource:resource -> cost:int -> now:int -> verdict
(** Charge [cost] credits against [tenant]'s budget at cycle [now].
    Epoch state rolls forward from [now]; [now] must not go backwards
    across calls.  Raises [Invalid_argument] for an unregistered
    tenant or a non-positive cost. *)

val epoch_granted : t -> resource:resource -> int
(** Credits granted on [resource] so far in the current epoch (the
    conservation property bounds this by capacity + donated slack). *)

val epoch_slack : t -> resource:resource -> int
(** Donated credit carried into the current epoch on [resource]. *)

(* ------------------------------------------------------------------ *)
(** {2 Fronting wrappers}

    Admission then forwarding: each wrapper charges the resource's
    natural cost unit, and on grant forwards to the underlying device
    and samples request latency where the device has a completion
    clock.  [Error throttle] means the device was never touched. *)

val bus_request :
  t -> bus:Bus.t -> tenant:int -> client:int -> now:int -> cost:int -> (int, throttle) result
(** Charge [cost] bus credits; on grant, [Bus.request] and a latency
    sample of [completion - now]. *)

val dma_transfer :
  t ->
  dma:Dma.t ->
  tenant:int ->
  now:int ->
  checked:bool ->
  bank:int ->
  direction:Dma.direction ->
  nic_addr:int ->
  host_addr:int ->
  len:int ->
  ((unit, Dma.error) result, throttle) result
(** Charge [len] byte credits; on grant, [Dma.transfer].  DMA has no
    completion clock, so no latency sample is taken here. *)

val accel_cost : Accel.t -> bytes:int -> int
(** The accel credit cost the wrappers charge for [bytes]. *)

(* ------------------------------------------------------------------ *)
(** {2 Latency and SLO accounting} *)

val note_latency : t -> tenant:int -> cycles:int -> unit
(** Record one request-latency sample; bumps the tenant's
    [slo_violations] when [cycles] exceeds its SLO. *)

val latency_quantile : t -> tenant:int -> q:float -> float option
(** Exact [q]-quantile of the tenant's latency samples
    ([Obs.Metrics.quantile_of_samples] convention: [None] below two
    samples). *)

(** Cumulative per-tenant accounting since creation. *)
type tenant_stats = {
  grants : int;  (** requests granted *)
  throttles : int;  (** requests refused with {!Throttled} *)
  borrows : int;  (** grants that dipped into shared slack *)
  borrowed_credits : int;  (** credits granted beyond the guarantee *)
  granted_bus : int;  (** bus credits granted, all epochs *)
  granted_dma : int;
  granted_accel : int;
  samples : int;  (** latency samples recorded *)
  slo_violations : int;
}

val stats : t -> tenant:int -> tenant_stats
(** Raises [Invalid_argument] for an unregistered tenant. *)

val granted_credits : t -> tenant:int -> resource:resource -> int
