(** Deterministic saturation driver for VF fairness runs.

    Attaches every VF of a fresh S-NIC machine, keeps all of them
    backlogged, serves roughly [cycles] full stage-1 rotations, and
    reports per-tenant goodput shares.  A run is a pure function of its
    parameters and seed — the CLI diffs two runs for the determinism
    gate, the bench baselines the totals. *)

type nic_result = {
  nic : int;
  vnics : int;
  scheduled_pkts : int;
  scheduled_bytes : int;
  rounds : int;  (** stage-1 quantum refills *)
  drops : int;  (** TX + RX quota drops (0 in a healthy run) *)
  report : Obs.Fairness.report;
  lat_report : Obs.Fairness.report;
      (** {!Obs.Fairness.latency_weighted_report} over each VF's p99
          inter-service gap — the same lower-is-better fairness scoring
          the QoS noisy-neighbor report uses. *)
}

type result = {
  nics : nic_result list;
  total_pkts : int;
  total_bytes : int;
  total_drops : int;
  jain_min : float;  (** worst per-NIC weighted Jain index *)
  max_rel_err : float;  (** worst per-NIC share error vs weights *)
}

val run_nic :
  ?sink:Obs.sink ->
  ?config:Table.config ->
  nic:int ->
  cycles:int ->
  seed:int ->
  vnics:(int * int) list ->
  unit ->
  nic_result
(** Drive one NIC whose VF slot [i] hosts the [i]-th [(nf, weight)] of
    [vnics].  Raises [Invalid_argument] on [cycles < 1] or an empty
    vNIC list. *)

val aggregate : nic_result list -> result
(** Totals and the worst per-NIC fairness over already-driven NICs. *)

val run :
  ?sink:Obs.sink ->
  ?config:Table.config ->
  nics:int ->
  vfs:int ->
  cycles:int ->
  seed:int ->
  unit ->
  result
(** [nics] independent NICs, each fully populated: [vfs] tenants with
    weights cycling 1, 2, 4, 8 down the VF ids. *)

val check : ?min_jain:float -> ?max_err_pct:float -> result -> string list
(** The fairness gates, one message per failed gate ([[]] on a pass):
    the worst per-NIC weighted Jain index is at least [min_jain]
    (default 0.95), and no tenant's goodput share misses its weight
    share by more than [max_err_pct] percent (default 5). *)

val nic_summary : nic_result -> string
(** One deterministic line (no timing) for a NIC. *)

val summary : result -> string
(** Per-NIC lines plus a totals footer; byte-identical across runs with
    the same parameters. *)
