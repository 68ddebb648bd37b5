(** Three-year total-cost-of-ownership model (§5.2).

    Reproduces the paper's arithmetic exactly: per-core TCO of a
    LiquidIO-class smart NIC vs a Xeon E5-2680 v3 host, the S-NIC variant
    inflated by the silicon overheads, and the resulting reduction in the
    NIC's TCO *advantage* (the ratio host/NIC), which is the paper's
    8.37% / "preserves 91.6%" headline. *)

type device = {
  name : string;
  purchase_usd : float;
  peak_power_w : float;
  cores : int;
}

val liquidio : device
val host_xeon : device

(** [tco_per_core device] in USD over three years. *)
val tco_per_core : device -> float

(** [snic_variant ?area_overhead_pct ?power_overhead_pct device] scales
    purchase cost with area and electricity with power (defaults: the
    paper's 8.89 / 11.45). *)
val snic_variant : ?area_overhead_pct:float -> ?power_overhead_pct:float -> device -> device

type summary = {
  nic_tco : float; (* $/core, plain smart NIC *)
  snic_tco : float; (* $/core, S-NIC-extended *)
  host_tco : float; (* $/core, host server *)
  advantage_nic : float; (* host/nic ratio *)
  advantage_snic : float;
  advantage_reduction_pct : float; (* the 8.37% *)
  preserved_pct : float; (* the 91.6% *)
}

val summary : ?area_overhead_pct:float -> ?power_overhead_pct:float -> unit -> summary
