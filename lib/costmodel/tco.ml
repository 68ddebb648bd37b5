type device = { name : string; purchase_usd : float; peak_power_w : float; cores : int }

let liquidio = { name = "Marvell LiquidIO (12 cores)"; purchase_usd = 420.; peak_power_w = 24.7; cores = 12 }
let host_xeon = { name = "Intel E5-2680 v3 (12 cores)"; purchase_usd = 1745.; peak_power_w = 113.; cores = 12 }
let usd_per_kwh = 0.0733 (* average U.S. datacenter electricity price used by the paper *)
let years = 3.

let tco_per_core d =
  let hours = years *. 365. *. 24. in
  let electricity = d.peak_power_w *. hours /. 1000. *. usd_per_kwh in
  (d.purchase_usd +. electricity) /. float_of_int d.cores

let snic_variant ?(area_overhead_pct = 8.89) ?(power_overhead_pct = 11.45) d =
  {
    d with
    name = d.name ^ " + S-NIC";
    purchase_usd = d.purchase_usd *. (1. +. (area_overhead_pct /. 100.));
    peak_power_w = d.peak_power_w *. (1. +. (power_overhead_pct /. 100.));
  }

type summary = {
  nic_tco : float;
  snic_tco : float;
  host_tco : float;
  advantage_nic : float;
  advantage_snic : float;
  advantage_reduction_pct : float;
  preserved_pct : float;
}

let summary ?area_overhead_pct ?power_overhead_pct () =
  let nic_tco = tco_per_core liquidio in
  let snic_tco = tco_per_core (snic_variant ?area_overhead_pct ?power_overhead_pct liquidio) in
  let host_tco = tco_per_core host_xeon in
  let advantage_nic = host_tco /. nic_tco in
  let advantage_snic = host_tco /. snic_tco in
  let advantage_reduction_pct = 100. *. (advantage_nic -. advantage_snic) /. advantage_nic in
  {
    nic_tco;
    snic_tco;
    host_tco;
    advantage_nic;
    advantage_snic;
    advantage_reduction_pct;
    preserved_pct = 100. -. advantage_reduction_pct;
  }
