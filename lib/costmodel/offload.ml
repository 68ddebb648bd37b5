type deployment = {
  name : string;
  core_ghz : float;
  cycles_per_packet : float;
  pcie_ns_each_way : float; (* 0 for on-NIC processing *)
  core_tco_usd : float; (* 3-year $/core (§5.2) *)
}

(* Per-core TCO from the §5.2 arithmetic; per-packet work ~800 cycles (a
   header-touching NF); PCIe ~500 ns each way (gen3 round trip plus
   doorbells), the latency the paper says offloading avoids. *)
let host_x86 =
  {
    name = "host x86 core";
    core_ghz = 2.5;
    cycles_per_packet = 800.;
    pcie_ns_each_way = 500.;
    core_tco_usd = Tco.tco_per_core Tco.host_xeon;
  }

let smartnic =
  {
    name = "smart NIC core";
    core_ghz = 1.2;
    cycles_per_packet = 800.;
    pcie_ns_each_way = 0.;
    core_tco_usd = Tco.tco_per_core Tco.liquidio;
  }

(* The smart NIC core minus the isolation tax: the paper's worst-case
   1.7% IPC degradation and the §5.2 TCO overhead. *)
let snic =
  {
    name = "S-NIC core";
    core_ghz = 1.2;
    (* IPC degradation shows up as extra cycles per packet. *)
    cycles_per_packet = 800. *. (1. +. (1.7 /. 100.));
    pcie_ns_each_way = 0.;
    core_tco_usd = Tco.tco_per_core (Tco.snic_variant Tco.liquidio);
  }

type result = { deployment : string; latency_ns : float; kpps_per_core : float; usd_per_mpps : float }

let evaluate d =
  let compute_ns = d.cycles_per_packet /. d.core_ghz in
  let latency_ns = compute_ns +. (2. *. d.pcie_ns_each_way) in
  (* Throughput is compute-bound (PCIe transfers pipeline). *)
  let pps = 1e9 /. compute_ns in
  { deployment = d.name; latency_ns; kpps_per_core = pps /. 1e3; usd_per_mpps = d.core_tco_usd /. (pps /. 1e6) }

let comparison () = List.map evaluate [ host_x86; smartnic; snic ]
