(** Memory utilization ratios (Table 8): fixed S-NIC preallocation vs the
    memory the NF actually needs in steady state.

    The gap has two modeled causes: HashMap doubling (the preallocation
    must cover the transient where old and new tables coexist) and
    temporary DPDK initialization memory. FW, DPI and LPM preallocate
    exactly what they use (bounded structures sized up front). *)

type row = {
  name : string;
  prealloc_mb : float;
  used_mb : float; (* steady state *)
  mur_pct : float;
}

(** All six NFs, paper order. *)
val table8 : unit -> row list

val find : string -> row
