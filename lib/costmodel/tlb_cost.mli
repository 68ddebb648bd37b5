(** Silicon area and power of one fully-associative TLB structure, as a
    function of its entry count.

    The paper derives these numbers from McPAT at 28 nm against a
    Cortex-A9 baseline (§5.2). McPAT is not available here, so this model
    is a CAM+SRAM curve *anchored to the paper's published data points*
    (every per-unit value recoverable from Tables 2–5) with log-log
    interpolation between anchors and slope extrapolation beyond them;
    below the smallest anchor the cost floors at the fixed peripheral
    overhead McPAT reports for tiny structures (the paper notes a 2-entry
    and a 3-entry TLB cost the same). See DESIGN.md for the substitution
    rationale. *)

(** [area_mm2 entries] — die area of one TLB with [entries] entries. *)
val area_mm2 : int -> float

(** [power_w entries] — peak power of the same structure. *)
val power_w : int -> float

(** The Cortex-A9 4-core baseline the paper compares against (recovered
    from Table 2: total minus the added TLB cost). *)
val a9_baseline_area_mm2 : float

val a9_baseline_power_w : float
