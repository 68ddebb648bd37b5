(** Colocation sweeps reproducing Figure 5.

    For each NF we measure the IPC degradation S-NIC's isolation causes,
    across every possible colocation with other NFs (Figure 5a: two
    colocated NFs, varying L2 size; Figure 5b: 4 MB L2, varying
    co-tenancy), reporting the median with 1st/99th-percentile error
    bars, as the paper does. *)

type stats = { median : float; p1 : float; p99 : float }

(** Figure 5a: per NF, per L2 size, stats over all 2-NF colocations
    (one per possible partner) on the default-seed {!Workload.stream}
    traces.  Default sizes are the paper's 8 KB .. 16 MB sweep. *)
val figure5a : ?l2_sizes:int list -> ?packets:int -> unit -> (string * (int * stats) list) list

(** Figure 5b: per NF, per co-tenancy degree (default the paper's
    {2,3,4,8,16}), stats over sampled colocation mixes at 4 MB L2.
    [seed] drives both the workload traces and the partner-mix sampling;
    omitting it reproduces the historic fixed-seed output. *)
val figure5b :
  ?cotenancy:int list -> ?samples:int -> ?packets:int -> ?seed:int -> unit -> (string * (int * stats) list) list

val default_l2_sizes : int list
val default_cotenancy : int list

(** Aggregate helpers used by the bench narrative ("average median IPC
    degradation at 4 NFs is 0.93%"). *)
val mean : float list -> float

val stats_of : float list -> stats
