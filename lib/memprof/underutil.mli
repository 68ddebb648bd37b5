(** The §4.8 underutilization trade-off, quantified.

    S-NIC deliberately forbids returning memory to the OS after
    nf_launch (resizing would leak information through the status of
    OS-managed resources), so a function is provisioned for its peak.
    The paper's prescription is to keep utilization high by creating and
    destroying fixed-size function instances as load varies. This module
    simulates a diurnal tenant load against three provisioning policies
    and reports the memory utilization each achieves. *)

type policy =
  | Static_peak (* one function provisioned for the daily peak *)
  | Elastic of { instance_mb : float } (* create/destroy fixed-size instances (the paper's §4.8 advice) *)
  | Dynamic (* hypothetical OS-shared allocation — the insecure baseline *)

val policy_name : policy -> string

type point = { t_h : float; demand_mb : float; provisioned_mb : float }

(** [simulate policy] runs one day of the diurnal curve (30% base load,
    peak of 360 MB at 18:00) at four samples an hour. *)
val simulate : policy -> point list

(** Mean of demand/provisioned over the series. *)
val avg_utilization : point list -> float

(** Instance launches + teardowns over the series (the churn an Elastic
    policy pays; 0 for the others). *)
val churn : point list -> policy -> int
