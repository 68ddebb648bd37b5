(** Packing tenant vNICs onto a rack's VF slots.

    Pure planning arithmetic, like [Place] for NFs: given per-NIC VF
    slot capacities and a list of tenant vNICs, produce a deterministic
    assignment of (NIC, VF id) per vNIC, or an error when demand exceeds
    rack capacity.  No machine state is touched. *)

type vnic = { tenant : int; weight : int }
type site = { nic : int; slots : int }
type assignment = { nic : int; vf : int; tenant : int; weight : int }

type policy =
  | Packed  (** first-fit: fill NICs in order — dense, easy to drain *)
  | Spread  (** round-robin over NICs with headroom — smooth load *)

val pack : policy -> sites:site list -> vnics:vnic list -> (assignment list, string) result
(** Assign every vNIC a (NIC, VF id), in vNIC order.  VF ids count up
    from 0 per NIC.  [Error] when there are more vNICs than slots. *)

val per_nic : assignment list -> (int * assignment list) list
(** Group assignments by NIC id, ascending; within a NIC, original
    order (ascending VF ids). *)
