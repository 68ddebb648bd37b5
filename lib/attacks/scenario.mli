(** Shared two-tenant setup for the §3.3 attack reproductions: a victim
    NF (id 0) and a malicious NF (id 1), installed on a machine in any
    mode using the commodity management path (buffers from the shared
    allocator, a bound core each, a TLB window over their own memory). *)

type t = {
  machine : Nicsim.Machine.t;
  victim_mem : int; (* physical base of the victim's private region *)
  victim_mem_len : int;
  attacker_mem : int;
  attacker_mem_len : int;
  victim_cluster : int; (* the victim's DPI accelerator cluster *)
  attacker_cluster : int;
}

val victim_id : int

(** [setup mode] builds the machine and both tenants; the victim gets a
    packet pipeline with a catch-all switching rule. *)
val setup : Nicsim.Machine.mode -> t

(** Accessors for code running *as* one of the tenants. *)
val as_victim : t -> Nicsim.Machine.principal

val as_attacker : t -> Nicsim.Machine.principal

(** [deliver_to_victim t pkt] pushes a packet through ingress into the
    victim's RX ring. *)
val deliver_to_victim : t -> Net.Packet.t -> (unit, string) result
