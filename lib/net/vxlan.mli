(** VXLAN (RFC 7348) encapsulation.

    S-NIC lets a network function act as a VXLAN endpoint so that it can
    join a tenant's virtual Layer-2 topology (§4.4); switching rules may
    match on the VNI in addition to MAC addresses and 5-tuples. *)

(** 24-bit Virtual Network Identifier. *)
type vni = int

type encapsulated = {
  vni : vni;
  outer_src_ip : Ipv4_addr.t;
  outer_dst_ip : Ipv4_addr.t;
  inner : Packet.t;
}

(** [encapsulate ~vni ~outer_src_ip ~outer_dst_ip inner] wraps [inner]'s
    full Ethernet frame in an outer UDP/VXLAN packet. Raises
    [Invalid_argument] if [vni] exceeds 24 bits. *)
val encapsulate : vni:vni -> outer_src_ip:Ipv4_addr.t -> outer_dst_ip:Ipv4_addr.t -> Packet.t -> Packet.t

(** [decapsulate outer] recovers the VNI and the inner packet; [Error]
    describes the failure (not VXLAN, bad flags, inner parse error). *)
val decapsulate : Packet.t -> (encapsulated, string) result

(** [is_vxlan p] holds when [p] is addressed to the VXLAN UDP port. *)
val is_vxlan : Packet.t -> bool
