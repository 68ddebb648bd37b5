(** MazuNAT-derived network address translator (§5.1): outbound flows from
    the internal prefix get a distinct external port; translations are
    cached in a hash map. Only the first 65,535 flows that can be assigned
    a distinct port are recorded, as in the paper. *)

type t

val create :
  ?probe:Types.probe ->
  internal_prefix:Net.Ipv4_addr.t * int ->
  external_ip:Net.Ipv4_addr.t ->
  unit ->
  t

val nf : t -> Types.t

(** [translate t pkt] rewrites an outbound packet (source inside the
    internal prefix) or reverse-translates an inbound one. [None] when the
    packet cannot be translated (port pool exhausted, or inbound with no
    mapping). *)
val translate : t -> Net.Packet.t -> Net.Packet.t option

val active_mappings : t -> int

(** First external port handed out. *)
val port_base : int

(** Ports remaining in the pool (including recycled ones). *)
val free_ports : t -> int

(** [expire t ~idle_for] drops mappings unused for more than [idle_for]
    ticks and returns their ports to the pool; returns the number
    expired. *)
val expire : t -> idle_for:int -> int
