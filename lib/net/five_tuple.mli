(** The classic 5-tuple flow key: source/destination IP, protocol,
    source/destination port. Commodity NICs and S-NIC both express packet
    switching rules as predicates over this tuple (§3.1). *)

type t = {
  src_ip : Ipv4_addr.t;
  dst_ip : Ipv4_addr.t;
  proto : int; (* IP protocol number: 6 = TCP, 17 = UDP *)
  src_port : int;
  dst_port : int;
}

val make : src_ip:Ipv4_addr.t -> dst_ip:Ipv4_addr.t -> proto:int -> src_port:int -> dst_port:int -> t

val equal : t -> t -> bool

(** A well-mixed hash suitable for hash-table flow caches. *)
val hash : t -> int

(** The tuple of the reverse direction. *)
val reverse : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Hashtbl functor instance keyed by 5-tuples. *)
module Table : Hashtbl.S with type key = t
