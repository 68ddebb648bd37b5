(** Parsed packet representation with on-the-wire serialization.

    The simulator moves packets between the wire, on-NIC RAM and network
    functions as raw bytes (Ethernet / IPv4 / TCP|UDP frames); NFs operate
    on this parsed view. [serialize] and [parse] are exact inverses for
    well-formed packets, and [serialize] computes correct IPv4 and L4
    checksums so corruption (e.g. by the §3.3 packet-corruption attack) is
    detectable. *)

type proto = Tcp | Udp

type t = {
  src_mac : string; (* 6 bytes *)
  dst_mac : string; (* 6 bytes *)
  src_ip : Ipv4_addr.t;
  dst_ip : Ipv4_addr.t;
  proto : proto;
  src_port : int;
  dst_port : int;
  ttl : int;
  payload : string;
}

(** Frames built here carry the fixed locally administered MACs
    02:00:00:00:00:01 -> 02:00:00:00:00:02. *)
val make :
  ?ttl:int ->
  src_ip:Ipv4_addr.t ->
  dst_ip:Ipv4_addr.t ->
  proto:proto ->
  src_port:int ->
  dst_port:int ->
  string ->
  t

val flow : t -> Five_tuple.t

(** Total on-the-wire frame length in bytes. *)
val wire_length : t -> int

(** [serialize t] builds the Ethernet frame with valid checksums. *)
val serialize : t -> Bytes.t

type parse_error =
  | Truncated of string
  | Bad_version of int
  | Unsupported_protocol of int
  | Bad_ipv4_checksum
  | Bad_l4_checksum

val pp_parse_error : Format.formatter -> parse_error -> unit

(** [parse ?verify_checksums frame] parses an Ethernet frame.
    [verify_checksums] defaults to [true]. *)
val parse : ?verify_checksums:bool -> Bytes.t -> (t, parse_error) result

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
