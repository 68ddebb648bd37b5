(** Stateful firewall (§5.1): packets are matched against an ordered rule
    list; recently matched flows are cached in an LRU map capped at
    200,000 entries (Open vSwitch's cached-flow limit, which the paper
    adopts); old flows are evicted, so memory stays inside the fixed
    S-NIC reservation. *)

type action = Allow | Deny

type rule = {
  src_prefix : (Net.Ipv4_addr.t * int) option; (* None = wildcard *)
  dst_prefix : (Net.Ipv4_addr.t * int) option;
  proto : int option;
  src_ports : (int * int) option; (* inclusive range *)
  dst_ports : (int * int) option;
  action : action;
}

type t

(** [create ?cache_capacity ?probe ~default rules]. [default] applies when
    no rule matches. Cache capacity defaults to 200,000. *)
val create : ?cache_capacity:int -> ?probe:Types.probe -> default:action -> rule list -> t

val nf : t -> Types.t

(** Direct classification (also fills the flow cache). *)
val classify : t -> Net.Packet.t -> action

val rule_count : t -> int
val cached_flows : t -> int
val cache_capacity : t -> int

(** Flows evicted from the cache so far. *)
val cache_evictions : t -> int

(** A wildcard-everything rule with the given action. *)
val rule_any : action -> rule
