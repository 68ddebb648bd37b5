(** Common vocabulary for the six evaluation network functions (§5.1). *)

(** What an NF decided to do with a packet. *)
type verdict =
  | Forward of Net.Packet.t (* pass, possibly rewritten *)
  | Drop of string (* reason, for logs and tests *)

(** Data-structure touch callback used by the microarchitectural model:
    [region] identifies one of the NF's memory regions (0 = primary table)
    and [index] the slot touched. NFs call it on their *actual* lookups, so
    cache simulations replay real access patterns (gem5 substitution, see
    DESIGN.md). *)
type probe = region:int -> index:int -> unit

(** The uniform NF interface used by examples, benches and the NIC
    simulator. *)
type t = {
  name : string;
  process : Net.Packet.t -> verdict;
}

val is_drop : verdict -> bool
