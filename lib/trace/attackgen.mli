(** Seeded adversarial traffic generators: SYN floods, spoofed-source
    storms, elephant/mice mixes and flash crowds.  Generators stream
    events through a callback so millions-of-flows scale never builds a
    packet array; the same [Rng] seed replays the same attack byte for
    byte. *)

type kind = Syn | Ack | Data

type event = {
  kind : kind;
  flow : Net.Five_tuple.t;
  benign : bool; (* false = attack traffic *)
  size : int; (* wire bytes *)
}

(** All TCP scenarios target this one victim service. *)
val victim_ip : Net.Ipv4_addr.t

val victim_port : int

(** [syn_flood rng ~benign_flows ~attack_factor ~packets_per_flow ~f]:
    every benign flow handshakes (SYN, ACK) up front, then the data
    phase spreads each flow's [packets_per_flow] packets across rounds
    over the whole stream; every benign packet is interleaved with
    [attack_factor] spoofed SYNs that never complete, each from a fresh
    never-repeating source.  Long-lived flows under sustained attack:
    a stateful defense must keep its admission state intact between a
    flow's handshake and its last data packet. *)
val syn_flood :
  Rng.t -> benign_flows:int -> attack_factor:int -> packets_per_flow:int -> f:(event -> unit) -> unit

(** [spoofed_storm rng ~sources ~f] emits one packet per distinct
    spoofed source (SYN for TCP tuples, bare datagram for UDP) at
    whatever scale the caller asks — exercises [Flowgen.flows]'s
    bounded-retry distinctness at [sources >= 10^6]. *)
val spoofed_storm : Rng.t -> sources:int -> f:(event -> unit) -> unit

(** Benign skewed mix: [elephants] flows of [elephant_pkts] 1500 B
    packets each alongside [mice] flows of [mouse_pkts] small packets. *)
val elephant_mice :
  Rng.t -> elephants:int -> mice:int -> elephant_pkts:int -> mouse_pkts:int -> f:(event -> unit) -> unit

(** Legitimate-but-sudden load: [flows] handshaking flows arriving on a
    linear ramp over [steps] steps — the case a defense must not
    throttle. *)
val flash_crowd : Rng.t -> flows:int -> steps:int -> f:(event -> unit) -> unit

(** [digest gen] folds every event [gen] produces into a small integer —
    the determinism fingerprint used by tests and CI diffs:
    [digest (fun f -> syn_flood rng ~... ~f)]. *)
val digest : ((event -> unit) -> unit) -> int
