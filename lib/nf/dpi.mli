(** Deep packet inspection NF: Aho–Corasick pattern matching over packet
    payloads (§5.1; the paper uses 33,471 patterns drawn from six open
    rulesets). Matching packets are dropped, mimicking an inline IDS. *)

type t

(** [create ?probe patterns] builds the matcher. The probe reports the
    automaton states visited (region 0). *)
val create : ?probe:Types.probe -> string list -> t

val nf : t -> Types.t

(** [inspect t pkt] is the number of pattern hits in [pkt]'s payload. *)
val inspect : t -> Net.Packet.t -> int

val automaton : t -> Aho_corasick.t
